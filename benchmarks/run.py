#!/usr/bin/env python3
"""Benchmark of the amwidth CLI on four oracle-checked workloads.

    python3 benchmarks/run.py --workload chain-tutte --seed 1 --seconds 15 --trace 0

Each run is one process and one client in a closed loop: every instance
(one or more ``amwidth.cli.main`` calls from input files to an answer,
stdout captured) starts when the previous one has returned.  Set-up
generates the seeded inputs into a work directory; the solve phase cycles
through them in rounds until ``--seconds`` have passed and a round is
complete.  Every answer is compared with its oracle outside the timed
span, and one wrong answer fails the run.

``--trace 0`` reports the end-to-end metrics, with every time scaled to
a reference host by a fixed probe timed next to it (NOTES.md).
``--trace 1`` alternates untraced and traced rounds over the same
instances and reports the per-layer metrics of the traced ones (see
tracing.py and NOTES.md).
Metric lines go to stdout, then one JSON object as the last line; the
full result goes to benchmarks/results/.
"""

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
MIN_INSTANCES = 100
PROBE_REF_S = 0.5e-3  # probe() on a quiet host: times are reported as on it
PROBE_WINDOW = 6  # probes on each side of a sample that set its host speed
OVERRUN_S = 100  # stop even mid-round this long after --seconds

END_TO_END = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per traced instance unless the name says max, ratio or exponent.
PER_LAYER = {
    "types_dp.join_s": "s",
    "types_dp.join_calls": "count",
    "types_dp.join_reuse_ratio": "ratio",
    "types_dp.join_rejects": "count",
    "types_dp.context_s": "s",
    "types_dp.leaf_s": "s",
    "types_dp.fixpoint_s": "s",
    "types_dp.fixpoint_calls": "count",
    "mso.compiled_s": "s",
    "mso.states_total": "count",
    "mso.parse_s": "s",
    "tutte.dp_s": "s",
    "tutte.dp_self_s": "s",
    "tutte.brute_s": "s",
    "tutte.cells_total": "count",
    "tutte.signatures_max": "count",
    "tutte.signatures_total": "count",
    "tutte.n_exponent": "ratio",
    "tutte.width_slope": "log2/width",
    "decomposition.validate_s": "s",
    "decomposition.to_nice_s": "s",
    "decomposition.realize_s": "s",
    "decomposition.nodes": "count",
    "decomposition.width": "count",
    "amalgam.semiflat_s": "s",
    "amalgam.semiflat_calls": "count",
    "amalgam.glue_s": "s",
    "files.load_s": "s",
    "files.load_calls": "count",
    "files.bytes_in": "bytes",
    "files.dumps_s": "s",
    "matroid.construct_s": "s",
    "matroid.max_elements": "count",
    "kernels.rank_table_s": "s",
    "kernels.rank_table_cells": "count",
    "kernels.closure_table_s": "s",
    "kernels.whitney_s": "s",
    "kernels.translate_masks_s": "s",
    "branch.convert_s": "s",
    "branch.width_out": "count",
    "branch.glue_elements": "count",
    "linalg.s": "s",
    "linalg.calls": "count",
    "cli.self_s": "s",
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.calib_ms": "ms",
}


def calibrate():
    """Median ms of a fixed pure-Python loop; shows host speed drift."""
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append((perf_counter() - t0) * 1000)
    return samples


def probe():
    """Seconds of a fixed piece of work: the host's speed at this moment.

    Half pure-Python arithmetic, half small NumPy calls, the two kinds of
    work the program does most.  Adding gathers over large arrays made
    the scaling worse on every workload but dense-brute (NOTES.md).
    """
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(2_500):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(256, dtype=np.int64)
    for i in range(60):
        a = np.bitwise_xor(a, (a * i) & 255)
    int(a.sum())
    return perf_counter() - t0


def host_scaled(times, probes):
    """Each time as on the reference host, whose probe takes PROBE_REF_S.

    A time is scaled by PROBE_REF_S over the median of the probes taken
    within PROBE_WINDOW positions of it, so one disturbed probe does not
    move it.
    """
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def child_import_s():
    """Seconds a fresh interpreter spends in ``import amwidth``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import amwidth; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def loglog_slope(points, logx):
    """Least-squares slope of log(time) against logx(x) over per-x medians."""
    by_x = {}
    for x, t in points:
        if t > 0:
            by_x.setdefault(x, []).append(t)
    if len(by_x) < 2:
        return 0.0
    xs = [logx(x) for x in sorted(by_x)]
    ys = [math.log(statistics.median(by_x[x])) for x in sorted(by_x)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum((a - mx) ** 2 for a in xs)


class Runner:
    def __init__(self, workload, seed, seconds, limit):
        self.workload, self.seed, self.seconds, self.limit = workload, seed, seconds, limit
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.samples = []  # (latency_s, ok, instance, probe_s) of untraced instances
        self.traced = []  # (latency_s, dp_s, instance) of traced instances
        self.failures = []
        self.wrong = None
        self.setup_probes = []  # median probe around each set-up

    def setup(self):
        """Generate the inputs SETUP_REPEATS times; each sample includes a fresh import."""
        import workloads

        times = []
        for i in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            probes = [probe() for _ in range(5)]
            imp = child_import_s()
            t0 = perf_counter()
            self.round = workloads.GENERATORS[self.workload](self.seed, self.work)
            times.append(imp + perf_counter() - t0)
            probes += [probe() for _ in range(5)]
            self.setup_probes.append(statistics.median(probes))
        self.expected = {inst.key: inst.oracle() for inst in self.round}
        return times

    def run_instance(self, inst):
        from amwidth import cli

        outputs, err = [], io.StringIO()
        t0 = perf_counter()
        for argv in inst.argvs:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(err):
                rc = cli.main(argv)
            outputs.append(buf.getvalue())
            if rc != 0:
                break
        elapsed = perf_counter() - t0
        if rc != 0:
            self.failures.append(f"{inst.key}: exit {rc}: {err.getvalue().strip()}")
            return elapsed, False
        try:
            got = inst.answer(outputs)
        except (ValueError, KeyError, TypeError) as exc:
            got = f"unreadable output ({exc})"
        if got != self.expected[inst.key] and self.wrong is None:
            self.wrong = f"{inst.key}: got {got!r}, expected {self.expected[inst.key]!r}"
        return elapsed, True

    def stopped(self):
        return self.wrong is not None or (self.limit and len(self.samples) >= self.limit)

    def solve(self, tracer=None):
        """Untraced rounds until time is up; with a tracer each is rerun traced."""
        start = perf_counter()
        while True:
            ran = []
            for inst in self.round:
                if self.stopped():
                    break
                probe_s = probe()
                latency, ok = self.run_instance(inst)
                self.samples.append((latency, ok, inst, probe_s))
                ran.append(inst)
            for inst in ran if tracer is not None else ():
                if self.wrong:
                    break
                before = tracer.time["tutte.dp"]
                tracer.on = True
                try:
                    latency, _ = self.run_instance(inst)
                finally:
                    tracer.on = False
                self.traced.append((latency, tracer.time["tutte.dp"] - before, inst))
                tracer.run_deferred()
            elapsed = perf_counter() - start
            enough = tracer is not None or len(self.samples) >= MIN_INSTANCES
            if self.stopped() or (elapsed >= self.seconds and enough):
                return
            if elapsed >= self.seconds + OVERRUN_S:
                return


def end_to_end(runner, setup_times, scaled=True):
    # The host's speed drifts by up to 2x within seconds (NOTES.md), so
    # every time is scaled to the reference host by the probes taken next
    # to it; scaled=False gives the raw figures, printed for comparison.
    # Each instance runs once per round and is counted at the median of
    # its times in the run.  A failed instance misses every latency limit,
    # so it ranks as the whole solve phase.
    times, setup = [s[0] for s in runner.samples], setup_times
    if scaled:
        times = host_scaled(times, [s[3] for s in runner.samples])
        setup = [t * PROBE_REF_S / p for t, p in zip(setup_times, runner.setup_probes)]
    by_instance = {}
    for t, (_, ok, inst, _) in zip(times, runner.samples):
        if ok:
            by_instance.setdefault(inst.key, []).append(t)
    typical = {k: statistics.median(v) for k, v in by_instance.items()}
    solve_s = sum(times)
    ranked = [typical[i.key] if ok else solve_s for _, ok, i, _ in runner.samples]
    done = [typical[i.key] for _, ok, i, _ in runner.samples if ok]
    return {
        "setup_s": statistics.median(setup),
        "throughput_ips": len(done) / sum(done) if done else 0.0,
        "latency_p50_ms": percentile(ranked, 50) * 1000,
        "latency_p90_ms": percentile(ranked, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner, tracer, calib):
    n = max(len(runner.traced), 1)
    t, calls, counts, maxima = tracer.time, tracer.calls, tracer.counts, tracer.maxima
    join_calls = calls["types_dp.join"]
    dp_curve = curve_points(runner, [(dp, i) for _, dp, i in runner.traced])
    n_exponent = width_slope = 0.0
    if runner.workload == "chain-tutte":
        n_exponent = loglog_slope(dp_curve, math.log)
    if runner.workload == "convert-tutte":
        width_slope = loglog_slope(dp_curve, float) / math.log(2)
    validated = max(counts["decomposition.validated"], 1)
    untraced = sum(s[0] for s in runner.samples[: len(runner.traced)])
    return {
        "types_dp.join_s": t["types_dp.join"] / n,
        "types_dp.join_calls": join_calls / n,
        "types_dp.join_reuse_ratio": 1 - len(tracer.join_keys) / join_calls if join_calls else 0.0,
        "types_dp.join_rejects": counts["types_dp.join_rejects"] / n,
        "types_dp.context_s": t["types_dp.context"] / n,
        "types_dp.leaf_s": t["types_dp.leaf"] / n,
        "types_dp.fixpoint_s": t["types_dp.fixpoint"] / n,
        "types_dp.fixpoint_calls": calls["types_dp.fixpoint"] / n,
        "mso.compiled_s": t["mso.compiled"] / n,
        "mso.states_total": counts["mso.states_total"] / n,
        "mso.parse_s": t["mso.parse"] / n,
        "tutte.dp_s": t["tutte.dp"] / n,
        "tutte.dp_self_s": tracer.self_time["tutte.dp"] / n,
        "tutte.brute_s": t["tutte.brute"] / n,
        "tutte.cells_total": counts["tutte.cells_total"] / n,
        "tutte.signatures_max": maxima["tutte.signatures_max"],
        "tutte.signatures_total": counts["tutte.signatures_total"] / n,
        "tutte.n_exponent": n_exponent,
        "tutte.width_slope": width_slope,
        "decomposition.validate_s": t["decomposition.validate"] / n,
        "decomposition.to_nice_s": t["decomposition.to_nice"] / n,
        "decomposition.realize_s": t["decomposition.realize"] / n,
        "decomposition.nodes": counts["decomposition.nodes"] / validated,
        "decomposition.width": maxima["decomposition.width"],
        "amalgam.semiflat_s": t["amalgam.semiflat"] / n,
        "amalgam.semiflat_calls": calls["amalgam.semiflat"] / n,
        "amalgam.glue_s": t["amalgam.glue"] / n,
        "files.load_s": t["files.load"] / n,
        "files.load_calls": calls["files.load"] / n,
        "files.bytes_in": counts["files.bytes_in"] / n,
        "files.dumps_s": t["files.dumps"] / n,
        "matroid.construct_s": tracer.layer_time["matroid"] / n,
        "matroid.max_elements": maxima["matroid.max_elements"],
        "kernels.rank_table_s": t["kernels.rank_table"] / n,
        "kernels.rank_table_cells": counts["kernels.rank_table_cells"] / n,
        "kernels.closure_table_s": t["kernels.closure_table"] / n,
        "kernels.whitney_s": t["kernels.whitney"] / n,
        "kernels.translate_masks_s": t["kernels.translate_masks"] / n,
        "branch.convert_s": t["branch.convert"] / n,
        "branch.width_out": maxima["branch.width_out"],
        "branch.glue_elements": counts["branch.glue_elements"] / n,
        "linalg.s": tracer.layer_time["linalg"] / n,
        "linalg.calls": sum(v for k, v in calls.items() if k.startswith("linalg.")) / n,
        "cli.self_s": tracer.self_time["cli.main"] / n,
        "error_rate": len(runner.failures) / (len(runner.samples) + len(runner.traced)),
        "trace.overhead_ratio": sum(s[0] for s in runner.traced) / untraced if untraced else 0.0,
        "host.calib_ms": statistics.median(calib),
    }


# The scaling curves the paper predicts: time against ground-set size at
# fixed width (linear in theory) and time against width.
CURVES = {"chain-tutte": ("n", 3), "convert-tutte": ("width", None)}


def curve_points(runner, pairs):
    """(x, time) pairs for this workload's curve from (time, instance) pairs."""
    if runner.workload not in CURVES:
        return []
    key, width = CURVES[runner.workload]
    return [(i.info[key], t) for t, i in pairs if width is None or i.info["width"] == width]


def curves(runner):
    points = {}
    scaled = host_scaled([s[0] for s in runner.samples], [s[3] for s in runner.samples])
    pairs = [(t, s[2]) for t, s in zip(scaled, runner.samples) if s[1]]
    for x, t in curve_points(runner, pairs):
        points.setdefault(x, []).append(t * 1000)
    if not points:
        return {}
    label = f"latency_ms_by_{CURVES[runner.workload][0]}"
    return {label: {str(x): statistics.median(v) for x, v in sorted(points.items())}}


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--limit", type=int, default=0, help="stop after this many instances (smoke test)"
    )
    args = ap.parse_args(argv)

    if not (SRC / "amwidth" / "__init__.py").is_file():
        sys.stderr.write(f"error: no amwidth package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import amwidth

    if Path(amwidth.__file__).resolve().parent != (SRC / "amwidth").resolve():
        sys.stderr.write(f"error: imported amwidth from {amwidth.__file__}, not {SRC}\n")
        return 2

    calib = calibrate()
    runner = Runner(args.workload, args.seed, args.seconds, args.limit)
    tracer = None
    try:
        setup_times = runner.setup()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            runner.solve(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    calib += calibrate()

    if args.trace:
        metrics, units = per_layer(runner, tracer, calib), PER_LAYER
    else:
        metrics, units = end_to_end(runner, setup_times), END_TO_END
    raw = {} if args.trace else end_to_end(runner, setup_times, scaled=False)
    result = {
        "correct": runner.wrong is None,
        "attempted": len(runner.samples) + len(runner.traced),
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(
        json.dumps(
            dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                 raw_metrics=raw, setup_samples_s=setup_times,
                 setup_probe_s=runner.setup_probes, host_calib_ms=calib,
                 curves=curves(runner), failures=runner.failures[:20], wrong=runner.wrong,
                 samples=[(i.key, lat, ok, pr) for lat, ok, i, pr in runner.samples]),
            indent=1,
        )
    )
    if tracer is not None:
        tracer.write(str(RESULTS / f"{tag}-trace.json"))

    for k in units:
        print(f"{k:28s} {metrics[k]:14.6g} {units[k]}")
    for k, v in raw.items():
        if k != "peak_rss_mb":
            print(f"{'unscaled ' + k:28s} {v:14.6g} {units[k]}")
    if not args.trace:
        print(f"{'host.calib_ms':28s} {statistics.median(calib):14.6g} ms")
    print(
        f"instances {len(runner.samples)}, failed {len(runner.failures)}, "
        f"traced {len(runner.traced)}"
    )
    for label, points in curves(runner).items():
        print(label, " ".join(f"{x}:{v:.1f}" for x, v in points.items()))
    for line in runner.failures[:5]:
        print("failed", line)
    if runner.wrong:
        print("WRONG ANSWER", runner.wrong)
    print(json.dumps(result))
    return 0 if runner.wrong is None else 1


if __name__ == "__main__":
    sys.exit(main())
