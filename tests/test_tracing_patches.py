"""The benchmark tracer's patch list names only attributes the package has.

``benchmarks/tracing.py`` wraps package callables by name; a refactor that
renames or deletes one breaks the traced benchmark run.  The module is
loaded from its file, not through ``sys.path``, so that the benchmark
directory's modules stay off the tests' import path.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_restores_every_patched_name():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, raw in saved:
            assert _current(owner, attr) is not raw, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, raw in saved:
        assert _current(owner, attr) is raw, (owner, attr)
