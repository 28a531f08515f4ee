"""The bundled corpus is exactly what scripts/build_corpus.py writes, and
the CLI's outputs on it are pinned by one digest."""

import subprocess
import sys

from conftest import CORPUS, ROOT


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_corpus_rebuilds_byte_identical(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_corpus.py"), str(tmp_path)],
        check=True,
        capture_output=True,
    )
    built = _files(tmp_path)
    bundled = _files(CORPUS)
    assert sorted(built) == sorted(bundled)
    changed = [str(name) for name in sorted(built) if built[name] != bundled[name]]
    assert not changed, changed


# scripts/corpus_digest.py over this checkout; a change that alters a CLI
# output on the corpus on purpose updates the pin and says so
CORPUS_DIGEST = "363 runs sha256 f9a7b562ace65bd232efb74df45c54a28d29dfe9695036fa28061fa0c0c99c67"


def test_corpus_outputs_match_the_pinned_digest():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "corpus_digest.py"), str(ROOT)],
        check=True,
        capture_output=True,
        text=True,
    )
    assert done.stdout.strip() == CORPUS_DIGEST
