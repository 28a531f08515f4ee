"""The bundled corpus is exactly what scripts/build_corpus.py writes."""

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
