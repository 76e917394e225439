"""Standing byte check: every manifest of scripts/bytecheck.py, run
in-process at --jobs 1, must reproduce the digests in golden.json.

golden.json holds, per manifest, the exit code, a sha256 of every output
file, and a sha256 of run_info.json compared as bytecheck compares it
(parsed, without wall_time_s, with the run directory written as "<run>"),
plus the numpy and Python versions it was written with.  A different
numpy version fails the test rather than skipping it.

golden.json is regenerated, with ``PYTHONPATH=src python
tests/test_golden.py``, only by a change that declares an output change
and names the manifests whose digests moved.
"""

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

from ffp_lab import cli  # before numpy, so it loads with one BLAS thread

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _digests(bytecheck, manifest, rundir):
    """Exit code and output digests of one in-process CLI run."""
    rundir.mkdir()
    (rundir / "edges.txt").write_text(bytecheck.EDGES)
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    cwd = os.getcwd()
    os.chdir(rundir)            # edge files are named relative to the run
    try:
        code = cli.main([manifest["kind"], "--manifest", "manifest.json",
                         "--jobs", "1", "--out", "out"])
    finally:
        os.chdir(cwd)
    files = {name: hashlib.sha256(
                 data if isinstance(data, bytes)     # else run_info, parsed
                 else json.dumps(data, sort_keys=True).encode()).hexdigest()
             for name, data in bytecheck.outputs(rundir).items()}
    return {"exit": code, "files": files}


def digest_all(bytecheck, work: Path) -> dict:
    """Versions and digests of every manifest of the bytecheck module."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "manifests": {name: _digests(bytecheck, m, work / name)
                          for name, m in bytecheck.MANIFESTS.items()}}


def test_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bytecheck
    golden = json.loads(GOLDEN.read_text())
    now = digest_all(bytecheck, tmp_path)
    assert {name: run["exit"] for name, run in now["manifests"].items()} == {
        name: bytecheck.EXIT_CODES.get(name, 0) for name in bytecheck.MANIFESTS}
    assert now["numpy"] == golden["numpy"], (
        f"golden.json was written with numpy {golden['numpy']} (Python "
        f"{golden['python']}); this is numpy {now['numpy']} (Python "
        f"{now['python']})")
    differ = sorted(name for name in golden["manifests"].keys()
                    | now["manifests"].keys()
                    if golden["manifests"].get(name)
                    != now["manifests"].get(name))
    assert not differ, f"outputs differ from golden.json: {differ}"


if __name__ == "__main__":
    import tempfile
    sys.path.insert(0, str(SCRIPTS))
    import bytecheck
    with tempfile.TemporaryDirectory() as work:
        GOLDEN.write_text(json.dumps(digest_all(bytecheck, Path(work)),
                                     indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
