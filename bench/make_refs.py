"""Regenerate the reference data in `ref/` from the program in `src/`.

The committed files were written by the seed program's default (direct)
exact solve.  Rerun this only to audit them, never to make a failing
check pass: a solver change must be judged against the old reference.

    python3 bench/make_refs.py [--out DIR]
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from ffp_lab import cli  # noqa: E402

TORUS_3X3 = {"d": 2, "k": 1, "mode": "torus"}
TARGETS = {
    "exact_3x3_lam1": dict(TORUS_3X3, **{"lambda": 1.0}),
    "exact_3x3_lam1.05": dict(TORUS_3X3, **{"lambda": 1.05}),
    "exact_3x3_lam1.25": dict(TORUS_3X3, **{"lambda": 1.25}),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "ref"))
    out = Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        targets = dict(TARGETS)
        for name, edges in workloads.GRAPHS.items():
            path = tmp / f"{name}.edges"
            path.write_text("".join(f"{i} {j}\n" for i, j in edges))
            targets[f"exact_{name}"] = {"lambda": 1.0, "edge_file": str(path)}
        for name, fields in targets.items():
            manifest = tmp / f"{name}.json"
            manifest.write_text(json.dumps(dict(fields, kind="exact")))
            code = cli.main(["exact", "--manifest", str(manifest),
                             "--out", str(tmp / name), "--jobs", "1"])
            if code != 0:
                sys.exit(f"exact solve for {name} failed with exit code {code}")
            shutil.copy(tmp / name / "exact.csv", out / f"{name}.csv")
            print(f"wrote {out / name}.csv")


if __name__ == "__main__":
    main()
