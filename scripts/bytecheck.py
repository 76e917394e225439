"""Byte check of the CLI outputs of two source trees.

Usage:
    python scripts/bytecheck.py PARENT_ROOT [CHANGE_ROOT]

Runs a fixed set of manifests through ``python -m ffp_lab.cli`` in fresh
processes, from each root's ``src/`` (CHANGE_ROOT defaults to the tree
holding this script), at --jobs 1 and --jobs 2.  Every output file must
be byte-identical between the roots, except run_info.json, which is
compared parsed, without wall_time_s and with the run directory written
as "<run>".  Exit codes and stderr must match too, and the change's CSVs
must not depend on --jobs.  A run still going after TIMEOUT_S seconds
is stopped and counted as a difference, on either root.  Prints the
counts, names each differing file, and exits 1 on any difference.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

JOBS = (1, 2)
TIMEOUT_S = 120
EDGES = "".join(f"{i} {(i + 1) % 8}\n" for i in range(8)) + "0 4\n"
BLUR_T = 0.5 * -math.log1p(-1.0 / 24.0)
SMALL_BANK = {"kind": "stationary", "snapshots": 30, "spacing": 0.5,
              "burn_in": 5.0}

# name -> manifest; a manifest naming "edges.txt" reads EDGES from the
# run directory.
MANIFESTS = {
    # the four manifests of acceptance criterion 13
    "exact-d1": {"kind": "exact", "lambda": 1.0, "d": 1, "k": 1,
                 "mode": "torus"},
    "stationary": {"kind": "stationary", "lambda": 1.0, "d": 2, "k": 1,
                   "mode": "torus", "window": [[0, 0]], "horizon": 30.0,
                   "burn_in": 3.0, "seed": 13},
    "blur-decay": {"kind": "blur-decay", "lambda": 1.0, "d": 2,
                   "L_list": [1, 2], "t_list": [0.03], "replicas": 60,
                   "init": {"kind": "bernoulli", "p": 0.3}, "seed": 13},
    "couple": {"kind": "couple", "lambda": 1.0, "d": 2, "K": 4, "k": 2,
               "L": 1, "t": 0.02, "replicas": 40, "seed": 13,
               "bank_snapshots": 80, "bank_burn_in": 10.0},
    # trajectory dumps: torus, window mode, and d = 1 from a stationary init
    "simulate-torus": {"kind": "simulate", "lambda": 0.3, "d": 2, "k": 3,
                       "horizon": 12.0, "burn_in": 2.0, "seed": 7,
                       "init": {"kind": "bernoulli", "p": 0.4},
                       "dump_trajectory": True},
    "simulate-window": {"kind": "simulate", "lambda": 1.0, "d": 2, "k": 2,
                        "mode": "window", "horizon": 10.0, "seed": 3,
                        "dump_trajectory": True},
    "simulate-d1": {"kind": "simulate", "lambda": 0.5, "d": 1, "k": 12,
                    "horizon": 8.0, "burn_in": 1.0, "seed": 5,
                    "init": SMALL_BANK, "dump_trajectory": True},
    "stationary-edges": {"kind": "stationary", "lambda": 0.7,
                         "edge_file": "edges.txt", "window": [[0], [4]],
                         "horizon": 120.0, "seed": 2},
    "exact-edges": {"kind": "exact", "lambda": 0.8, "edge_file": "edges.txt"},
    "exact-grid": {"kind": "exact", "lambda": 1.3, "d": 2, "k": 1,
                   "mode": "window"},
    # 15 sites, 148 GMRES iterations: the only solve here that restarts
    "exact-window15": {"kind": "exact", "lambda": 0.3, "d": 1, "k": 7,
                       "mode": "window"},
    # unsorted L_list, an epsilon spec and a stationary init
    "blur-decay-eps": {"kind": "blur-decay", "lambda": 1.0, "d": 2,
                       "L_list": [2, 1], "epsilon": {"m": 1},
                       "replicas": 30, "init": SMALL_BANK, "seed": 4},
    "blur-decay-none": {"kind": "blur-decay", "lambda": 1.0, "d": 2,
                        "L_list": [1], "t_list": [BLUR_T], "replicas": 0},
    "couple-eps": {"kind": "couple", "lambda": 0.3, "d": 2, "K": 4, "k": 2,
                   "L": 1, "epsilon": {"m": 1}, "replicas": 30, "seed": 8,
                   "bank_snapshots": 40, "bank_burn_in": 5.0},
    "ccsb-replica": {"kind": "ccsb", "lambda": 1.0, "d": 2, "k": 2,
                     "x": [0, 0], "B": [[1, 0]], "D": [[0, 1], [2, 2]],
                     "m_list": [0, 2, 5], "delta": 0.5, "replicas": 200,
                     "seed": 6, "sampler": {"kind": "replica", "s": 0.5,
                                            "init": SMALL_BANK}},
    "ccsb-stationary": {"kind": "ccsb", "lambda": 0.6, "d": 1, "k": 6,
                        "x": [0], "m_list": [1, 3], "replicas": 100,
                        "seed": 9, "sampler": SMALL_BANK},
    "mu-scan": {"kind": "mu-scan", "lambda": 1.0, "d": 2, "window": [[0, 0]],
                "k_list": [1, 2], "horizon": 20.0, "seed": 11},
    # long chains with observers, crossing several 4,096-draw chunks:
    # about 12.7 k attempts, each dumped, and about 18 k attempts
    "simulate-chunks": {"kind": "simulate", "lambda": 0.3, "d": 2, "k": 3,
                        "horizon": 200.0, "burn_in": 5.0, "seed": 17,
                        "dump_trajectory": True},
    "stationary-chunks": {"kind": "stationary", "lambda": 1.0, "d": 2,
                          "k": 1, "mode": "torus",
                          "window": [[0, 0], [1, 0]], "horizon": 1000.0,
                          "burn_in": 10.0, "seed": 19},
    # wide batch tables: the full 3 x 3 window (up to 512 codes, sparse)
    # over a short horizon, and site densities in a single batch
    "stationary-wide": {"kind": "stationary", "lambda": 1.0, "d": 2, "k": 1,
                        "mode": "torus", "window": [[x, y] for x in (-1, 0, 1)
                                                    for y in (-1, 0, 1)],
                        "horizon": 60.0, "burn_in": 2.0, "seed": 23},
    "simulate-one-batch": {"kind": "simulate", "lambda": 0.5, "d": 2, "k": 2,
                           "horizon": 20.0, "burn_in": 2.0, "n_batches": 1,
                           "seed": 29, "init": {"kind": "bernoulli",
                                                "p": 0.5}},
    # refused: a validation error (exit 2), a capacity error (exit 3),
    # a default burn-in, max(10 x 9 sites, 8), not below the horizon (exit 2)
    # and a window naming a site twice (exit 2)
    "refused-invalid": {"kind": "simulate", "lambda": -1.0, "d": 2, "k": 2},
    "refused-capacity": {"kind": "simulate", "lambda": 1.0, "d": 2,
                         "k": 10**4, "horizon": 1.0},
    "refused-burn-in": {"kind": "stationary", "lambda": 1.0, "d": 2, "k": 1,
                        "window": [[0, 0]], "horizon": 40.0, "burn_in": None},
    "refused-duplicate": {"kind": "stationary", "lambda": 1.0, "d": 1,
                          "k": 1, "window": [[0], [0]], "horizon": 5.0,
                          "burn_in": 1.0},
}
EXIT_CODES = {"refused-invalid": 2, "refused-capacity": 3,
              "refused-burn-in": 2, "refused-duplicate": 2}   # others: 0


def run(root, name, manifest, jobs, work):
    """One CLI run in a fresh directory; (exit code, stderr, run dir),
    with exit code None if the run timed out."""
    rundir = work / f"{name}.j{jobs}"
    rundir.mkdir()
    (rundir / "edges.txt").write_text(EDGES)
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    env = {**os.environ, "PYTHONPATH": str(Path(root, "src").resolve())}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ffp_lab.cli", manifest["kind"],
             "--manifest", "manifest.json", "--jobs", str(jobs), "--out",
             "out"], cwd=rundir, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", rundir
    return proc.returncode, proc.stderr.replace(str(rundir), "<run>"), rundir


def outputs(rundir):
    """Output files of a run, name -> comparable content."""
    out = rundir / "out"
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if path.name == "run_info.json":
            info = json.loads(path.read_text().replace(str(rundir), "<run>"))
            info.pop("wall_time_s", None)
            files[path.name] = info
        else:
            files[path.name] = path.read_bytes()
    return files


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[1])
    change = Path(argv[2]) if len(argv) == 3 else Path(__file__).parents[1]
    work = Path(tempfile.mkdtemp(prefix="bytecheck-"))
    (work / "parent").mkdir()
    (work / "change").mkdir()
    runs = files = 0
    diffs = []
    try:
        for name, manifest in MANIFESTS.items():
            csvs = []
            for jobs in JOBS:
                pa = run(parent, name, manifest, jobs, work / "parent")
                pb = run(change, name, manifest, jobs, work / "change")
                runs += 2
                where = f"{name} --jobs {jobs}"
                for root, p in (("parent", pa), ("change", pb)):
                    if p[0] is None:
                        diffs.append(f"{where}: {root} timed out")
                if pa[:2] != pb[:2]:
                    diffs.append(f"{where}: exit code or stderr")
                if pb[0] != EXIT_CODES.get(name, 0):
                    diffs.append(f"{where}: exit code {pb[0]}")
                fa, fb = outputs(pa[2]), outputs(pb[2])
                files += len(fb)
                for fname in sorted(fa.keys() | fb.keys()):
                    if fa.get(fname) != fb.get(fname):
                        diffs.append(f"{where}: {fname}")
                csvs.append({k: v for k, v in fb.items() if k.endswith(".csv")})
            if csvs[0] != csvs[1]:
                diffs.append(f"{name}: change's CSVs differ across --jobs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"manifests: {len(MANIFESTS)}  runs: {runs}  "
          f"change files compared: {files}  differing: {len(diffs)}")
    for line in diffs:
        print(f"  differs: {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
