"""Output checks for every CLI run of the benchmark.

Each check reads only the CSVs a run wrote and the reference data in
`ref/`, which was generated once from the seed program (see
`make_refs.py`).  None depends on the random stream: the statistical
ones hold for any seed with a margin of about five standard deviations
at the workload sizes in `workloads.py`, so a later change to how events
are sampled cannot trip them by chance, and a solver change cannot move
its own reference.

`check_run` returns a list of problems; an empty list means the run's
outputs are correct.
"""

import csv
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"

# simulate: on the torus every site is equivalent, so the mean density of
# the outer face (the sites next to the wrap edges) matches the mean of
# the inner half-box.  Across seeds the difference has sd ~0.003 at the
# workload size; dropping the wrap edges (window mode) moves it to ~0.077.
SIM_FACE_TOL = 0.025

# stationary: plug-in TV over the 512 patterns of the 3x3 torus is
# 0.024 +- 0.001 at 3.6e5 attempted events and falls as 1/sqrt(events)
# (it is all noise bias); the exact marginal at lambda = 1.25 sits at
# TV 0.055.
STAT_TV_TOL = 0.035
# ... and the mean occupation differs from the exact 0.24361 by
# sd ~0.0005, while the exact value at lambda = 1.05 is 0.0052 lower.
STAT_DENSITY_TOL = 0.0026

# exact: the reference vector comes from the seed program's direct solve.
EXACT_TOL = 1e-8
SUM_TOL = 1e-9


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_distribution(path, key, value="probability"):
    return {row[key]: float(row[value]) for row in read_rows(path)}


def ref_distribution(name):
    return read_distribution(REF_DIR / f"{name}.csv", "state")


def total_variation(p, q):
    return 0.5 * sum(abs(p.get(s, 0.0) - q.get(s, 0.0)) for s in set(p) | set(q))


def mean_occupation(dist):
    """Expected fraction of occupied sites of a bitstring-keyed law."""
    return sum(prob * s.count("1") / len(s) for s, prob in dist.items())


def check_probability_vector(dist):
    problems = []
    if any(not math.isfinite(p) or p < 0 for p in dist.values()):
        problems.append("negative or non-finite probability")
    total = sum(dist.values())
    if abs(total - 1.0) > SUM_TOL:
        problems.append(f"probabilities sum to {total!r}, not 1")
    return problems


def check_simulate(run, out):
    rows = read_rows(out / "density.csv")
    m = run.manifest
    k = m["k"]
    if len(rows) != (2 * k + 1) ** m["d"]:
        return [f"density.csv has {len(rows)} rows"]
    outer, inner = [], []
    for row in rows:
        dens = float(row["density"])
        if not 0.0 <= dens <= 1.0:
            return [f"density {dens!r} outside [0, 1] at {row['coords']}"]
        radius = max(abs(int(c)) for c in row["coords"].split())
        if radius == k:
            outer.append(dens)
        elif radius <= k // 2:
            inner.append(dens)
    gap = sum(outer) / len(outer) - sum(inner) / len(inner)
    if abs(gap) > SIM_FACE_TOL:
        return [f"outer-face minus inner density {gap:.4f} exceeds "
                f"{SIM_FACE_TOL} on a torus"]
    return []


def check_stationary(run, out, ref="exact_3x3_lam1"):
    dist = read_distribution(out / "measure.csv", "pattern")
    exact = ref_distribution(ref)
    problems = check_probability_vector(dist)
    tv = total_variation(dist, exact)
    if tv > STAT_TV_TOL:
        problems.append(f"TV to the exact marginal {tv:.4f} exceeds {STAT_TV_TOL}")
    gap = mean_occupation(dist) - mean_occupation(exact)
    if abs(gap) > STAT_DENSITY_TOL:
        problems.append(f"mean occupation off the exact value by {gap:.5f} "
                        f"(tolerance {STAT_DENSITY_TOL})")
    return problems


def check_exact(run, out):
    dist = read_distribution(out / "exact.csv", "state")
    ref = ref_distribution(f"exact_{run.label}")
    problems = check_probability_vector(dist)
    if set(dist) != set(ref):
        return problems + ["state set differs from the reference"]
    worst = max(abs(dist[s] - ref[s]) for s in ref)
    if worst > EXACT_TOL:
        problems.append(f"max |pi - pi_ref| = {worst:.3g} exceeds {EXACT_TOL}")
    return problems


def check_blur_decay(run, out):
    m = run.manifest
    rows = read_rows(out / "blur_decay.csv")
    got = {(int(r["L"]), float(r["t"])) for r in rows}
    want = {(L, float(t)) for L in m["L_list"] for t in m["t_list"]}
    problems = []
    if got != want or len(rows) != len(want):
        problems.append(f"(L, t) rows {sorted(got)} != {sorted(want)}")
    for r in rows:
        flagged, reps = int(r["flagged"]), int(r["replicas"])
        if reps != m["replicas"] or not 0 <= flagged <= reps:
            problems.append(f"bad counts in row L={r['L']}")
    return problems


def check_couple(run, out):
    rows = read_rows(out / "records.csv")
    problems = []
    if len(rows) != run.manifest["replicas"]:
        problems.append(f"records.csv has {len(rows)} rows")
    # Equal J-patterns and no mark on I force agreement on I, replica by
    # replica: this is a property of the coupling, not a statistic.
    bad = sum(r["initial_J_equal"] == "1" and r["any_I_blurred"] == "0"
              and r["agree_on_I"] == "0" for r in rows)
    if bad:
        problems.append(f"{bad} replicas with equal J, no blur and I disagreeing")
    if len(read_rows(out / "lemma1.csv")) != 1:
        problems.append("lemma1.csv must hold one report row")
    return problems


def check_ccsb(run, out):
    m = run.manifest
    tail = read_rows(out / "tail.csv")
    problems = []
    if [int(r["m"]) for r in tail] != sorted(m["m_list"]):
        problems.append("tail rows do not cover m_list in order")
    exceed = [int(r["exceed"]) for r in tail]
    if any(b > a for a, b in zip(exceed, exceed[1:])):
        problems.append(f"tail counts {exceed} increase with m")
    if any(int(r["replicas"]) != m["replicas"] for r in tail):
        problems.append("tail replicas differ from the manifest")
    if len(read_rows(out / "ccsb.csv")) != len(m["m_list"]):
        problems.append("ccsb.csv needs one row per m")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "stationary": check_stationary,
    "exact": check_exact,
    "blur-decay": check_blur_decay,
    "couple": check_couple,
    "ccsb": check_ccsb,
}


def check_run(run, out: Path):
    """Problems found in a run's outputs ([] when correct)."""
    try:
        return CHECKS[run.kind](run, Path(out))
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
