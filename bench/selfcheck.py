"""The benchmark's own tests: every output check passes on correct
output and fails on a planted fault, and the tracer's arithmetic holds.

Tiny sizes only; no workload is run.  The file name keeps it out of the
repository's default pytest collection; run it explicitly:

    python3 -m pytest -q bench/selfcheck.py
"""

import csv
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ffp_lab import cli  # noqa: E402


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def run_of(workload, label):
    return next(r for r in workloads.build(workload, 0) if r.label == label)


# ---------------------------------------------------------------------------
# chain

def write_measure(out, dist):
    write_csv(out / "measure.csv", ["pattern", "weight", "probability", "stderr"],
              [(s, p, p, 0.0) for s, p in sorted(dist.items())])


def test_stationary_check_passes_on_the_exact_marginal(tmp_path):
    write_measure(tmp_path, checks.ref_distribution("exact_3x3_lam1"))
    assert checks.check_stationary(run_of("chain", "stationary"), tmp_path) == []


@pytest.mark.parametrize("ref, planted", [
    ("exact_3x3_lam1.05", "mean occupation"),     # small bias in lambda
    ("exact_3x3_lam1.25", "TV to the exact"),     # large bias
])
def test_stationary_check_fails_against_another_lambda(tmp_path, ref, planted):
    run = run_of("chain", "stationary")
    write_measure(tmp_path, checks.ref_distribution("exact_3x3_lam1"))
    problems = checks.check_stationary(run, tmp_path, ref=ref)
    assert any(planted in p for p in problems)
    write_measure(tmp_path, checks.ref_distribution(ref))
    assert any(planted in p for p in checks.check_stationary(run, tmp_path))


@pytest.mark.parametrize("mode, ok", [("torus", True), ("window", False)])
def test_simulate_check_catches_dropped_wrap_edges(tmp_path, mode, ok):
    run = run_of("chain", "simulate")
    manifest = dict(run.manifest, mode=mode, horizon=40.0, burn_in=4.0, seed=3)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(path), "--out", str(out)]) == 0
    assert (checks.check_simulate(run, out) == []) == ok


# ---------------------------------------------------------------------------
# exact

@pytest.fixture
def exact_out(tmp_path):
    shutil.copy(checks.REF_DIR / "exact_grid2x5.csv", tmp_path / "exact.csv")
    return tmp_path, run_of("exact", "grid2x5")


def rewrite(out, change):
    dist = checks.read_distribution(out / "exact.csv", "state")
    change(dist)
    write_csv(out / "exact.csv", ["state", "probability"], dist.items())


def test_exact_check_passes_on_reference(exact_out):
    out, run = exact_out
    assert checks.check_exact(run, out) == []


def shift_mass(dist):
    a, b = sorted(dist)[:2]
    dist[a] += 1e-6
    dist[b] -= 1e-6


def make_negative(dist):
    a, b = sorted(dist)[:2]
    dist[b] += dist[a] + 1e-3
    dist[a] = -1e-3


def scale(dist):
    for s in dist:
        dist[s] *= 1.001


@pytest.mark.parametrize("fault", [shift_mass, make_negative, scale])
def test_exact_check_fails_on_perturbed_pi(exact_out, fault):
    out, run = exact_out
    rewrite(out, fault)
    assert checks.check_exact(run, out)


# ---------------------------------------------------------------------------
# replicas

def write_records(out, rows):
    write_csv(out / "records.csv",
              ["replica", "initial_J_equal", "agree_on_I", "any_I_blurred",
               "in_A_window", "in_A_torus"], rows)
    write_csv(out / "lemma1.csv", ["lhs"], [(0.0,)])


def test_couple_check(tmp_path):
    run = run_of("replicas", "couple")
    n = run.manifest["replicas"]
    rng = random.Random(1)
    rows = []
    for i in range(n):
        equal, blurred = rng.random() < 0.7, rng.random() < 0.2
        agree = 1 if equal and not blurred else int(rng.random() < 0.5)
        rows.append((i, int(equal), agree, int(blurred), 0, 0))
    write_records(tmp_path, rows)
    assert checks.check_couple(run, tmp_path) == []
    rows[5] = (5, 1, 0, 0, 0, 0)        # equal on J, unmarked, yet disagrees
    write_records(tmp_path, rows)
    assert any("equal J" in p for p in checks.check_couple(run, tmp_path))


def write_tail(out, run, exceed):
    reps = run.manifest["replicas"]
    write_csv(out / "tail.csv", ["m", "exceed", "replicas", "p_hat", "ci_low",
                                 "ci_high"],
              [(m, e, reps, e / reps, 0, 1)
               for m, e in zip(run.manifest["m_list"], exceed)])
    write_csv(out / "ccsb.csv", ["query"], [(i,) for i in range(len(exceed))])


def test_ccsb_check(tmp_path):
    run = run_of("replicas", "ccsb")
    write_tail(tmp_path, run, [9000, 5000, 2000, 100])
    assert checks.check_ccsb(run, tmp_path) == []
    write_tail(tmp_path, run, [9000, 5000, 5001, 100])
    assert any("increase" in p for p in checks.check_ccsb(run, tmp_path))


def test_blur_decay_check(tmp_path):
    run = run_of("replicas", "blur-decay")
    m = run.manifest
    header = ["L", "t", "flagged", "replicas", "p_hat", "ci_low", "ci_high"]
    rows = [(L, repr(t), 10, m["replicas"], 0.005, 0, 1)
            for L in m["L_list"] for t in m["t_list"]]
    write_csv(tmp_path / "blur_decay.csv", header, rows)
    assert checks.check_blur_decay(run, tmp_path) == []
    write_csv(tmp_path / "blur_decay.csv", header, rows[:-1])
    assert checks.check_blur_decay(run, tmp_path)


def test_missing_output_is_a_failure(tmp_path):
    assert checks.check_run(run_of("exact", "ring12"), tmp_path)


# ---------------------------------------------------------------------------
# workloads and tracing

def test_workload_inputs_follow_the_seed(tmp_path):
    for w in ("chain", "replicas", "exact", "serial"):
        a, b = workloads.build(w, 5), workloads.build(w, 5)
        assert [(r.manifest, r.files) for r in a] == [(r.manifest, r.files) for r in b]
        assert ([(r.manifest, r.files) for r in a]
                != [(r.manifest, r.files) for r in workloads.build(w, 6)])
    for run in workloads.build("exact", 7):
        (path,) = workloads.write_inputs([run], tmp_path)
        topo = cli.read_edge_list(json.loads(path.read_text())["edge_file"])
        edges = {(i, j) for i, nbs in enumerate(topo.adjacency) for j in nbs if i < j}
        assert edges == set(workloads.GRAPHS[run.label])


def test_percentile_needs_ten_samples_beyond():
    assert spans.percentile(list(range(19)), 0.5) is None
    assert spans.percentile(list(range(20)), 0.5) == 9
    assert spans.percentile(list(range(999)), 0.99) is None
    assert spans.percentile(list(range(1000)), 0.99) == 989


def test_self_times_and_other_sum_to_the_wall(tmp_path):
    import ffp_lab
    manifest = {"kind": "couple", "lambda": 1.0, "d": 2, "K": 3, "k": 2,
                "r_I": 0, "L": 1, "t": 0.05, "replicas": 30,
                "bank_snapshots": 20, "bank_burn_in": 2.0}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    originals = (ffp_lab.cli.main, ffp_lab.engine.ForestFireEngine.run_until)
    tracer = spans.Tracer()
    tracer.install(ffp_lab, time.perf_counter)
    try:
        tracer.current_run = 0
        start = time.perf_counter()
        code = ffp_lab.cli.main(["couple", "--manifest", str(path),
                                 "--out", str(tmp_path / "out")])
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert code == 0
    assert (ffp_lab.cli.main, ffp_lab.engine.ForestFireEngine.run_until) == originals
    m = spans.layer_metrics(tracer, {0: "couple"}, wall, wall, 0.0, {})
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["trace.other_s"] == pytest.approx(wall, rel=1e-9)
    assert m["coupling.run_one_calls"] == 30
    assert m["measure.maximal_coupling_sample_calls"] == 30
    assert m["engine.engines"] == 2 + 2 * 30       # two banks, two per replica
    assert m["sampling.bank_attempted"] > 0
    assert m["coupling.run_one_us.p50"] > 0
    assert m["coupling.run_one_us.p99"] is None    # 30 samples: too few
    assert m["measure.exact_stationary_s.ring12"] is None


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    got = subprocess.run([sys.executable, "bench/run.py", "--workload", "chain",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert got.returncode != 0
    assert got.stdout == ""
