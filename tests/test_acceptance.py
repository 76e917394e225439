"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they happen (plain ``pytest`` captures them and shows them only on
failure).  Statistical criteria use fixed seeds; tolerances are stated
inline and are never loosened to make a seed pass.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ffp_lab import *
from ffp_lab.blur import blur_decay_experiment, epsilon_for
from ffp_lab.cli import run_experiment, validate_manifest
from ffp_lab.coupling import CoupledExperiment, CoupleParams
from ffp_lab.measure import SiteDensityObserver
from oracles import (LabelledEngine, exact_cylinder, exact_marginal,
                     lemma1_default_scan, measure_from_probabilities,
                     stationarity_check, translation_invariance_defect)


# fixed seeds for the statistical criteria (one per independent chain)
CRITERION_3_SEEDS = {0.5: 206, 1.0: 222, 2.0: 233}
CRITERION_5_SEED = 46


def verdict(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_single_site_oracle():
    # 1-site box, lambda=1, 1e5 events: occupancy 0.5 within 3*SE, SE<=0.01
    start = time.time()
    results = []
    for mode in (TORUS, WINDOW):
        topo = build_topology(2, 0, mode)
        T = 1e5 / (1 * 2.0)  # 1e5 expected events at rate N*(1+lambda)
        eng = ForestFireEngine(topo, 1.0, make_rng(1, 0))
        m = estimate_marginal(eng, [(0, 0)], 0.02 * T, T)
        p, se = m.probability(1), m.stderr(1)
        results.append((mode, p, se))
    elapsed = time.time() - start
    ok = elapsed < 5.0 and all(abs(p - 0.5) < 3 * se and se <= 0.01
                               for _, p, se in results)
    detail = ", ".join(f"{mode}: p={p:.4f} se={se:.4f}"
                       for mode, p, se in results)
    verdict(1, ok, f"single-site occupancy vs 1/(1+lambda) [{detail}, "
                   f"{elapsed:.1f}s]")


def test_criterion_02_pair_graph_oracle():
    topo = explicit_topology(2, [(0, 1)])
    ex = exact_stationary(topo, 1.0)
    exact_ok = (np.allclose(ex.probs, [0.4, 0.2, 0.2, 0.2], atol=1e-12)
                and ex.balance_residual <= 1e-10)
    eng = ForestFireEngine(topo, 1.0, make_rng(2, 0))
    m = estimate_marginal(eng, [(0,), (1,)], 200.0, 40000.0)
    marg = exact_marginal(ex, [(0,), (1,)])
    mc_ok = all(abs(m.probability(c) - p) < 3 * m.stderr(c)
                for c, p in marg.items())
    verdict(2, exact_ok and mc_ok,
            f"pair-graph exact {tuple(round(float(p), 3) for p in ex.probs)} "
            f"residual {ex.balance_residual:.1e}, MC within 3*SE: {mc_ok}")


def test_criterion_03_exact_vs_mc_torus():
    # every 9-site pattern on the 3x3 torus within 3*SE of the exact value
    events = {0.5: 1.5e6, 1.0: 1.5e6, 2.0: 4.0e6}
    topo = build_topology(2, 1, TORUS)
    win = topo.coords
    start = time.time()
    fails = []
    for lam, n_ev in events.items():
        ex = exact_stationary(topo, lam)
        marg = exact_marginal(ex, win)
        T = n_ev / (9 * (1 + lam))
        eng = ForestFireEngine(topo, lam, make_rng(CRITERION_3_SEEDS[lam], 0))
        m = estimate_marginal(eng, win, 0.02 * T, T, n_batches=100)
        fails += [(lam, c) for c, p in marg.items()
                  if abs(m.probability(c) - p) > 3 * m.stderr(c)]
    elapsed = time.time() - start
    ok = not fails and elapsed < 120.0
    verdict(3, ok, f"3x3 torus, 3 lambdas x 512 patterns, "
                   f"{len(fails)} outside 3*SE, {elapsed:.0f}s")


def test_criterion_04_cluster_index_oracle():
    # flooded clusters vs BFS recomputation after every event; each run
    # ends on the clock of the 10,000th draw of its stream
    class Check:
        mismatches = 0

        def on_event(self, eng, changed):
            topo, occ, seen = eng.topology, eng.occ, set()
            for i in range(topo.n_sites):
                if i in seen or not occ[i]:
                    if not occ[i] and eng.cluster_members(i):
                        self.mismatches += 1
                    continue
                ref = cluster_of(occ, topo, i)
                seen |= ref
                if frozenset(eng.cluster_members(i)) != ref:
                    self.mismatches += 1

    check = Check()
    events_checked = 0
    for k in (2, 3):
        topo = build_topology(2, k, TORUS)
        for lam in (0.3, 1.0, 3.0):
            draws = LabelledEngine(topo, lam, make_rng(4, k))
            for _ in range(10_000):
                draws.next_event()
            eng = ForestFireEngine(topo, lam, make_rng(4, k))
            eng.run_until(draws.clock, observers=(check,))
            assert sum(eng.counts.values()) == 10_000
            events_checked += 10_000
    mismatches = check.mismatches
    verdict(4, mismatches == 0,
            f"cluster index vs BFS over {events_checked} events, "
            f"{mismatches} mismatches")


def test_criterion_05_translation_invariance():
    # exact part: k=1 torus stationary vector invariant to 1e-10
    ex = exact_stationary(build_topology(2, 1, TORUS), 1.0)
    defect = translation_invariance_defect(ex)
    # MC part: 25 site densities on the k=2 torus pairwise within 3*SE
    topo = build_topology(2, 2, TORUS)
    eng = ForestFireEngine(topo, 1.0, make_rng(CRITERION_5_SEED, 0))
    eng.run_until(200.0)
    obs = SiteDensityObserver(eng, 200.0, 30200.0, 40)
    eng.run_until(30200.0, observers=(obs,))
    dens, se = obs.densities()
    worst = max(abs(dens[i] - dens[j]) / (3 * math.sqrt(se[i]**2 + se[j]**2))
                for i, j in itertools.combinations(range(25), 2))
    ok = defect < 1e-10 and worst < 1.0
    verdict(5, ok, f"exact defect {defect:.1e}, worst MC pair at "
                   f"{worst:.2f} of 3*pooled SE")


def test_criterion_06_stationarity():
    topo = build_topology(2, 1, TORUS)
    ex = exact_stationary(topo, 1.0)
    event = CylinderEvent.site_occupied((0, 0))
    p_exact = exact_cylinder(ex, event)
    ok = True
    details = []
    for t in (0.5, 1.0, 2.0):
        rep = stationarity_check(topo, 1.0, event, t, 2000, seed=6)
        se_lhs = math.sqrt(rep.lhs * (1 - rep.lhs) / rep.replicas)
        se_rhs = math.sqrt(rep.rhs * (1 - rep.rhs) / rep.replicas)
        pair_ok = (abs(rep.lhs - rep.rhs) < 3 * rep.se
                   and abs(rep.lhs - p_exact) < 3 * se_lhs
                   and abs(rep.rhs - p_exact) < 3 * se_rhs)
        ok = ok and pair_ok
        details.append(f"t={t}: {rep.lhs:.3f}/{rep.rhs:.3f}")
    verdict(6, ok, f"invariance of P(origin occupied), exact {p_exact:.3f} "
                   f"[{', '.join(details)}]")


def test_criterion_07_blur_domination():
    t = 0.5 * epsilon_for(1, 6)
    exp = CoupledExperiment(CoupleParams(2, 1.0, 6, 3, 0, 1, t, 7,
                                         bank_snapshots=800))
    records = exp.run_many(1000)
    violations = [r for r in records
                  if r.initial_J_equal and not r.any_I_blurred
                  and not r.agree_on_I]
    verdict(7, len(records) == 1000 and not violations,
            f"1000 coupled realizations, {len(violations)} domination "
            f"violations (zero tolerated)")


def test_criterion_08_decay_trend():
    t = 0.5 * epsilon_for(1, 6)
    rows = blur_decay_experiment(
        2, 1.0, (0, 0), 0, [1, 2, 3, 4], [t], 2000,
        {"kind": "stationary", "snapshots": 400, "spacing": 1.0,
         "burn_in": 20.0}, seed=8)
    by_L = {r.L: r for r in rows}
    monotone = all(by_L[a].ci_low <= by_L[b].ci_high
                   for a, b in ((2, 1), (3, 2), (4, 3)))
    separated = by_L[4].ci_high < by_L[1].ci_low
    phats = [f"L={L}: {by_L[L].p_hat:.3f}" for L in (1, 2, 3, 4)]
    verdict(8, monotone and separated,
            f"marking probability falls with margin [{', '.join(phats)}], "
            f"CI separation L=4 vs L=1: {separated}")


def test_criterion_09_coupling_inequality():
    reports = lemma1_default_scan(seed=9, replicas=500)
    bad = [r for r in reports if r.verdict != "holds"]
    detail = ", ".join(f"k={r.params.k},L={r.params.L}: lhs={r.lhs:.3f} "
                       f"rhs={r.blur_term + r.tv_term:.3f}"
                       for r in reports)
    verdict(9, reports and not bad,
            f"three-term bound in {len(reports)} geometries [{detail}]")


def test_criterion_10_maximal_coupling():
    rng = make_rng(10)
    worst = 0.0
    for _ in range(20):
        n_pat = int(rng.integers(2, 257))
        pv = rng.random(n_pat)
        qv = rng.random(n_pat)
        p = measure_from_probabilities(((0,),),
                                       dict(enumerate(pv / pv.sum())))
        q = measure_from_probabilities(((0,),),
                                       dict(enumerate(qv / qv.sum())))
        coupling = MaximalCoupling(p, q)
        n = 100_000
        dis = sum(a != b for a, b in (coupling.sample(rng) for _ in range(n)))
        worst = max(worst, abs(dis / n - total_variation(p, q)))
    verdict(10, worst <= 0.005,
            f"20 random pairs, worst |disagreement - TV| = {worst:.4f} "
            f"(tolerance 0.005)")


def test_criterion_11_epsilon_for():
    ok = True
    for m in range(1, 11):
        for d_G in (4, 6, 12):
            eps = epsilon_for(m, d_G)
            u = 1.0 / (4 * m * d_G)
            want = -math.log(1.0 - u)
            if not (1.0 - math.exp(-eps) < u and abs(eps - want) <= 1e-12 * want):
                ok = False
    verdict(11, ok, "strict firing-probability bound and closed form over "
                    "(m, d_G) in {1..10} x {4, 6, 12}")


def test_criterion_12_ccsb_degenerate():
    topo = build_topology(2, 2, TORUS)
    vacant = VacantSampler(topo)
    queries = [CcsbQuery.build(topo, [], [], (0, 0), m, dl)
               for m in (0, 1, 5) for dl in (0.0, 0.5, 1.0)]
    holds = all(rep.verdict == "holds"
                for rep in ccsb_check(vacant, topo, queries, 100))
    monotone = True
    for sampler in (vacant, BernoulliSampler(topo, 0.4),
                    SnapshotBank(topo, 1.0, 200, 1.0, 30.0, seed=12)):
        rows = cluster_size_tail(sampler, topo, (0, 0), [0, 1, 2, 4, 8],
                                 300, seed=12).rows
        phats = [r.p_hat for r in rows]
        monotone = monotone and phats == sorted(phats, reverse=True)
    verdict(12, holds and monotone,
            f"vacant sampler always holds: {holds}, tails monotone in m "
            f"on all samplers: {monotone}")


def test_criterion_13_determinism(tmp_path):
    manifests = {
        "exact": {"kind": "exact", "lambda": 1.0, "d": 1, "k": 1,
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
    }
    ok = True
    for name, manifest in manifests.items():
        blobs = []
        for tag, jobs in (("a", 1), ("b", 3)):
            out = tmp_path / name / tag
            run_experiment(validate_manifest(dict(manifest)), out, jobs=jobs)
            blobs.append({p.name: p.read_bytes()
                          for p in sorted(out.glob("*.csv"))})
        ok = ok and blobs[0] == blobs[1] and blobs[0]
    verdict(13, ok, "CSV outputs byte-identical across reruns and --jobs "
                    "for all four manifest kinds")
