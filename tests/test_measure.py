import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ffp_lab import measure
from ffp_lab.engine import Event, ForestFireEngine
from ffp_lab.errors import (CapacityError, InvalidParameterError,
                            WindowMismatchError)
from ffp_lab.lattice import TORUS, WINDOW, build_topology, explicit_topology
from ffp_lab.measure import (CylinderEvent, EmpiricalMeasure, ExactDistribution,
                             MaximalCoupling, canonical_window,
                             estimate_marginal, exact_stationary,
                             measure_from_probabilities, mu_convergence_scan,
                             stationarity_check, total_variation,
                             total_variation_ci,
                             translation_invariance_defect, window_pattern)
from ffp_lab.rng import make_rng


def cylinder_probability(measure, event: CylinderEvent) -> float:
    """Probability of a cylinder event under an empirical or exact measure."""
    if isinstance(measure, ExactDistribution):
        return measure.cylinder(event)
    if not set(event.window) <= set(measure.window):
        raise WindowMismatchError("event window is not contained in the measure window")
    positions = [measure.window.index(c) for c in event.window]
    total = 0.0
    for code, prob in measure.probabilities().items():
        sub = 0
        for j, pos in enumerate(positions):
            if code >> pos & 1:
                sub |= 1 << j
        if sub in event.accept:
            total += prob
    return total


class TestWindows:
    def test_canonical_sorted(self):
        topo = build_topology(2, 2, TORUS)
        w = canonical_window(topo, [(1, 0), (0, 0)])
        assert w == ((0, 0), (1, 0))

    def test_duplicates_rejected(self):
        topo = build_topology(2, 2, TORUS)
        with pytest.raises(InvalidParameterError):
            canonical_window(topo, [(0, 0), (0, 0)])

    def test_pattern_bits(self):
        topo = build_topology(2, 1, TORUS)
        w = canonical_window(topo, [(0, 0), (1, 0)])
        cfg = [0] * topo.n_sites
        cfg[topo.index_of[(1, 0)]] = 1
        assert window_pattern(cfg, topo, w) == 0b10


class TestCylinderEvent:
    def test_site_occupied(self):
        topo = build_topology(2, 1, TORUS)
        ev = CylinderEvent.site_occupied((0, 0))
        cfg = [0] * topo.n_sites
        assert not ev.holds_on(cfg, topo)
        cfg[topo.index_of[(0, 0)]] = 1
        assert ev.holds_on(cfg, topo)

    def test_window_cap(self):
        with pytest.raises(CapacityError):
            CylinderEvent(tuple((i, 0) for i in range(21)), frozenset({0}))


def periodic_grid(rows, cols):
    """rows x cols grid with wrap edges; a length-2 axis gets one edge."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for j in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return explicit_topology(rows * cols, sorted(edges))


def lu_stationary(topology, lam):
    """Oracle for small graphs: sparse LU solve of pi Q = 0 with the first
    balance equation replaced by the normalisation sum(pi) = 1."""
    Q = measure._build_generator(topology, lam)
    A = Q.T.tolil()
    A[0, :] = 1.0
    b = np.zeros(Q.shape[0])
    b[0] = 1.0
    return spla.spsolve(A.tocsr(), b)


class TestExactOracles:
    def test_single_site(self):
        topo = explicit_topology(1, [])
        for lam in (0.5, 1.0, 2.0):
            ex = exact_stationary(topo, lam)
            assert ex.probs[1] == pytest.approx(1.0 / (1.0 + lam), abs=1e-12)
            assert ex.balance_residual <= 1e-10

    def test_pair_graph(self):
        # hand-solved balance: the doubleton burns at rate 2*lambda
        topo = explicit_topology(2, [(0, 1)])
        ex = exact_stationary(topo, 1.0)
        assert np.allclose(ex.probs, [0.4, 0.2, 0.2, 0.2], atol=1e-12)
        assert ex.balance_residual <= 1e-10

    def test_matches_lu_oracle(self):
        graphs = [explicit_topology(1, []), explicit_topology(2, [(0, 1)]),
                  build_topology(1, 1, TORUS), build_topology(2, 1, TORUS),
                  build_topology(2, 1, WINDOW), periodic_grid(2, 5)]
        for topo in graphs:
            for lam in (0.01, 1.0, 20.0):
                ex = exact_stationary(topo, lam)
                diff = np.abs(ex.probs - lu_stationary(topo, lam)).max()
                assert diff <= 1e-12, (topo.n_sites, lam, diff)
                assert ex.solver_iterations >= 1

    def test_sixteen_site_grid(self):
        ex = exact_stationary(periodic_grid(4, 4), 1.0)
        assert ex.probs.size == 1 << 16
        assert ex.balance_residual <= 1e-10

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(measure, "BALANCE_TOL", 0.0)
        with pytest.raises(CapacityError, match="iterations.*residual"):
            exact_stationary(build_topology(2, 1, TORUS), 1.0)

    def test_capacity(self):
        topo = build_topology(2, 2, TORUS)
        with pytest.raises(CapacityError):
            exact_stationary(topo, 1.0)

    def test_box_cap_stops_at_the_cap(self):
        cap = measure.DEFAULT_STATE_CAP
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            measure.check_box_cap(10**7, 1, cap)
        # 3 ** 10**7 alone takes seconds; the factors stop at 27
        assert time.perf_counter() - t0 < 0.5
        measure.check_box_cap(10**7, 0, cap)     # one site
        measure.check_box_cap(2, 1, cap)         # 9 sites
        measure.check_box_cap(1, 7, cap)         # 15 sites
        with pytest.raises(CapacityError):
            measure.check_box_cap(1, 8, cap)     # 17 sites

    def test_translation_invariance_exact(self):
        topo = build_topology(2, 1, TORUS)
        ex = exact_stationary(topo, 1.0)
        assert translation_invariance_defect(ex) < 1e-10

    def test_marginal_consistent_with_density(self):
        topo = build_topology(1, 1, TORUS)
        ex = exact_stationary(topo, 1.0)
        marg = ex.marginal([(0,)])
        mask = 1 << topo.index_of[(0,)]
        density = sum(p for s, p in enumerate(ex.probs) if s & mask)
        assert marg[1] == pytest.approx(density)

    def test_cylinder_probability(self):
        topo = explicit_topology(1, [])
        ex = exact_stationary(topo, 1.0)
        ev = CylinderEvent.site_occupied((0,))
        assert ex.cylinder(ev) == pytest.approx(0.5, abs=1e-12)
        assert cylinder_probability(ex, ev) == pytest.approx(0.5, abs=1e-12)


class TestEstimate:
    def test_matches_exact_single_site(self):
        topo = explicit_topology(1, [])
        eng = ForestFireEngine(topo, 1.0, make_rng(4, 0))
        m = estimate_marginal(eng, [(0,)], 100.0, 20000.0)
        assert m.probability(1) == pytest.approx(0.5, abs=3 * m.stderr(1))
        assert m.stderr(1) > 0

    def test_horizon_validation(self):
        topo = explicit_topology(1, [])
        eng = ForestFireEngine(topo, 1.0, make_rng(0))
        with pytest.raises(InvalidParameterError):
            estimate_marginal(eng, [(0,)], 10.0, 10.0)

    def test_window_capacity(self):
        topo = build_topology(2, 3, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(0))
        with pytest.raises(CapacityError):
            estimate_marginal(eng, topo.coords[:21], 1.0, 2.0)

    def test_total_weight_is_observation_time(self):
        topo = build_topology(2, 1, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(1, 0))
        m = estimate_marginal(eng, [(0, 0)], 5.0, 105.0)
        assert m.total == pytest.approx(100.0)
        assert sum(m.probabilities().values()) == pytest.approx(1.0)



class TestObserverBatches:
    # Observation window whose edges 4.35 and 23.25 sit where
    # int((a - t_start) / batch_len) rounds down to the previous batch.
    T0, T1, NB = 3.0, 30.0, 20

    def feed(self, make_observer, cuts):
        """Accumulate [T0, T1] over the frozen state, cut at the given times."""
        topo = build_topology(2, 1, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(0), [1, 0, 1] * 3)
        eng.clock = self.T0
        ob = make_observer(eng)
        points = [self.T0] + sorted(cuts) + [self.T1]
        for a, b in zip(points[:-1], points[1:]):
            eng.clock = a
            ob.accumulate(eng, b - a)
        return ob

    def cuts(self):
        """Every batch edge, plus a fine grid that is not aligned to them."""
        batch_len = (self.T1 - self.T0) / self.NB
        edges = [self.T0 + (j + 1) * batch_len for j in range(self.NB - 1)]
        return edges + np.linspace(self.T0, self.T1, 997)[1:-1].tolist()

    def assert_same_measure(self, whole, cut, n_batches=NB):
        """Equal totals, weights and per-batch rows, to 1e-12."""
        assert len(whole.batches) == len(cut.batches) == n_batches
        pairs = zip([(whole.total, whole.weights)] + whole.batches,
                    [(cut.total, cut.weights)] + cut.batches)
        for (t_a, w_a), (t_b, w_b) in pairs:
            assert t_a == pytest.approx(t_b, abs=1e-12)
            assert w_a.keys() == w_b.keys()
            for key in w_a:
                assert w_a[key] == pytest.approx(w_b[key], abs=1e-12)

    def test_marginal_split_independent_of_cuts(self):
        def make(eng):
            return measure.MarginalObserver(eng, [(0, 0), (0, 1)], self.T0,
                                            self.T1, self.NB)
        self.assert_same_measure(self.feed(make, []).measure(),
                                 self.feed(make, self.cuts()).measure())

    def test_site_density_split_independent_of_cuts(self):
        def make(eng):
            return measure.SiteDensityObserver(eng, self.T0, self.T1, self.NB)
        whole = self.feed(make, [])
        cut = self.feed(make, self.cuts())
        self.assert_same_measure(whole.measure(), cut.measure())
        for a, b in zip(whole.densities(), cut.densities()):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)

    def observe(self, t_attach, t_last, window=(1, 0)):
        """One-site marginal and site densities for [3, 60) of one seeded
        trajectory, attached at t_attach and run on to t_last."""
        topo = build_topology(2, 2, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(5, 0))
        eng.run_until(t_attach)
        obs = (measure.MarginalObserver(eng, [window], 3.0, 60.0, 9),
               measure.SiteDensityObserver(eng, 3.0, 60.0, 9))
        for t in (3.0, 60.0, t_last):   # the same draws are discarded
            eng.run_until(t, observers=obs)
        return topo.index_of[window], obs

    def test_one_site_marginal_is_the_site_density(self):
        site, (marginal, density) = self.observe(3.0, 60.0)
        m = marginal.measure()
        dens, se = density.densities()
        assert m.probability(1) == pytest.approx(dens[site], abs=1e-12)
        assert m.stderr(1) == pytest.approx(se[site], abs=1e-12)

    def test_time_outside_the_window_is_not_observed(self):
        # attached before t_start and run past t_end: same readout
        _, inside = self.observe(3.0, 60.0)
        _, outside = self.observe(0.0, 70.0)
        for a, b in zip(inside, outside):
            self.assert_same_measure(a.measure(), b.measure(), 9)

    def test_lazy_density_matches_per_attempt_reference(self):
        # reference: credit every occupied site over every holding time
        topo = build_topology(2, 1, TORUS)
        eng = ForestFireEngine(topo, 0.5, make_rng(8, 0))
        eng.run_until(2.0)
        ob = measure.SiteDensityObserver(eng, 2.0, 40.0, 7)
        ref = ForestFireEngine(topo, 0.5, make_rng(8, 0))
        ref.run_until(2.0)
        occupied_time = np.zeros(topo.n_sites)
        t = ref.clock
        while True:
            dt, site, kind = ref._sampler.draw()
            t_next = min(t + dt, 40.0)
            occupied_time += (t_next - t) * np.array(ref.occ)
            if t + dt > 40.0:
                break
            t = t + dt
            ref.apply_event(Event(t, site, kind))
        eng.run_until(40.0, observers=(ob,))
        dens, _ = ob.densities()
        np.testing.assert_allclose(dens, occupied_time / 38.0, rtol=0,
                                   atol=1e-12)
        assert eng.snapshot() == ref.snapshot()

class TestMeasureAlgebra:
    def make(self, probs):
        return measure_from_probabilities(((0,),), probs)

    def test_tv_examples(self):
        a = self.make({0: 1.0})
        assert total_variation(a, self.make({0: 1.0})) == 0.0
        assert total_variation(a, self.make({1: 1.0})) == 1.0
        assert total_variation(a, self.make({0: 0.5, 1: 0.5})) == 0.5

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_tv_is_a_metric_bound(self, wa, wb):
        n = min(len(wa), len(wb))
        a = self.make({i: w / sum(wa[:n]) for i, w in enumerate(wa[:n])})
        b = self.make({i: w / sum(wb[:n]) for i, w in enumerate(wb[:n])})
        tv = total_variation(a, b)
        assert 0.0 <= tv <= 1.0 + 1e-12
        assert total_variation(b, a) == pytest.approx(tv)
        assert total_variation(a, a) == 0.0


class TestMaximalCoupling:
    def test_disagreement_frequency_is_tv(self):
        rng = make_rng(12)
        p = measure_from_probabilities(((0,),), {0: 0.7, 1: 0.3})
        q = measure_from_probabilities(((0,),), {0: 0.4, 1: 0.6})
        coupling = MaximalCoupling(p, q)
        n = 40000
        dis = sum(a != b for a, b in (coupling.sample(rng) for _ in range(n)))
        assert dis / n == pytest.approx(0.3, abs=0.01)

    def test_identical_measures_always_agree(self):
        rng = make_rng(13)
        p = measure_from_probabilities(((0,),), {0: 0.5, 1: 0.5})
        for _ in range(200):
            a, b = MaximalCoupling(p, p).sample(rng)
            assert a == b

    def test_marginals_preserved(self):
        rng = make_rng(14)
        p = measure_from_probabilities(((0,),), {0: 0.8, 1: 0.2})
        q = measure_from_probabilities(((0,),), {0: 0.1, 1: 0.9})
        coupling = MaximalCoupling(p, q)
        n = 40000
        draws = [coupling.sample(rng) for _ in range(n)]
        pa = sum(a == 0 for a, _ in draws) / n
        qb = sum(b == 0 for _, b in draws) / n
        assert pa == pytest.approx(0.8, abs=0.01)
        assert qb == pytest.approx(0.1, abs=0.01)


class TestCylinderProbability:
    def test_on_empirical(self):
        m = measure_from_probabilities(((0, 0), (1, 0)),
                                       {0b00: 0.5, 0b01: 0.3, 0b11: 0.2})
        ev = CylinderEvent.site_occupied((0, 0))
        assert cylinder_probability(m, ev) == pytest.approx(0.5)

    def test_window_containment(self):
        m = measure_from_probabilities(((0, 0),), {0: 1.0})
        ev = CylinderEvent.site_occupied((5, 5))
        with pytest.raises(WindowMismatchError):
            cylinder_probability(m, ev)


class TestScanAndStationarity:
    def test_scan_smoke(self):
        scan = mu_convergence_scan(1, 1.0, [(0,)], [1, 2], 10.0, 400.0, 21,
                                   n_boot=50)
        assert len(scan.rows) == 1
        row = scan.rows[0]
        assert row.ci_low <= row.tv <= row.ci_high

    def test_scan_window_must_fit(self):
        with pytest.raises(InvalidParameterError):
            mu_convergence_scan(1, 1.0, [(2,)], [1, 2], 1.0, 10.0, 0)

    def test_t_zero_is_exact_equality(self):
        topo = build_topology(2, 1, TORUS)
        ev = CylinderEvent.site_occupied((0, 0))
        rep = stationarity_check(topo, 1.0, ev, 0.0, 50, seed=8, burn_in=5.0)
        assert rep.lhs == rep.rhs
        assert rep.se == 0.0

    def test_tv_ci_brackets_estimate(self):
        topo = build_topology(1, 1, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(3, 0))
        a = estimate_marginal(eng, [(0,)], 10.0, 500.0)
        eng2 = ForestFireEngine(topo, 2.0, make_rng(4, 0))
        b = estimate_marginal(eng2, [(0,)], 10.0, 500.0)
        tv, lo, hi = total_variation_ci(a, b, make_rng(5), n_boot=100)
        assert lo <= hi
        assert tv == pytest.approx(total_variation(a, b))
