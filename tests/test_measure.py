import re
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ffp_lab import measure
from ffp_lab.engine import ForestFireEngine
from ffp_lab.errors import (CapacityError, InvalidParameterError,
                            WindowMismatchError)
from ffp_lab.lattice import (TORUS, WINDOW, build_topology, check_box_cap,
                             explicit_topology)
from ffp_lab.measure import (CylinderEvent, EmpiricalMeasure, ExactDistribution,
                             MaximalCoupling, canonical_window,
                             estimate_marginal, exact_stationary,
                             mu_convergence_scan, total_variation,
                             total_variation_ci, window_pattern)
from ffp_lab.rng import make_rng
import oracles
from oracles import (exact_cylinder, exact_marginal,
                     measure_from_probabilities, stationarity_check,
                     translation_invariance_defect)


def cylinder_probability(measure, event: CylinderEvent) -> float:
    """Probability of a cylinder event under an empirical or exact measure."""
    if isinstance(measure, ExactDistribution):
        return exact_cylinder(measure, event)
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


def loop_generator(topology, lam):
    """Reference generator, one state and one cluster at a time: rate 1
    growth at each vacant site, and each occupied cluster of c sites
    burns down at rate lam*c."""
    n = topology.n_sites
    n_states = 1 << n
    nb_mask = [0] * n
    for i, nbs in enumerate(topology.adjacency):
        m = 0
        for j in nbs:
            m |= 1 << j
        nb_mask[i] = m

    rows, cols, vals = [], [], []
    diag = np.zeros(n_states)

    def add(s, t, rate):
        rows.append(s)
        cols.append(t)
        vals.append(rate)
        diag[s] -= rate

    for s in range(n_states):
        for i in range(n):
            if not s >> i & 1:
                add(s, s | (1 << i), 1.0)
        # occupied components: each site ignition empties its component
        seen = 0
        for i in range(n):
            bit = 1 << i
            if s & bit and not seen & bit:
                comp = bit
                frontier = bit
                while frontier:
                    grow = 0
                    f = frontier
                    while f:
                        j = (f & -f).bit_length() - 1
                        f &= f - 1
                        grow |= nb_mask[j] & s & ~comp
                    comp |= grow
                    frontier = grow
                seen |= comp
                add(s, s & ~comp, lam * comp.bit_count())

    rows.extend(range(n_states))
    cols.extend(range(n_states))
    vals.extend(diag)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_states, n_states))


@st.composite
def small_graphs(draw):
    """Random simple graphs on 1 to 10 sites."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return explicit_topology(n, sorted(edges))


def generator_matrix(topology, lam):
    """The generator's entries as a CSR matrix."""
    rows, cols, rates = measure._build_generator(topology, lam)
    size = 1 << topology.n_sites
    return sp.csr_matrix((rates, (rows, cols)), shape=(size, size))


def assert_same_generator(topology, lam):
    Q = generator_matrix(topology, lam)
    ref = loop_generator(topology, lam)
    assert Q.nnz == ref.nnz, (topology.n_sites, lam)
    assert abs(Q - ref).max() <= 1e-12, (topology.n_sites, lam)


def lu_stationary(topology, lam):
    """Oracle for small graphs: sparse LU solve of pi Q = 0 with the first
    balance equation replaced by the normalisation sum(pi) = 1, on the
    reference generator."""
    Q = loop_generator(topology, lam)
    A = Q.T.tolil()
    A[0, :] = 1.0
    b = np.zeros(Q.shape[0])
    b[0] = 1.0
    return spla.spsolve(A.tocsr(), b)


def scipy_stationary(topology, lam):
    """Reference copy of the scipy solve: Jacobi-preconditioned
    ``spla.gmres`` on Q^T without state 0, clipped and normalised.
    Returns (probs, balance residual, iterations, gmres info)."""
    Q = generator_matrix(topology, lam)
    QT = Q.T.tocsr()
    A = QT[1:, 1:]
    b = -QT[1:, 0].toarray().ravel()
    diag = A.diagonal()
    jacobi = spla.LinearOperator(A.shape, matvec=lambda v: v / diag,
                                 dtype=float)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.gmres(A, b, rtol=1e-13, restart=measure.GMRES_RESTART,
                         maxiter=measure.GMRES_MAX_RESTARTS, M=jacobi,
                         callback=count, callback_type="pr_norm")
    pi = np.clip(np.concatenate(([1.0], x)), 0.0, None)
    pi /= pi.sum()
    return pi, float(np.abs(pi @ Q).max()), iterations, info


def assert_same_solve(topology, lam):
    """exact_stationary gives the reference solve's doubles, bit for bit,
    and fails where the reference does not converge."""
    probs, residual, iterations, info = scipy_stationary(topology, lam)
    if info != 0:
        with pytest.raises(CapacityError, match=re.escape(
                f"after {iterations} GMRES iterations: "
                f"balance residual {residual:.3e} ")):
            exact_stationary(topology, lam)
        return
    ex = exact_stationary(topology, lam)
    assert np.array_equal(ex.probs.view(np.int64), probs.view(np.int64))
    assert ex.balance_residual == residual
    assert ex.solver_iterations == iterations
    return ex


class TestSolveMatchesScipyReference:
    @pytest.mark.parametrize("shape", [(1, 12), (3, 4), (2, 5), (4, 4)],
                             ids=["ring12", "grid3x4", "grid2x5", "grid4x4"])
    def test_periodic_grids(self, shape):
        assert_same_solve(periodic_grid(*shape), 1.0)

    def test_restarted_solve(self):
        ex = assert_same_solve(build_topology(1, 7, WINDOW), 0.3)
        assert ex.solver_iterations > measure.GMRES_RESTART

    @given(small_graphs(), st.sampled_from([0.01, 1.0, 20.0]))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, topo, lam):
        assert_same_solve(topo, lam)


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

    def test_generator_matches_loop_reference(self):
        graphs = [explicit_topology(1, []), explicit_topology(2, [(0, 1)]),
                  build_topology(1, 1, TORUS), build_topology(2, 1, TORUS),
                  build_topology(2, 1, WINDOW), periodic_grid(2, 5),
                  periodic_grid(3, 4)]
        for topo in graphs:
            for lam in (0.01, 1.0, 20.0):
                assert_same_generator(topo, lam)

    @given(small_graphs(), st.sampled_from([0.01, 1.0, 20.0]))
    @settings(max_examples=40, deadline=None)
    def test_generator_matches_loop_reference_on_random_graphs(self, topo,
                                                                lam):
        assert_same_generator(topo, lam)

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
            check_box_cap(10**7, 3, cap)
        # 3 ** 10**7 alone takes seconds; the factors stop at 27
        assert time.perf_counter() - t0 < 0.5
        check_box_cap(10**7, 1, cap)     # one site
        check_box_cap(2, 3, cap)         # 9 sites
        check_box_cap(1, 15, cap)        # 15 sites
        with pytest.raises(CapacityError):
            check_box_cap(1, 17, cap)    # 17 sites

    def test_translation_invariance_exact(self):
        topo = build_topology(2, 1, TORUS)
        ex = exact_stationary(topo, 1.0)
        assert translation_invariance_defect(ex) < 1e-10
        # all mass on one occupied site: every translation moves it away
        point = ExactDistribution(topo, 1.0, np.eye(1 << 9)[1], 0.0, 0)
        assert translation_invariance_defect(point) == 1.0

    def test_marginal_consistent_with_density(self):
        topo = build_topology(1, 1, TORUS)
        ex = exact_stationary(topo, 1.0)
        marg = exact_marginal(ex, [(0,)])
        mask = 1 << topo.index_of[(0,)]
        density = sum(p for s, p in enumerate(ex.probs) if s & mask)
        assert marg[1] == pytest.approx(density)

    def test_cylinder_probability(self):
        topo = explicit_topology(1, [])
        ex = exact_stationary(topo, 1.0)
        ev = CylinderEvent.site_occupied((0,))
        assert cylinder_probability(ex, ev) == pytest.approx(0.5, abs=1e-12)

    def test_cylinder_reads_bits_in_event_window_order(self):
        # bit j of an accepted code is event.window[j], as in holds_on,
        # also when the window is not sorted
        topo = explicit_topology(3, [(0, 1), (1, 2)])
        ex = exact_stationary(topo, 1.0)
        ev = CylinderEvent(((1,), (0,)), frozenset({0b10}))
        want = sum(p for s, p in enumerate(ex.probs)
                   if ev.holds_on([s >> i & 1 for i in range(3)], topo))
        assert exact_cylinder(ex, ev) == pytest.approx(want, abs=1e-12)


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
        """Accumulate [T0, T1] over the frozen state, the clock moved
        forward to each of the given cuts in turn."""
        topo = build_topology(2, 1, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(0), [1, 0, 1] * 3)
        eng.clock = self.T0
        ob = make_observer(eng)
        for t in sorted(cuts) + [self.T1]:
            eng.clock = t
            ob.accumulate(eng)
        return ob

    def cuts(self):
        """Every batch edge, plus a fine grid that is not aligned to them."""
        batch_len = (self.T1 - self.T0) / self.NB
        edges = [self.T0 + (j + 1) * batch_len for j in range(self.NB - 1)]
        return edges + np.linspace(self.T0, self.T1, 997)[1:-1].tolist()

    def assert_same_measure(self, whole, cut, n_batches=NB):
        """Equal totals, weights and per-batch rows, to 1e-12: the same
        keys credited in each batch, with the same times."""
        assert len(whole.batch_sizes) == len(cut.batch_sizes) == n_batches
        assert whole.total == pytest.approx(cut.total, abs=1e-12)
        assert whole.weights.keys() == cut.weights.keys()
        for key in whole.weights:
            assert whole.weights[key] == pytest.approx(cut.weights[key],
                                                       abs=1e-12)
        np.testing.assert_allclose(cut.batch_sizes, whole.batch_sizes,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cut.batch_weights > 0,
                                      whole.batch_weights > 0)
        np.testing.assert_allclose(cut.batch_weights, whole.batch_weights,
                                   rtol=0, atol=1e-12)

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
            event = ref.next_event()
            t_next = min(event.time, 40.0)
            occupied_time += (t_next - t) * np.array(ref.occ)
            if event.time > 40.0:
                break
            t = event.time
            ref.apply_event(event)
        ref.clock = 40.0
        eng.run_until(40.0, observers=(ob,))
        dens, _ = ob.densities()
        np.testing.assert_allclose(dens, occupied_time / 38.0, rtol=0,
                                   atol=1e-12)
        assert eng.snapshot() == ref.snapshot()


class TestAgainstDictIntegrator:
    """The batch tables against the dict integrator and snapshot measure
    kept in ``oracles``: the same doubles in every weight, batch size,
    batch cell, density and standard error."""

    WINDOWS = {"1-site": [(0, 0)], "2-site": [(0, 0), (1, 0)],
               "12-site": [(x, y) for x in (-2, -1, 0, 1) for y in (-1, 0, 1)]}

    def assert_same(self, got, ref):
        codes = sorted(ref.weights)
        assert got.weights == ref.weights
        assert {type(w) for w in got.weights.values()} <= {float}
        assert got.total == ref.total
        assert got.batch_sizes.tolist() == [size for size, _ in ref.batches]
        assert got.batch_weights.shape == (len(ref.batches), len(codes))
        for row, (_, w) in zip(got.batch_weights.tolist(), ref.batches):
            assert w.keys() <= set(codes)
            assert row == [w.get(c, 0.0) for c in codes]
        se = [ref.stderr(c) for c in codes]
        assert [got.stderr(c) for c in codes] == se
        assert [row[3] for row in got.rows()] == se
        assert got.stderr(max(codes, default=0) + 1) == 0.0

    def observe(self, integrator, window, n_batches, t_attach, t_last):
        """A marginal and the site densities for [3, 40) of one seeded
        torus trajectory, attached at t_attach and run on to t_last."""
        topo = build_topology(2, 2, TORUS)
        eng = ForestFireEngine(topo, 0.7, make_rng(21, n_batches))
        eng.run_until(t_attach)
        obs = (integrator.MarginalObserver(eng, window, 3.0, 40.0, n_batches),
               integrator.SiteDensityObserver(eng, 3.0, 40.0, n_batches))
        for t in (3.0, 40.0, t_last):
            eng.run_until(t, observers=obs)
        return obs

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n_batches", [1, 7, 20])
    @pytest.mark.parametrize("t_attach, t_last", [(3.0, 40.0), (0.5, 50.0)],
                             ids=["inside", "before-and-past"])
    def test_observers_same_doubles(self, window, n_batches, t_attach,
                                    t_last):
        args = (self.WINDOWS[window], n_batches, t_attach, t_last)
        marginal, density = self.observe(measure, *args)
        ref_marginal, ref_density = self.observe(oracles, *args)
        self.assert_same(marginal.measure(), ref_marginal.measure())
        self.assert_same(density.measure(), ref_density.measure())
        for got, ref in zip(density.densities(), ref_density.densities()):
            assert got.tolist() == ref.tolist()
        if window == "12-site":         # many sparse codes
            assert len(marginal.measure().weights) > 20

    @pytest.mark.parametrize("n", [0, 1, 2, 19, 47])
    def test_snapshot_measure_same_doubles(self, n):
        topo = build_topology(2, 2, TORUS)
        gen = np.random.default_rng(n)
        snaps = [bytes(gen.integers(0, 2, topo.n_sites).tolist())
                 for _ in range(n)]
        window = self.WINDOWS["12-site"]
        self.assert_same(measure.measure_from_snapshots(topo, window, snaps),
                         oracles.measure_from_snapshots(topo, window, snaps))


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

    def test_scan_radius_named_twice_refused(self):
        with pytest.raises(InvalidParameterError, match="duplicate radii"):
            mu_convergence_scan(1, 1.0, [(0,)], [2, 3, 2], 1.0, 10.0, 0)

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


def random_measure(gen, window, codes, n_batches, time_weights):
    """A measure built as the package builds one: batch rows of positive
    weights (snapshot counts or credited times) over some of the codes,
    each batch sized by its row, the weights and total their sums in
    batch order; with no batches, the weights alone."""
    rows = []
    for _ in range(max(n_batches, 1)):
        own = gen.choice(codes, gen.integers(1, len(codes) + 1), replace=False)
        values = (gen.exponential(1.0, own.size) if time_weights
                  else gen.integers(1, 6, own.size).astype(float))
        rows.append(dict(zip(own.tolist(), values.tolist())))
    weights, total, sizes = {}, 0.0, []
    for row in rows:
        size = sum(row.values())
        sizes.append(size)
        total += size
        for c, v in row.items():
            weights[c] = weights.get(c, 0.0) + v
    if not n_batches:
        return EmpiricalMeasure(window, weights, total)
    table = np.array([[row.get(c, 0.0) for c in sorted(weights)]
                      for row in rows])
    return EmpiricalMeasure(window, weights, total, np.array(sizes), table)


class TestTotalVariationCI:
    """The array resampler and ``_quantile`` against the dict-built
    resamples and ``np.quantile`` kept in ``oracles``: the same rng calls
    and the same three doubles."""

    WINDOW = ((0,), (1,), (2,), (3,))

    @pytest.mark.parametrize("n_batches", [0, 1, 2, 20])
    @pytest.mark.parametrize("time_weights", [False, True],
                             ids=["counts", "times"])
    @pytest.mark.parametrize("shared", [False, True],
                             ids=["disjoint", "shared"])
    def test_same_interval_as_reference(self, n_batches, time_weights,
                                        shared):
        gen = np.random.default_rng([n_batches, time_weights, shared])
        for n_boot in (1, 2, 200):
            for _ in range(3):
                p = random_measure(gen, self.WINDOW, np.arange(8), n_batches,
                                   time_weights)
                q = random_measure(gen, self.WINDOW,
                                   np.arange(16) if shared else np.arange(8, 16),
                                   int(gen.choice([0, 1, 2, 20])),
                                   time_weights)
                seed = int(gen.integers(1 << 30))
                rng, ref_rng = make_rng(seed), make_rng(seed)
                got = total_variation_ci(p, q, rng, n_boot)
                assert got == oracles.total_variation_ci(p, q, ref_rng, n_boot)
                assert rng.random() == ref_rng.random()   # same draws taken

    @pytest.mark.parametrize("n", [1, 2, 3, 200, 201])
    def test_quantile_is_numpy_linear_method(self, n):
        qs = [0.0, (1 - 0.95) / 2, 0.5, (1 + 0.95) / 2, 1.0]
        gen = np.random.default_rng(n)
        for values in (gen.random(n), gen.integers(0, 4, n) / 3.0,
                       gen.exponential(1e-3, n)):
            values = values.tolist()
            expected = np.quantile(values, qs)
            got = [measure._quantile(sorted(values), q) for q in qs]
            assert [x.hex() for x in got] == [x.hex() for x in expected]
