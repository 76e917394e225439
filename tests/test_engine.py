import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffp_lab.engine import (GROWTH, IGNITION, Event, ForestFireEngine,
                            TrajectoryRecorder)
from ffp_lab.errors import EventOrderError, InvalidParameterError
from ffp_lab.lattice import (TORUS, WINDOW, build_topology, cluster_of,
                             explicit_topology)
from ffp_lab.rng import make_rng


def make_engine(lam=1.0, seed=0, d=2, k=2, mode=TORUS, init=None):
    topo = build_topology(d, k, mode)
    return ForestFireEngine(topo, lam, make_rng(seed, 0), init)


class TestRules:
    def test_growth_occupies_vacant(self):
        eng = make_engine()
        changed = eng.apply_event(Event(0.1, 0, GROWTH))
        assert changed == [0] and eng.occ[0] == 1

    def test_growth_noop_on_occupied(self):
        eng = make_engine()
        eng.apply_event(Event(0.1, 0, GROWTH))
        assert eng.apply_event(Event(0.2, 0, GROWTH)) == []

    def test_ignition_noop_on_vacant(self):
        eng = make_engine()
        assert eng.apply_event(Event(0.1, 0, IGNITION)) == []

    def test_ignition_burns_whole_cluster(self):
        topo = build_topology(2, 2, WINDOW)
        eng = ForestFireEngine(topo, 1.0, make_rng(0))
        cells = [(0, 0), (0, 1), (1, 1), (2, 2)]
        t = 0.0
        for c in cells:
            t += 0.1
            eng.apply_event(Event(t, topo.index_of[c], GROWTH))
        changed = eng.apply_event(Event(1.0, topo.index_of[(0, 0)], IGNITION))
        assert {topo.coords[i] for i in changed} == {(0, 0), (0, 1), (1, 1)}
        assert eng.occ[topo.index_of[(2, 2)]] == 1

    def test_event_order_enforced(self):
        eng = make_engine()
        eng.apply_event(Event(1.0, 0, GROWTH))
        with pytest.raises(EventOrderError):
            eng.apply_event(Event(0.5, 1, GROWTH))

    def test_lambda_must_be_positive(self):
        topo = build_topology(2, 1, TORUS)
        with pytest.raises(InvalidParameterError):
            ForestFireEngine(topo, 0.0, make_rng(0))


class TestClusterIndex:
    def agrees_with_bfs(self, eng):
        topo = eng.topology
        for i in range(topo.n_sites):
            assert frozenset(eng.cluster_members(i)) == \
                cluster_of(eng.occ, topo, i)

    def test_initial_config_indexed(self):
        topo = build_topology(2, 2, TORUS)
        init = [1] * topo.n_sites
        eng = ForestFireEngine(topo, 1.0, make_rng(0), init)
        assert len(eng.cluster_members(0)) == topo.n_sites

    def test_index_matches_bfs_along_trajectory(self):
        eng = make_engine(lam=0.7, seed=3)
        for _ in range(400):
            eng.apply_event(eng.next_event())
        self.agrees_with_bfs(eng)

    def test_vacant_site_has_empty_cluster(self):
        eng = make_engine()
        assert eng.cluster_members(0) == []


@st.composite
def configured_topology(draw):
    """A torus, window or explicit topology with a random configuration
    and a random sequence of (site, kind) events on it."""
    mode = draw(st.sampled_from([TORUS, WINDOW, "explicit"]))
    if mode == "explicit":
        n = draw(st.integers(1, 12))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = draw(st.sets(pairs.filter(lambda e: e[0] < e[1]), max_size=24))
        topo = explicit_topology(n, sorted(edges))
    else:
        topo = build_topology(draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                              mode)
    n = topo.n_sites
    cfg = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    events = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.sampled_from([GROWTH, GROWTH, IGNITION])),
                           max_size=40))
    return topo, cfg, events


class TestLabelling:
    """The index built by labelling at construction, and kept by the
    union in _occupy, matches a fresh traversal at every step."""

    def assert_index_exact(self, eng):
        topo, occ = eng.topology, eng.occ
        for i in range(topo.n_sites):
            if occ[i]:
                assert set(eng.cluster_members(i)) == cluster_of(occ, topo, i)
        listed = [m for members in eng._members.values() for m in members]
        assert sorted(listed) == [i for i in range(topo.n_sites) if occ[i]]

    @settings(max_examples=150, deadline=None)
    @given(configured_topology())
    def test_index_matches_traversal(self, case):
        topo, cfg, events = case
        eng = ForestFireEngine(topo, 1.0, make_rng(0), cfg)
        self.assert_index_exact(eng)
        for t, (site, kind) in enumerate(events, 1):
            eng.apply_event(Event(float(t), site, kind))
            self.assert_index_exact(eng)


class TestSampling:
    def test_interarrival_mean(self):
        eng = make_engine(lam=1.0, seed=1, k=1)
        n = eng.topology.n_sites
        times = []
        prev = 0.0
        for _ in range(20000):
            ev = eng.next_event()
            times.append(ev.time - prev)
            prev = ev.time
        mean = sum(times) / len(times)
        expect = 1.0 / (n * 2.0)
        assert abs(mean - expect) < 5 * expect / math.sqrt(len(times))

    def test_kind_frequency(self):
        eng = make_engine(lam=3.0, seed=2, k=1)
        kinds = [eng.next_event().kind for _ in range(20000)]
        p = kinds.count(GROWTH) / len(kinds)
        assert abs(p - 0.25) < 0.02

    def test_determinism(self):
        a = make_engine(seed=9)
        b = make_engine(seed=9)
        for _ in range(1000):
            a.apply_event(a.next_event())
            b.apply_event(b.next_event())
        assert a.snapshot() == b.snapshot()
        assert a.clock == b.clock

    def test_distinct_seeds_differ(self):
        a = make_engine(seed=0)
        b = make_engine(seed=1)
        for _ in range(200):
            a.apply_event(a.next_event())
            b.apply_event(b.next_event())
        assert a.snapshot() != b.snapshot() or a.clock != b.clock


class TestRunUntil:
    def test_clock_lands_on_horizon(self):
        eng = make_engine(seed=5)
        eng.run_until(3.0)
        assert eng.clock == 3.0

    def test_past_horizon_rejected(self):
        eng = make_engine(seed=5)
        eng.run_until(2.0)
        with pytest.raises(InvalidParameterError):
            eng.run_until(1.0)

    def test_observer_time_adds_up(self):
        class TimeSum:
            total = 0.0

            def accumulate(self, engine, dt):
                self.total += dt

        eng = make_engine(seed=6)
        ob = TimeSum()
        eng.run_until(5.0, observers=(ob,))
        assert ob.total == pytest.approx(5.0)

    def test_trajectory_recorder(self, tmp_path):
        eng = make_engine(seed=7)
        path = tmp_path / "traj.txt"
        with open(path, "w") as fh:
            eng.run_until(1.0, listeners=(TrajectoryRecorder(fh),))
        lines = path.read_text().splitlines()
        assert len(lines) == sum(eng.counts.values())
        t_prev = 0.0
        for line in lines:
            t, site, kind = line.split()
            assert float(t) >= t_prev
            assert kind in (GROWTH, IGNITION)
            t_prev = float(t)


class TestStreamPreserved:
    """run_until consumes the same draws whatever is attached to it."""

    def finish(self, eng):
        return eng.snapshot(), eng.clock, dict(eng.counts), dict(eng.effective)

    def test_matches_apply_event_reference(self):
        eng = make_engine(lam=0.6, seed=11)
        ref = make_engine(lam=0.6, seed=11)
        for T in (2.5, 7.0):
            eng.run_until(T)
            while True:   # the draw past T is taken and discarded
                dt, site, kind = ref._sampler.draw()
                if ref.clock + dt > T:
                    break
                ref.apply_event(Event(ref.clock + dt, site, kind))
            ref.clock = T
            assert self.finish(eng) == self.finish(ref)

    def test_observer_does_not_change_stream(self):
        class Counter:
            stretches = changes = 0

            def accumulate(self, engine, dt):
                self.stretches += 1

            def on_event(self, engine, changed):
                assert changed
                self.changes += 1

        a, b = make_engine(seed=12), make_engine(seed=12)
        ob = Counter()
        a.run_until(4.0)
        b.run_until(4.0, observers=(ob,))
        assert self.finish(a) == self.finish(b)
        effective = sum(b.effective.values())
        assert ob.changes == effective
        assert ob.stretches == effective + 1

    def test_observer_with_only_on_event(self):
        class Changes:
            def __init__(self):
                self.times = []

            def on_event(self, engine, changed):
                assert changed
                self.times.append(engine.clock)

        a, b = make_engine(seed=15), make_engine(seed=15)
        ob = Changes()
        a.run_until(4.0)
        b.run_until(4.0, observers=(ob,))
        assert self.finish(a) == self.finish(b)
        assert len(ob.times) == sum(b.effective.values())
        assert ob.times == sorted(ob.times) and 0.0 < ob.times[-1] <= 4.0
        b.run_until(4.0, observers=(ob,))       # T equal to the clock
        assert self.finish(a) == self.finish(b)
        assert len(ob.times) == sum(b.effective.values())

    def test_listener_does_not_change_stream(self, tmp_path):
        a, b = make_engine(seed=13), make_engine(seed=13)
        a.run_until(4.0)
        with open(tmp_path / "traj.txt", "w") as fh:
            b.run_until(4.0, listeners=(TrajectoryRecorder(fh),))
        assert self.finish(a) == self.finish(b)

    def test_counts_written_back_when_a_listener_raises(self):
        class Stop(Exception):
            pass

        class StopAtFifth:
            seen = 0

            def on_event(self, engine, event, changed):
                self.seen += 1
                self.time = event.time
                if self.seen == 5:
                    raise Stop

        eng = make_engine(seed=14)
        li = StopAtFifth()
        with pytest.raises(Stop):
            eng.run_until(10.0, listeners=(li,))
        assert sum(eng.counts.values()) == 5
        assert eng.clock == li.time
