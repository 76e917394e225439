import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffp_lab.engine import (_CHUNK, GROWTH, IGNITION, ForestFireEngine,
                            TrajectoryRecorder)
from ffp_lab.errors import CapacityError, InvalidParameterError
from ffp_lab.lattice import (EXPLICIT, TORUS, WINDOW, Topology,
                             build_topology, cluster_of, explicit_topology)
from ffp_lab.rng import make_rng
from oracles import Event, LabelledEngine


def make_engine(lam=1.0, seed=0, d=2, k=2, mode=TORUS, init=None):
    topo = build_topology(d, k, mode)
    return ForestFireEngine(topo, lam, make_rng(seed, 0), init)


def next_draw(eng):
    """The site of the engine's next draw and True if it is a growth,
    read without taking the draw."""
    if eng._i == _CHUNK:
        eng._refill()                   # the chunk run_until would draw
    i = eng._i
    return int(eng._site[i]), bool(eng._u[i] < eng._p_growth)


def step(eng, *observers):
    """Run the engine to the clock of its next draw, which it takes;
    returns that draw as next_draw does."""
    draw = next_draw(eng)
    eng.run_until(eng.clock + float(eng._dt[eng._i]), observers)
    return draw


class Changes(list):
    """Observer keeping the changed list of every effective event."""

    def on_event(self, engine, changed):
        self.append(list(changed))


class TestRules:
    """run_until's rule, one draw at a time: at lambda = 1e-9 the draw
    is a growth, at 1e9 an ignition."""

    def test_growth_occupies_vacant(self):
        eng, log = make_engine(lam=1e-9), Changes()
        site, growth = step(eng, log)
        assert growth and log == [[site]] and eng.occ[site] == 1
        assert eng.effective == {GROWTH: 1, "burn": 0}

    def test_growth_noop_on_occupied(self):
        eng, log = make_engine(lam=1e-9, init=[1] * 25), Changes()
        _, growth = step(eng, log)
        assert growth and log == [] and eng.occ == [1] * 25
        assert eng.counts[GROWTH] == 1 and eng.effective[GROWTH] == 0

    def test_ignition_noop_on_vacant(self):
        eng, log = make_engine(lam=1e9), Changes()
        _, growth = step(eng, log)
        assert not growth and log == [] and eng.occ == [0] * 25
        assert eng.counts[IGNITION] == 1 and eng.effective["burn"] == 0

    def test_ignition_burns_whole_cluster(self):
        """The struck site and its neighbours burn, in flood order from
        the struck site; an occupied site two sites away does not."""
        topo = build_topology(2, 2, WINDOW)
        eng, log = ForestFireEngine(topo, 1e9, make_rng(0)), Changes()
        site, growth = next_draw(eng)
        cluster = {site, *topo.adjacency[site]}
        reach = cluster.union(*(topo.adjacency[j] for j in cluster))
        far = min(set(range(topo.n_sites)) - reach)
        for j in cluster | {far}:
            eng.occ[j] = 1
        step(eng, log)
        assert not growth and len(log) == 1
        assert log[0][0] == site and sorted(log[0]) == sorted(cluster)
        assert [j for j in range(topo.n_sites) if eng.occ[j]] == [far]
        assert eng.effective == {GROWTH: 0, "burn": 1}

    def test_lambda_must_be_positive(self):
        topo = build_topology(2, 1, TORUS)
        with pytest.raises(InvalidParameterError):
            ForestFireEngine(topo, 0.0, make_rng(0))

    @pytest.mark.parametrize("lam", [math.nan, -math.inf])
    def test_lambda_not_a_positive_number_refused(self, lam):
        topo = build_topology(2, 1, TORUS)
        with pytest.raises(InvalidParameterError, match="positive"):
            ForestFireEngine(topo, lam, make_rng(0))

    @pytest.mark.parametrize("lam", [1e308, 2e307, math.inf])
    def test_lambda_whose_rate_overflows_refused(self, lam):
        """With N(1 + lambda) infinite every holding time would be 0.0
        and run_until would never return."""
        topo = build_topology(2, 1, TORUS)                   # 9 sites
        with pytest.raises(InvalidParameterError, match="too large"):
            ForestFireEngine(topo, lam, make_rng(0))
        eng = ForestFireEngine(topo, 1e307, make_rng(0))     # 9.0e307 is finite
        step(eng)
        assert eng.clock > 0.0 and sum(eng.counts.values()) == 1

    def test_empty_topology_refused(self):
        with pytest.raises(InvalidParameterError, match="no sites"):
            ForestFireEngine(Topology(1, None, EXPLICIT, [], []), 1.0,
                             make_rng(0))

    @pytest.mark.parametrize("init", [
        [0, 0.7, 1], [0, 1.0, 1], [0, 2, 1], [0, -1, 1], [0, None, 1],
        "011", 3, b"\x00\x02\x01", np.array([0.0, 1.0, 1.0])])
    def test_entries_other_than_0_or_1_refused(self, init):
        topo = build_topology(1, 1, TORUS)                   # 3 sites
        with pytest.raises(InvalidParameterError):
            ForestFireEngine(topo, 1.0, make_rng(0), init)

    def test_array_buffer_never_read_as_a_configuration(self):
        """One int64 entry has an 8-byte buffer, as long as an 8-site
        configuration; it is one entry, so the length is wrong."""
        topo = explicit_topology(8, [(0, 1)])
        with pytest.raises(InvalidParameterError, match="length"):
            ForestFireEngine(topo, 1.0, make_rng(0), np.array([1], np.int64))

    @pytest.mark.parametrize("init", [
        [0, 1, 1], (0, True, 1), b"\x00\x01\x01", bytearray(b"\x00\x01\x01"),
        np.array([0, 1, 1], dtype=np.int64), np.array([0, 1, 1], np.uint8)])
    def test_configurations_read_entry_by_entry(self, init):
        eng = ForestFireEngine(build_topology(1, 1, TORUS), 1.0, make_rng(0),
                               init)
        assert eng.occ == [0, 1, 1] and eng.snapshot() == b"\x00\x01\x01"
        assert eng.cluster_members(1) == [1, 2]


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
        eng.run_until(400 / (eng.topology.n_sites * 1.7))   # 400 attempts
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
    """cluster_members, flooded on demand from occupancy alone, matches
    lattice.cluster_of on every configuration the reference engine
    reaches, one event at a time."""

    def assert_clusters_exact(self, eng):
        """Every site's cluster equals a fresh traversal, and the flood
        leaves the configuration as it found it."""
        topo, occ = eng.topology, eng.occ
        before = list(occ)
        for i in range(topo.n_sites):
            members = eng.cluster_members(i)
            assert len(members) == len(set(members))
            assert set(members) == cluster_of(occ, topo, i)
            if occ[i]:
                assert members[0] == i
        assert occ == before

    @settings(max_examples=150, deadline=None)
    @given(configured_topology())
    def test_index_matches_traversal(self, case):
        topo, cfg, events = case
        rng = make_rng(0)
        ref = LabelledEngine(topo, 1.0, rng, cfg)
        self.assert_clusters_exact(ForestFireEngine(topo, 1.0, rng, cfg))
        for t, (site, kind) in enumerate(events, 1):
            ref.apply_event(Event(float(t), site, kind))
            self.assert_clusters_exact(ForestFireEngine(topo, 1.0, rng,
                                                        ref.occ))

    def test_index_exact_along_long_low_lambda_run(self):
        """Rare fires: clusters of hundreds of sites, and regrowth on the
        sites of burned ones."""
        topo = build_topology(2, 10, TORUS)
        ref = LabelledEngine(topo, 0.05, make_rng(4, 0))
        largest = 0
        for draw in range(1, 20001):
            ref.apply_event(ref.next_event())
            if draw % 500 == 0:
                eng = ForestFireEngine(topo, 0.05, make_rng(0), ref.occ)
                self.assert_clusters_exact(eng)
                largest = max(largest, *(len(eng.cluster_members(i))
                                         for i in range(topo.n_sites)))
        assert ref.effective["burn"] > 0 and largest > 200


class TestSampling:
    """The first 20,000 attempts of a run, as on_attempts sees them."""

    def attempts(self, eng, n=20000):
        log = CallLog()
        rate = eng.topology.n_sites * (1.0 + eng.lam)
        eng.run_until(1.2 * n / rate, observers=(log,))
        assert len(log.attempts) >= n
        return log.attempts[:n]

    def test_interarrival_mean(self):
        eng = make_engine(lam=1.0, seed=1, k=1)
        n = eng.topology.n_sites
        clocks = [t for t, _, _ in self.attempts(eng)]
        times = [b - a for a, b in zip([0.0] + clocks, clocks)]
        mean = sum(times) / len(times)
        expect = 1.0 / (n * 2.0)
        assert abs(mean - expect) < 5 * expect / math.sqrt(len(times))

    def test_kind_frequency(self):
        eng = make_engine(lam=3.0, seed=2, k=1)
        growth = [g for _, _, g in self.attempts(eng)]
        p = growth.count(True) / len(growth)
        assert abs(p - 0.25) < 0.02

    def test_determinism(self):
        a = make_engine(seed=9)
        b = make_engine(seed=9)
        for eng in (a, b):
            eng.run_until(1000 / (25 * 2.0))             # 1,000 attempts
        assert a.snapshot() == b.snapshot()
        assert a.clock == b.clock and a.counts == b.counts

    def test_distinct_seeds_differ(self):
        a = make_engine(seed=0)
        b = make_engine(seed=1)
        for eng in (a, b):
            eng.run_until(200 / (25 * 2.0))              # 200 attempts
        assert a.snapshot() != b.snapshot() or a.counts != b.counts


class TestRunUntil:
    def test_clock_lands_on_horizon(self):
        eng = make_engine(seed=5)
        eng.run_until(3.0)
        assert eng.clock == 3.0

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_rejected(self, T):
        eng = make_engine(seed=5, d=1, k=1)                  # 3 sites
        with pytest.raises(InvalidParameterError, match="finite"):
            eng.run_until(T)
        assert eng.clock == 0.0 and sum(eng.counts.values()) == 0

    def test_past_horizon_rejected(self):
        eng = make_engine(seed=5)
        eng.run_until(2.0)
        with pytest.raises(InvalidParameterError):
            eng.run_until(1.0)

    @pytest.mark.parametrize("lam, T, topo", [
        (1e300, 20.0, lambda: build_topology(1, 1, TORUS)),        # 3 sites
        (1.0, 1e17, lambda: build_topology(1, 1, TORUS)),
        (1.0, 2.0 ** 49, lambda: explicit_topology(4, [(0, 1)])),  # 2**52
    ], ids=["lambda-1e300", "horizon-1e17", "exactly-2**52"])
    def test_horizon_the_clock_cannot_count_refused(self, lam, T, topo):
        """T*N*(1 + lambda) >= 2**52 is refused before anything is drawn
        (a run that is not refused fails at its first block)."""
        class NoBlock:
            def on_attempts(self, clocks, sites, growth):
                raise AssertionError("run_until drew a block")

        eng = ForestFireEngine(topo(), lam, make_rng(5, 0))
        with pytest.raises(CapacityError, match="2\\*\\*52"):
            eng.run_until(T, observers=(NoBlock(),))
        assert eng.clock == 0.0 and sum(eng.counts.values()) == 0
        assert eng.rng.random() == make_rng(5, 0).random()

    def test_trajectory_recorder(self):
        """One line per attempt of the reference engine, written one
        non-empty block at a time, over calls that cross a chunk, land on
        the clock, or end before their first draw."""
        class Writes(list):
            write = list.append

        topo = build_topology(2, 2, TORUS)
        eng = ForestFireEngine(topo, 1.0, make_rng(7, 0))
        ref = LabelledEngine(topo, 1.0, make_rng(7, 0))
        rate = topo.n_sites * 2.0
        fh, log = Writes(), CallLog()
        # horizons in expected attempts; "short" ends before the next draw
        for step in (300.0, 0.0, "short", 1.5 * 4096, 40.0, "short", 4096.0):
            if step == "short":
                T = eng.clock + ref._dt[ref._i] / 2
            else:
                T = eng.clock + step / rate
            eng.run_until(T, observers=(TrajectoryRecorder(fh),))
            ref.run_until(T, observers=(log,))
            assert eng.clock == ref.clock == T and eng.occ == ref.occ
        lines = "".join(fh).splitlines()
        assert len(lines) == sum(eng.counts.values()) > 2 * 4096
        assert lines == [f"{float(t)!r} {site} {GROWTH if g else IGNITION}"
                         for t, site, g in log.attempts]
        assert all(fh) and 1 < len(fh) < len(lines)


class TestStreamPreserved:
    """run_until consumes the same draws whatever is attached to it."""

    def finish(self, eng):
        return bytes(eng.occ), eng.clock, dict(eng.counts), dict(eng.effective)

    def test_matches_apply_event_reference(self):
        eng = make_engine(lam=0.6, seed=11)
        ref = LabelledEngine(eng.topology, 0.6, make_rng(11, 0))
        for T in (2.5, 7.0):
            eng.run_until(T)
            while True:   # the draw past T is taken and discarded
                event = ref.next_event()
                if event.time > T:
                    break
                ref.apply_event(event)
            ref.clock = T
            assert self.finish(eng) == self.finish(ref)

    def test_observer_does_not_change_stream(self):
        class Counter:
            calls = changes = 0

            def accumulate(self, engine):
                assert engine.clock == 4.0
                self.calls += 1

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
        assert ob.calls == 1            # once per run_until

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

    def test_trajectory_recorder_does_not_change_stream(self, tmp_path):
        a, b = make_engine(seed=13), make_engine(seed=13)
        a.run_until(4.0)
        with open(tmp_path / "traj.txt", "w") as fh:
            b.run_until(4.0, observers=(TrajectoryRecorder(fh),))
        assert self.finish(a) == self.finish(b)

    def test_counts_written_back_when_on_attempt_raises(self):
        """on_attempts raises in the first block, which stays consumed."""
        class Stop(Exception):
            pass

        class StopAtFirstBlock:
            def on_attempts(self, clocks, sites, growth):
                self.clocks = clocks
                raise Stop

        eng = make_engine(seed=14)
        ob = StopAtFirstBlock()
        with pytest.raises(Stop):
            eng.run_until(10.0, observers=(ob,))
        assert sum(eng.counts.values()) == len(ob.clocks) > 1
        assert eng.clock == ob.clocks[-1]

    def test_one_observer_with_all_three_methods(self):
        """on_attempts sees every attempt once, in non-empty blocks, and
        on_event runs once per effective event, before the block that
        holds its attempt and at that attempt's clock; the stream is that
        of a bare run."""
        class Log:
            def __init__(self):
                self.calls = []

            def on_event(self, engine, changed):
                assert changed
                self.calls.append(("event", engine.clock))

            def on_attempts(self, clocks, sites, growth):
                assert len(clocks) == len(sites) == len(growth) > 0
                self.calls.append(("attempts", clocks))

            def accumulate(self, engine):
                self.calls.append(("accumulate", engine.clock))

        a, b = make_engine(seed=16), make_engine(seed=16)
        ob = Log()
        for T in (2.0, 4.0):
            a.run_until(T)
            b.run_until(T, observers=(ob,))
        assert self.finish(a) == self.finish(b)
        kinds = [kind for kind, _ in ob.calls]
        clocks = [t for kind, block in ob.calls if kind == "attempts"
                  for t in block]
        assert len(clocks) == sum(b.counts.values())
        assert clocks == sorted(clocks)
        assert kinds.count("event") == sum(b.effective.values())
        assert 0 < kinds.count("event") < len(clocks)
        assert kinds.count("accumulate") == 2
        events = []             # events whose block has not come yet
        for kind, x in ob.calls:
            if kind == "event":
                events.append(x)
            elif kind == "attempts":
                assert set(events) <= set(x)
                events = []
            else:
                assert events == []


class CallLog:
    """Observer keeping every state change (a growth as its site, a burn
    as the set of its sites) and accumulate call in ``calls``, and apart
    from them every attempt, blocks flattened, in ``attempts``."""

    def __init__(self):
        self.calls, self.attempts = [], []

    def on_event(self, engine, changed):
        burn = not engine.occ[changed[0]]
        self.calls.append(("event", engine.clock,
                           frozenset(changed) if burn else tuple(changed)))

    def on_attempts(self, clocks, sites, growth):
        self.attempts.extend(zip(clocks, sites, growth))

    def accumulate(self, engine):
        self.calls.append(("accumulate", engine.clock))


class Raising(CallLog):
    """A CallLog whose chosen method raises once, on the call that holds
    its n-th event or attempt."""

    class Stop(Exception):
        pass

    def __init__(self, method, n):
        super().__init__()
        self.method, self.left = method, n

    def _count(self, seen):
        if self.left > 0:
            self.left -= seen
            if self.left <= 0:
                raise self.Stop

    def on_event(self, engine, changed):
        super().on_event(engine, changed)
        if self.method == "on_event":
            self._count(1)

    def on_attempts(self, clocks, sites, growth):
        super().on_attempts(clocks, sites, growth)
        if self.method == "on_attempts":
            self._count(len(clocks))


REFERENCE_TOPOLOGIES = {
    "torus": lambda: build_topology(2, 3, TORUS),
    "window": lambda: build_topology(2, 3, WINDOW),
    "explicit": lambda: explicit_topology(
        12, [(i, (i + 1) % 12) for i in range(11)] + [(0, 11), (0, 6), (3, 9)]),
}


class TestAgainstReference:
    """The block-decoding engine against LabelledEngine, the scalar loop
    with a cluster-label index: the same state after every call, the
    same attempts, the same growths and the same burned sets."""

    def pair(self, mode, lam, seed):
        topo = REFERENCE_TOPOLOGIES[mode]()
        init = make_rng(seed, 1).integers(0, 2, topo.n_sites).tolist()
        return (ForestFireEngine(topo, lam, make_rng(seed, 0), init),
                LabelledEngine(topo, lam, make_rng(seed, 0), init))

    def assert_same(self, eng, ref):
        assert eng.occ == ref.occ
        assert eng.clock == ref.clock and eng._i == ref._i
        assert eng.counts == ref.counts and eng.effective == ref.effective

    @pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("mode", sorted(REFERENCE_TOPOLOGIES))
    def test_same_trajectory(self, mode, lam):
        eng, ref = self.pair(mode, lam, seed=21)
        rate = eng.topology.n_sites * (1.0 + lam)
        logs = CallLog(), CallLog()
        # horizons in expected attempts; "on" and "step" land exactly on
        # the clock of the third and the first draw ahead, which is taken,
        # not discarded
        ahead = {"on": 3, "step": 1}
        steps = [0.3, "on", 2.5, 0.0, "step", 3.5 * 4096, "on", 0.0, 1.0,
                 "step", "step", 0.2, 40.0, 4096.0, "step", 0.7]
        for step in steps:
            if step in ahead:
                dts = ref._dt[ref._i:ref._i + ahead[step]]
                assert len(dts) == ahead[step]
                T = eng.clock
                for dt in dts:
                    T += dt
            else:
                T = eng.clock + step / rate
            eng.run_until(T, observers=(logs[0],))
            ref.run_until(T, observers=(logs[1],))
            self.assert_same(eng, ref)
        assert logs[0].calls == logs[1].calls
        assert logs[0].attempts == logs[1].attempts
        kinds = [call[0] for call in logs[0].calls]
        assert kinds.count("accumulate") == len(steps)
        assert eng.effective["burn"] > 0
        assert sum(eng.counts.values()) > 3 * 4096

    @pytest.mark.parametrize("n", [7, 5000])
    @pytest.mark.parametrize("method", ["on_attempts", "on_event"])
    def test_same_state_after_a_raising_callback(self, method, n):
        """A raising on_attempts leaves its whole block consumed, so the
        reference, whose blocks hold one attempt, raises at that block's
        last attempt.  A raising on_event cuts its block short, and the
        engine never passes that partial block on."""
        eng, ref = self.pair("torus", 1.0, seed=22)
        log = Raising(method, n)
        with pytest.raises(Raising.Stop):
            eng.run_until(1e4, observers=(log,))
        taken = sum(eng.counts.values())
        ref_log = Raising(method, taken if method == "on_attempts" else n)
        with pytest.raises(Raising.Stop):
            ref.run_until(1e4, observers=(ref_log,))
        self.assert_same(eng, ref)
        assert log.calls == ref_log.calls
        cut, seen = len(log.attempts), len(ref_log.attempts)
        assert log.attempts == ref_log.attempts[:cut]
        if method == "on_attempts":
            assert cut == seen == taken >= n
            assert eng.clock == log.attempts[-1][0]
        else:       # the attempt whose on_event raised is never passed on
            assert cut < seen == taken - 1
            assert eng.clock == log.calls[-1][1]
        T = eng.clock + 5.0
        for engine, lg in ((eng, log), (ref, ref_log)):    # resumes alike
            engine.run_until(T, observers=(lg,))
        self.assert_same(eng, ref)
        assert log.calls == ref_log.calls
        assert log.attempts == (ref_log.attempts[:cut]
                                + ref_log.attempts[seen:])
