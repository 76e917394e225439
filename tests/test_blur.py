import math
import os

import pytest

from ffp_lab.blur import (blur_decay_experiment, blur_geometry, epsilon_for,
                          init_blur)
from ffp_lab.engine import GROWTH, IGNITION, ForestFireEngine
from ffp_lab.errors import InvalidParameterError
from ffp_lab.lattice import (TORUS, WINDOW, box_coords, build_topology,
                             cluster_of, site_boundary)
from ffp_lab.rng import make_rng
from oracles import Event, LabelledEngine


def torus(k=3):
    return build_topology(2, k, TORUS)


def idx(topo, *coords):
    return [topo.index_of[c] for c in coords]


def update_blur(blur, topo, event, config_after):
    """Offline oracle of the marking rule: after an effective growth in
    the closure, a fresh traversal finds the grown cluster, and if it or
    its boundary holds a mark, the cluster (within the closure) is marked."""
    closure = blur.geometry.closure
    if event.kind != GROWTH or event.site not in closure:
        return
    cluster = cluster_of(config_after, topo, event.site)
    touched = set(cluster)
    for m in cluster:
        touched.update(topo.adjacency[m])
    if touched & blur.flags:
        blur.flags.update(cluster & closure)


def init(cfg, topo, S):
    return tracked(cfg, topo, S)[1]


def tracked(cfg, topo, S):
    """A reference engine on cfg, which applies chosen events, with the
    BlurTracker for S started on it."""
    engine = LabelledEngine(topo, 1.0, make_rng(0), cfg)
    return engine, init_blur(engine, blur_geometry(topo, S))


def apply(engine, tracker, event):
    changed = engine.apply_event(event)
    if changed:
        tracker.on_event(engine, changed)


class TestEpsilonFor:
    def test_reference_values(self):
        assert epsilon_for(1, 6) == pytest.approx(0.0425596, abs=5e-7)
        assert epsilon_for(1, 6, 0.5) == pytest.approx(0.0212798, abs=5e-7)

    def test_closed_form(self):
        for m in range(1, 11):
            for dg in (4, 6, 12):
                eps = epsilon_for(m, dg)
                want = -math.log(1.0 - 1.0 / (4 * m * dg))
                assert abs(eps - want) <= 1e-12 * want
                assert 1.0 - math.exp(-eps) < 1.0 / (4 * m * dg)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            epsilon_for(0, 6)
        with pytest.raises(InvalidParameterError):
            epsilon_for(1, 6, 0.0)
        with pytest.raises(InvalidParameterError):
            epsilon_for(1, 6, 1.5)


class TestInitBlur:
    def test_boundary_always_flagged(self):
        topo = torus()
        blur = init([0] * topo.n_sites, topo, idx(topo, (0, 0)))
        assert blur.flags == set(blur.geometry.boundary)

    def test_cluster_touching_boundary_flagged(self):
        topo = torus()
        cfg = [0] * topo.n_sites
        # path from outside into the closure of S = {origin}
        for c in [(0, 2), (0, 1)]:
            cfg[topo.index_of[c]] = 1
        blur = init(cfg, topo, idx(topo, (0, 0)))
        assert topo.index_of[(0, 1)] in blur.flags

    def test_interior_cluster_not_flagged(self):
        topo = torus()
        S = idx(topo, *[c for c in topo.coords if max(map(abs, c)) <= 1])
        cfg = [0] * topo.n_sites
        cfg[topo.index_of[(0, 0)]] = 1  # isolated, far from N(S)
        blur = init(cfg, topo, S)
        assert topo.index_of[(0, 0)] not in blur.flags

    def test_flags_stay_inside_closure(self):
        topo = torus()
        cfg = [1] * topo.n_sites
        blur = init(cfg, topo, idx(topo, (0, 0)))
        assert blur.flags <= blur.geometry.closure

    def test_window_fit_validation(self):
        topo = torus(2)
        with pytest.raises(InvalidParameterError):
            blur_geometry(topo, idx(topo, (2, 0)))


def brute_flags(cfg, topo, S):
    """The definition: N(S), plus every occupied cluster whose closed
    neighbourhood meets N(S), restricted to S | N(S)."""
    s = set(S)
    boundary = {j for i in s for j in topo.adjacency[i]} - s
    flags = set(boundary)
    for i in range(topo.n_sites):
        if cfg[i]:
            cluster = cluster_of(cfg, topo, i)
            closed = set(cluster).union(*(topo.adjacency[m] for m in cluster))
            if closed & boundary:
                flags |= cluster & (s | boundary)
    return flags


class TestBlurGeometry:
    @pytest.mark.parametrize("mode, k, r", [(TORUS, 4, 1), (WINDOW, 4, 2),
                                            (WINDOW, 3, 0)])
    def test_one_geometry_serves_every_configuration(self, mode, k, r):
        topo = build_topology(2, k, mode)
        S = idx(topo, *box_coords(2, r))
        geometry = blur_geometry(topo, S)
        assert set(geometry.probe) <= geometry.S
        rng = make_rng(23, k, r)
        for rep in range(60):
            cfg = [int(u < rep / 60) for u in rng.random(topo.n_sites)]
            engine = ForestFireEngine(topo, 1.0, make_rng(0), cfg)
            blur = init_blur(engine, geometry)
            assert blur.geometry is geometry
            assert blur.flags == brute_flags(cfg, topo, S)
            assert blur.flags is not geometry.boundary
            blur.flags.update(range(topo.n_sites))   # a replica's own marks
        assert geometry == blur_geometry(topo, S)
        assert geometry.boundary == frozenset(site_boundary(topo, S))


class TestUpdateBlur:
    """The marking rule as BlurTracker applies it to engine events."""

    def test_growth_next_to_flag_spreads(self):
        topo = torus()
        engine, tracker = tracked([0] * topo.n_sites, topo, idx(topo, (0, 0)))
        x = topo.index_of[(0, 0)]
        apply(engine, tracker, Event(0.1, x, GROWTH))
        assert engine.occ[x] and x in tracker.flags

    def test_growth_far_away_ignored(self):
        topo = torus()
        engine, tracker = tracked([0] * topo.n_sites, topo, idx(topo, (0, 0)))
        y = topo.index_of[(2, 2)]
        before = set(tracker.flags)
        apply(engine, tracker, Event(0.1, y, GROWTH))
        assert engine.occ[y] and tracker.flags == before

    def test_ignition_never_changes_flags(self):
        topo = torus()
        engine, tracker = tracked([1] * topo.n_sites, topo, idx(topo, (0, 0)))
        before = set(tracker.flags)
        apply(engine, tracker, Event(0.1, 0, IGNITION))
        assert not any(engine.occ) and tracker.flags == before


class TestTrackerAgainstReplay:
    def test_tracker_matches_offline_updates(self):
        topo = torus(3)
        S = idx(topo, *[c for c in topo.coords if max(map(abs, c)) <= 1])
        rng = make_rng(17, 0)
        eng = ForestFireEngine(topo, 1.0, rng)
        geometry = blur_geometry(topo, S)
        blur_live = init_blur(eng, geometry)
        blur_replay = init_blur(eng, geometry)
        flag_history = [set(blur_live.flags)]

        class Replay:
            """Feeds each state change to the live tracker and, as an
            event, to the offline rule."""

            def on_event(self, engine, changed):
                blur_live.on_event(engine, changed)
                kind = GROWTH if engine.occ[changed[0]] else IGNITION
                update_blur(blur_replay, topo,
                            Event(engine.clock, changed[0], kind), engine.occ)
                flag_history.append(set(blur_live.flags))

        eng.run_until(800 / (topo.n_sites * 2.0), observers=(Replay(),))
        assert len(flag_history) > 200
        assert blur_live.flags == blur_replay.flags
        # monotone and contained in the closure throughout
        for a, b in zip(flag_history, flag_history[1:]):
            assert a <= b
        assert blur_live.flags <= blur_live.geometry.closure


class TestDecayExperiment:
    def test_rows_and_trend(self):
        rows = blur_decay_experiment(2, 1.0, (0, 0), 0, [1, 3], [0.02], 150,
                                     {"kind": "bernoulli", "p": 0.3}, seed=2)
        assert [r.L for r in rows] == [1, 3]
        for r in rows:
            assert 0.0 <= r.ci_low <= r.p_hat <= r.ci_high <= 1.0
            assert r.replicas == 150
        assert rows[1].p_hat <= rows[0].p_hat

    def test_jobs_deterministic(self):
        args = (2, 1.0, (0, 0), 0, [2, 1], [0.05], 40,
                {"kind": "bernoulli", "p": 0.4}, 5)
        assert blur_decay_experiment(*args, jobs=1) == \
            blur_decay_experiment(*args, jobs=3)

    def test_one_pool_for_every_L(self, forks):
        """The whole (L, replica) grid fans out once, over real forked
        workers; the serial run forks none."""
        args = (2, 1.0, (0, 0), 0, [3, 1], [0.02, 0.1], 12,
                {"kind": "bernoulli", "p": 0.4}, 7)
        serial = blur_decay_experiment(*args, jobs=1)
        assert blur_decay_experiment(*args, jobs=3) == serial
        assert [len(pids) for pids in forks] == \
            [0, min(3, len(os.sched_getaffinity(0)))]

    def test_replicas_required(self):
        with pytest.raises(InvalidParameterError, match="at least one replica"):
            blur_decay_experiment(2, 1.0, (0, 0), 0, [1], [0.05], 0,
                                  {"kind": "vacant"}, 1)

    def test_one_replica_runs(self):
        """Kills `replicas < 1` -> `replicas <= 1` (or `< 2`)."""
        [row] = blur_decay_experiment(2, 1.0, (0, 0), 0, [1], [0.05], 1,
                                      {"kind": "vacant"}, 1)
        assert row.replicas == 1

    def test_times_required(self, monkeypatch):
        def no_lattice(*args):
            raise AssertionError("lattice built before the times were checked")
        monkeypatch.setattr("ffp_lab.lattice.build_topology", no_lattice)
        with pytest.raises(InvalidParameterError, match="at least one time"):
            blur_decay_experiment(2, 1.0, (0, 0), 0, [1], [], 5,
                                  {"kind": "vacant"}, 1)
