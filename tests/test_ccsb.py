import math

import numpy as np
import pytest

from ffp_lab.ccsb import CcsbQuery, ccsb_check, cluster_size_tail
from ffp_lab import lattice, sampling
from ffp_lab.engine import ForestFireEngine
from ffp_lab.errors import CapacityError, InvalidParameterError
from ffp_lab.lattice import TORUS, build_topology
from ffp_lab.rng import make_rng
from ffp_lab.sampling import (BernoulliSampler, ReplicaSampler, SnapshotBank,
                              VacantSampler, pack_config, unpack_config)


def torus(k=2):
    return build_topology(2, k, TORUS)


class TestQuery:
    def test_probe_outside_d(self):
        topo = torus()
        with pytest.raises(InvalidParameterError):
            CcsbQuery.build(topo, [(0, 0)], [(0, 0)], (0, 0), 1, 0.5)

    def test_negative_m(self):
        topo = torus()
        with pytest.raises(InvalidParameterError):
            CcsbQuery.build(topo, [], [], (0, 0), -1, 0.5)


class TestVerdicts:
    def test_vacant_sampler_always_holds(self):
        topo = torus()
        sampler = VacantSampler(topo)
        queries = [CcsbQuery.build(topo, [], [], (0, 0), m, delta)
                   for m in (0, 1, 5) for delta in (0.0, 0.1, 1.0)]
        for rep in ccsb_check(sampler, topo, queries, 200):
            assert rep.verdict == "holds"
            assert rep.joint_count == 0

    def test_empty_b_reduces_to_unconditioned_tail(self):
        # with B = D = empty, the conditioning event always holds
        topo = torus()
        sampler = BernoulliSampler(topo, 0.4)
        q = CcsbQuery.build(topo, [], [], (0, 0), 0, 1.0)
        [rep] = ccsb_check(sampler, topo, [q], 300, seed=1)
        assert rep.cond_count == 300
        # delta = 1 bounds any probability, so the verdict cannot be violated
        assert rep.verdict == "holds"

    def test_rare_conditioning_is_inconclusive(self):
        topo = torus()
        sampler = BernoulliSampler(topo, 0.01)
        # conditioning on a specific 2-cluster is essentially never seen
        q = CcsbQuery.build(topo, [(0, 0)], [(0, 0), (0, 1)], (2, 2), 0, 0.5)
        [rep] = ccsb_check(sampler, topo, [q], 100, seed=2)
        assert rep.verdict == "inconclusive"

    def test_delta_zero_violated_when_tail_common(self):
        topo = torus()
        sampler = BernoulliSampler(topo, 0.9)
        q = CcsbQuery.build(topo, [], [], (0, 0), 0, 0.0)
        [rep] = ccsb_check(sampler, topo, [q], 300, seed=3)
        assert rep.verdict == "violated"

    def test_replicas_required(self):
        topo = torus()
        q = CcsbQuery.build(topo, [], [], (0, 0), 0, 0.5)
        with pytest.raises(InvalidParameterError):
            ccsb_check(VacantSampler(topo), topo, [q], 0)

    def test_one_replica_runs(self):
        """Kills `replicas < 1` -> `replicas <= 1` (or `< 2`)."""
        topo = torus()
        q = CcsbQuery.build(topo, [], [], (0, 0), 0, 0.5)
        [rep] = ccsb_check(VacantSampler(topo), topo, [q], 1)
        assert rep.replicas == 1

    def test_one_pass_matches_one_call_per_query(self):
        topo = torus()
        sampler = BernoulliSampler(topo, 0.5)
        queries = [CcsbQuery.build(topo, [(0, 0)], [], (1, 1), m, 0.4)
                   for m in (0, 1, 3, 6)]
        together = ccsb_check(sampler, topo, queries, 300, seed=5)
        alone = [ccsb_check(sampler, topo, [q], 300, seed=5)[0]
                 for q in queries]
        assert together == alone
        assert together[0].joint_count > together[-1].joint_count

    def test_queries_share_conditioning_and_probe(self):
        topo = torus()
        queries = [CcsbQuery.build(topo, [], [], (0, 0), 0, 0.5),
                   CcsbQuery.build(topo, [], [], (1, 0), 0, 0.5)]
        with pytest.raises(InvalidParameterError):
            ccsb_check(VacantSampler(topo), topo, queries, 10)


class TestTail:
    def test_monotone_in_m(self):
        topo = torus()
        for sampler in (BernoulliSampler(topo, 0.5),
                        SnapshotBank(topo, 1.0, 150, 1.0, 30.0, seed=4)):
            rep = cluster_size_tail(sampler, topo, (0, 0),
                                    [0, 1, 2, 4, 8], 200, seed=4)
            phats = [r.p_hat for r in rep.rows]
            assert phats == sorted(phats, reverse=True)
            assert rep.max_size <= topo.n_sites

    def test_vacant_tail_is_zero(self):
        topo = torus()
        rep = cluster_size_tail(VacantSampler(topo), topo, (0, 0), [0, 1], 50)
        assert all(r.p_hat == 0.0 for r in rep.rows)
        assert rep.max_size == 0

    def test_one_replica_runs_and_zero_is_refused(self):
        """Kills `replicas < 1` -> `replicas <= 1` (or `< 2`), and
        -> `replicas < 0`."""
        topo = torus()
        rep = cluster_size_tail(VacantSampler(topo), topo, (0, 0), [0], 1)
        assert rep.rows[0].replicas == 1
        with pytest.raises(InvalidParameterError, match="at least one replica"):
            cluster_size_tail(VacantSampler(topo), topo, (0, 0), [0], 0)

    def test_sampler_mode_reported(self):
        topo = torus()
        rep = cluster_size_tail(VacantSampler(topo), topo, (0, 0), [0], 10)
        assert rep.sampler_mode == "vacant"


class TestBank:
    def test_over_the_bound_is_refused_before_any_engine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(sampling, "ForestFireEngine", refuse)
        monkeypatch.setattr(lattice, "MAX_BANK_SITES", 25 * 10)
        topo = torus()                          # 25 sites
        with pytest.raises(CapacityError, match="site-snapshots"):
            SnapshotBank(topo, 1.0, 11, 1.0, 5.0, seed=0)
        with pytest.raises(AssertionError):     # at the bound it is built
            SnapshotBank(topo, 1.0, 10, 1.0, 5.0, seed=0)

    def test_codec_is_little_packbits_and_round_trips(self):
        rng = np.random.default_rng(3)
        for n in (*range(1, 18), 81, 625):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            packed = pack_config(bits.tobytes())
            assert packed == np.packbits(bits, bitorder="little").tobytes()
            assert unpack_config(packed, n) == bits.tobytes()
        assert pack_config(bytes([1, 0, 0, 0, 0, 0, 0, 0, 1])) == b"\x01\x01"

    def test_bank_packs_the_chain_it_ran(self):
        """One bit per site held, and each snapshot handed out is the
        engine's snapshot at its time on the bank's stream."""
        topo = build_topology(2, 3, TORUS)      # 49 sites: 7 bytes each
        bank = SnapshotBank(topo, 1.0, 12, 0.5, 4.0, seed=9, stream=(2,))
        engine = ForestFireEngine(topo, 1.0, make_rng(9, 2))
        engine.run_until(4.0)
        expected = []
        for i in range(12):
            engine.run_until(4.0 + (i + 1) * 0.5)
            expected.append(engine.snapshot())
        assert len(bank) == 12
        assert len(bank._packed) == 12 * 7
        assert list(bank.configs()) == expected
        assert len(set(expected)) > 1
        i = int(make_rng(1).integers(12))
        assert bank.sample(make_rng(1)) == expected[i]
        buckets = bank.buckets([(0, 0)])
        assert sorted(i for idx in buckets.values() for i in idx) == \
            list(range(12))
        for code, idx in buckets.items():
            assert all(expected[i][topo.index_of[(0, 0)]] == code for i in idx)

    def test_one_snapshot_builds_and_zero_is_refused(self):
        """Kills `n_snapshots < 1` -> `n_snapshots <= 1` (or `< 2`), and
        -> `n_snapshots < 0`."""
        topo = torus()
        assert len(SnapshotBank(topo, 1.0, 1, 1.0, 5.0, seed=0)) == 1
        with pytest.raises(InvalidParameterError, match="at least one snapshot"):
            SnapshotBank(topo, 1.0, 0, 1.0, 5.0, seed=0)

    def test_least_spacing_builds_and_zero_is_refused(self):
        """Kills `spacing <= 0` -> `spacing < 0` (0 then builds) and
        -> `spacing <= 1` (the least positive float then fails)."""
        topo = torus()
        tiny = math.ulp(0.0)
        assert len(SnapshotBank(topo, 1.0, 3, tiny, 5.0, seed=0)) == 3
        with pytest.raises(InvalidParameterError, match="spacing"):
            SnapshotBank(topo, 1.0, 3, 0.0, 5.0, seed=0)


class TestReplicaSampler:
    def test_time_zero_runs_and_below_is_refused(self):
        """Kills `s < 0` -> `s <= 0` (s = 0 then fails) and -> `s < -1`
        (s = -ulp then builds).  At s = 0 a draw is the init draw, and
        the engine takes nothing more from the stream; at s = 1 the
        engine runs, which a shortcut at `s == 1` would skip."""
        topo = torus()
        init = BernoulliSampler(topo, 0.5)
        rng, ref = make_rng(5), make_rng(5)
        drawn = ReplicaSampler(topo, 1.0, 0.0, init).sample(rng)
        assert drawn == init.sample(ref)
        np.testing.assert_equal(rng.bit_generator.state,
                                ref.bit_generator.state)
        rng, ref = make_rng(5), make_rng(5)
        start = init.sample(ref)
        engine = ForestFireEngine(topo, 1.0, ref, start)
        ran = engine.run_until(1.0).snapshot()
        assert ran != start
        assert ReplicaSampler(topo, 1.0, 1.0, init).sample(rng) == ran
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            ReplicaSampler(topo, 1.0, -math.ulp(0.0), init)
