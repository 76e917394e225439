import pytest

from ffp_lab.ccsb import CcsbQuery, ccsb_check, cluster_size_tail
from ffp_lab import lattice, sampling
from ffp_lab.errors import CapacityError, InvalidParameterError
from ffp_lab.lattice import TORUS, build_topology
from ffp_lab.sampling import (BernoulliSampler, SnapshotBank, VacantSampler)


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
