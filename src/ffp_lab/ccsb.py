"""Empirical checks of the conditioned cluster-size bound.

The bound compares, over sampled configurations, the joint frequency of
"the cluster at x is larger than m" with a conditioning event "the
cluster union of a set B equals a set D", against delta times the
conditioning frequency.  The bound is verified statistically at
user-supplied (m, delta); it is never derived.
"""

from dataclasses import dataclass

from .errors import InvalidParameterError
from .lattice import Topology, cluster_of, cluster_union
from .rng import make_rng
from .stats import wilson_interval

MIN_CONDITIONING_COUNT = 50


@dataclass(frozen=True)
class CcsbQuery:
    """One conditioned tail query: sets B, D, probe x, threshold m, bound delta."""

    B: frozenset
    D: frozenset
    x: int
    m: int
    delta: float

    @classmethod
    def build(cls, topology: Topology, B, D, x, m, delta):
        b = frozenset(topology.site_index(s) for s in B)
        d = frozenset(topology.site_index(s) for s in D)
        xi = topology.site_index(x)
        if xi in d:
            raise InvalidParameterError("probe site must lie outside D")
        if m < 0:
            raise InvalidParameterError("m must be nonnegative")
        if delta < 0:
            raise InvalidParameterError("delta must be nonnegative")
        return cls(b, d, xi, int(m), float(delta))


@dataclass
class CcsbReport:
    query: CcsbQuery
    replicas: int
    joint_count: int
    cond_count: int
    joint_hat: float
    cond_hat: float
    bound: float             # delta * cond_hat
    verdict: str             # holds | violated | inconclusive


def ccsb_check(sampler, topology: Topology, queries, replicas,
               seed=0) -> list[CcsbReport]:
    """Estimate both sides of the conditioned bound over sampled configs.

    The queries share B, D and x, so one pass over the configurations
    serves them all; each gets its own report.  The conditioning event
    is exact set equality of the cluster union of B with D.  Verdicts
    are CI-aware: a conditioning event observed fewer than
    MIN_CONDITIONING_COUNT times is inconclusive, and so is a comparison
    whose intervals straddle the bound.
    """
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    if not queries:
        return []
    if len({(q.B, q.D, q.x) for q in queries}) > 1:
        raise InvalidParameterError("queries must share B, D and x")
    B, D, x = queries[0].B, queries[0].D, queries[0].x
    rng = make_rng(seed, 40)
    sizes = []               # cluster size at x, where the conditioning holds
    for _ in range(replicas):
        cfg = sampler.sample(rng)
        if cluster_union(cfg, topology, B) == D:
            sizes.append(len(cluster_of(cfg, topology, x)))
    return [_report(q, replicas, sum(s > q.m for s in sizes), len(sizes))
            for q in queries]


def _report(query: CcsbQuery, replicas, joint, cond) -> CcsbReport:
    joint_hat = joint / replicas
    cond_hat = cond / replicas
    bound = query.delta * cond_hat
    joint_ci = wilson_interval(joint, replicas)
    cond_ci = wilson_interval(cond, replicas)

    if cond < MIN_CONDITIONING_COUNT:
        verdict = "inconclusive"
    elif joint == 0:
        verdict = "holds"
    elif joint_ci[1] <= query.delta * cond_ci[1]:
        verdict = "holds"
    elif joint_ci[0] > query.delta * cond_ci[1]:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return CcsbReport(query, replicas, joint, cond, joint_hat, cond_hat,
                      bound, verdict)


@dataclass
class TailRow:
    m: int
    exceed: int
    replicas: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass
class TailReport:
    rows: list
    max_size: int
    sampler_mode: str


def cluster_size_tail(sampler, topology: Topology, x, m_list, replicas,
                      seed=0) -> TailReport:
    """Empirical survival function of the cluster size at a probe site.

    On a finite graph the size is trivially bounded; the maximum
    observed size is reported in place of an infinite-cluster check.
    """
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    xi = topology.site_index(x)
    rng = make_rng(seed, 41)
    sizes = []
    for _ in range(replicas):
        cfg = sampler.sample(rng)
        sizes.append(len(cluster_of(cfg, topology, xi)))
    rows = []
    for m in sorted(m_list):
        exceed = sum(s > m for s in sizes)
        lo, hi = wilson_interval(exceed, replicas)
        rows.append(TailRow(int(m), exceed, replicas,
                            exceed / replicas, lo, hi))
    return TailReport(rows, max(sizes), getattr(sampler, "mode", "unknown"))
