"""The blur process: a monotone domination of outside influence.

Given a start time and a finite site set S, the blur process marks the
sites of S and its boundary N(S) whose state might depend on the
configuration outside S at the start time.  N(S) sites are permanent
marks; at the start every cluster whose closed neighborhood meets N(S)
is marked; afterwards a growth event that connects a cluster to a
marked site marks the whole cluster.  Marks never disappear, even when
the marked site burns down.

Conventions (clusters of vacant sites are never defined by open paths):
the closed cluster of an occupied site x is C(x) together with its
boundary; for a vacant site it is {x} alone.  Vacant sites therefore
pick up marks only by becoming occupied next to one, which matches the
monotone growth of the marked set through births.
"""

import math
from dataclasses import dataclass

from .engine import ForestFireEngine
from .errors import InvalidParameterError
# cluster_of goes uncalled here, but the benchmark's tracer wraps blur.cluster_of
from .lattice import (TORUS, WINDOW, Topology, box_coords, cluster_of,
                      site_boundary)
from .rng import make_rng
from .stats import wilson_interval


@dataclass(frozen=True)
class BlurGeometry:
    """What every replica's blur process of S shares on one topology."""

    topology: Topology
    S: frozenset
    boundary: frozenset          # N(S), permanently marked
    closure: frozenset           # S | N(S)
    probe: tuple                 # sorted sites of S next to N(S)


def blur_geometry(topology: Topology, S) -> BlurGeometry:
    """S, N(S), the closure and the probe set of a blur process.  A box
    topology must contain S with one spare ring so that the true lattice
    boundary of S exists (and, on the torus, carries no wrap edges)."""
    s_idx = frozenset(topology.site_index(x) for x in S)
    if topology.mode in (TORUS, WINDOW) and any(
            max(map(abs, topology.coords[i])) >= topology.radius
            for i in s_idx):
        raise InvalidParameterError(
            "window too small: the blur set must lie strictly inside the box")
    boundary = site_boundary(topology, s_idx)
    closure = s_idx | boundary
    # N(S) is marked from the start, and a cluster whose closed
    # neighbourhood meets N(S) enters S, if at all, at a site of S next
    # to N(S): those sites are the only ones to probe.
    near = set().union(*(topology.adjacency[b] for b in boundary))
    return BlurGeometry(topology, s_idx, boundary, closure,
                        tuple(sorted(near & s_idx)))


def init_blur(engine, geometry: BlurGeometry) -> "BlurTracker":
    """The blur process of S started on an engine's configuration: N(S)
    plus the cluster of every occupied probe site, flooded by the
    engine's ``cluster_members``.  No "touches a mark" test is needed here:
    a probe-set cluster touches N(S) by construction."""
    tracker = BlurTracker(geometry)
    occ, seen = engine.occ, set()
    for z in geometry.probe:
        if occ[z] and z not in seen:
            cluster = engine.cluster_members(z)
            seen.update(cluster)
            tracker.mark(cluster)
    return tracker


class BlurTracker:
    """Engine observer holding one replica's marks of a blur process.

    Only an effective growth inside the closure of S can create marks: a
    newly grown site joins its neighbors into one cluster, and if the
    closed cluster touches a marked site the whole cluster (within the
    closure) is marked.  Burns leave marks untouched -- being marked is
    a property of the site, not of the tree.  A single pass suffices
    because vacant sites are never newly marked, so marks cannot jump a
    vacant gap within one event.  The cluster comes from the engine's
    ``cluster_members``, flooded on demand from its occupancy.
    """

    def __init__(self, geometry: BlurGeometry):
        self.geometry = geometry
        self.closure = geometry.closure
        self.flags = set()
        self.mark(geometry.boundary)    # N(S) stays marked for good

    def mark(self, cluster):
        self.flags.update(self.closure.intersection(cluster))

    def on_event(self, engine, changed):
        site = changed[0]
        if not engine.occ[site] or site not in self.closure:
            return                      # a burn, or a growth outside
        cluster = engine.cluster_members(site)
        flags, adjacency = self.flags, self.geometry.topology.adjacency
        for m in cluster:
            if m in flags or not flags.isdisjoint(adjacency[m]):
                self.mark(cluster)
                return


def epsilon_for(m: int, d_G: int, safety: float = 1.0) -> float:
    """Largest time for which a unit-rate clock fires with probability
    below 1/(4*m*d_G), scaled by a safety fraction.

    Solves 1 - exp(-eps) = 1/(4*m*d_G) and returns safety * eps, so the
    strict inequality holds for any safety in (0, 1].
    """
    if m < 1 or d_G < 1:
        raise InvalidParameterError("m and d_G must be at least 1")
    if not 0.0 < safety <= 1.0:
        raise InvalidParameterError("safety must lie in (0, 1]")
    u = 1.0 / (4.0 * m * d_G)
    eps = safety * (-math.log1p(-u))
    # keep the firing probability strictly below u despite float rounding
    while 1.0 - math.exp(-eps) >= u or -math.expm1(-eps) >= u:
        eps = math.nextafter(eps, 0.0)
    return eps


@dataclass
class DecayRow:
    L: int
    t: float
    flagged: int
    replicas: int
    p_hat: float
    ci_low: float
    ci_high: float


def _decay_one(payload, r):
    """First marking time of the probe site in item r of the L-major
    (L, replica) grid (parallel worker); 0 if it is marked at the start."""
    setups, lam, t_max, seed, replicas = payload
    L, x_idx, geometry, sampler = setups[r // replicas]
    rng = make_rng(seed, 31, L, r % replicas)
    cfg = sampler.sample(rng)
    engine = ForestFireEngine(geometry.topology, lam, rng, cfg)
    tracker = init_blur(engine, geometry)
    if x_idx in tracker.flags:
        return 0.0
    watcher = _FirstFlagWatcher(tracker, x_idx)
    engine.run_until(t_max, observers=(watcher,))
    return watcher.flag_time


def blur_decay_experiment(d, lam, x_coord, r_I, L_list, t_list, replicas,
                          init, seed, margin=1, jobs=1) -> list[DecayRow]:
    """Frequency of the probe site being marked at each (L, t).

    For each L the process runs on a window of radius r_I + L + margin
    with S the box of radius r_I + L; the probe site's first marking
    time is recorded and thresholded against each t.  Every L is set up
    first, and the whole (L, replica) grid fans out once.
    """
    from .lattice import build_topology
    from .parallel import run_chunked
    from .sampling import make_init_sampler
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    if not t_list:
        raise InvalidParameterError("need at least one time")
    t_list = sorted(t_list)
    setups = []
    for L in sorted(L_list):
        topology = build_topology(d, r_I + L + margin, WINDOW)
        setups.append((L, topology.site_index(x_coord),
                       blur_geometry(topology, box_coords(d, r_I + L)),
                       make_init_sampler(topology, lam, init, seed,
                                         stream=(30, L))))
    payload = (setups, lam, t_list[-1], seed, replicas)
    flag_times = run_chunked(_decay_one, payload, len(setups) * replicas, jobs)
    rows = []
    for i, (L, *_) in enumerate(setups):
        times = flag_times[i * replicas:(i + 1) * replicas]
        for t in t_list:
            flagged = int(sum(ft <= t for ft in times))
            lo, hi = wilson_interval(flagged, replicas)
            rows.append(DecayRow(L, t, flagged, replicas,
                                 flagged / replicas, float(lo), float(hi)))
    return rows


class _FirstFlagWatcher:
    """Engine observer recording when a blur process first marks the
    probe site, unmarked at the start; the process is not followed after
    that."""

    def __init__(self, tracker: BlurTracker, probe):
        self.tracker = tracker
        self.probe = probe
        self.flag_time = float("inf")

    def on_event(self, engine, changed):
        if self.flag_time == float("inf"):
            self.tracker.on_event(engine, changed)
            if self.probe in self.tracker.flags:
                self.flag_time = engine.clock
