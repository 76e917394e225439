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

from .engine import GROWTH, ForestFireEngine
from .errors import InvalidParameterError
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
    probe: tuple                 # sorted closed neighbourhood of N(S)


@dataclass
class BlurState:
    """One blur process of a set S: its shared geometry and own marks."""

    geometry: BlurGeometry
    flags: set

    def is_flagged(self, site: int) -> bool:
        return site in self.flags


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
    # A cluster's closure meets N(S) iff the cluster touches the closed
    # neighborhood of N(S).
    probe = set(boundary).union(*(topology.adjacency[b] for b in boundary))
    return BlurGeometry(topology, s_idx, boundary, s_idx | boundary,
                        tuple(sorted(probe)))


def init_blur(config, geometry: BlurGeometry) -> BlurState:
    """Initial marks: N(S) plus every cluster whose closure meets N(S)."""
    closure = geometry.closure
    flags = set(geometry.boundary)
    seen: set = set()
    for z in geometry.probe:
        if config[z] and z not in seen:
            cluster = cluster_of(config, geometry.topology, z)
            seen |= cluster
            flags.update(cluster & closure)
    return BlurState(geometry, flags)


class BlurTracker:
    """Engine listener keeping a BlurState in sync with a trajectory.

    Only an effective growth inside the closure of S can create marks: a
    newly grown site joins its neighbors into one cluster, and if the
    closed cluster touches a marked site the whole cluster (within the
    closure) is marked.  Burns leave marks untouched -- being marked is
    a property of the site, not of the tree.  A single pass suffices
    because vacant sites are never newly marked, so marks cannot jump a
    vacant gap within one event.  The cluster comes from the engine's
    incremental cluster index instead of a fresh traversal.
    """

    def __init__(self, blur: BlurState):
        self.blur = blur
        self.closure = blur.geometry.closure
        self.adjacency = blur.geometry.topology.adjacency

    def on_event(self, engine, event, changed):
        if event.kind != GROWTH or not changed:
            return
        flags, closure = self.blur.flags, self.closure
        if event.site not in closure:
            return
        cluster = engine.cluster_members(event.site)
        adjacency = self.adjacency
        for m in cluster:
            if m in flags or not flags.isdisjoint(adjacency[m]):
                flags.update(c for c in cluster if c in closure)
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
    if u >= 1.0:
        raise InvalidParameterError("4*m*d_G must exceed 1")
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


def _decay_chunk(payload, start, stop):
    """Per-replica first-marking times for one L (parallel worker)."""
    geometry, lam, x_idx, sampler, t_max, seed, L = payload
    topology = geometry.topology
    out = []
    for rep in range(start, stop):
        rng = make_rng(seed, 31, L, rep)
        cfg = sampler.sample(rng)
        engine = ForestFireEngine(topology, lam, rng, cfg)
        blur = init_blur(engine.occ, geometry)
        watcher = _FirstFlagWatcher(blur, x_idx)
        engine.run_until(t_max, listeners=(watcher,))
        out.append(watcher.flag_time)
    return out


def blur_decay_experiment(d, lam, x_coord, r_I, L_list, t_list, replicas,
                          init, seed, margin=1, max_sites=20000,
                          jobs=1) -> list[DecayRow]:
    """Frequency of the probe site being marked at each (L, t).

    For each L the process runs on a window of radius r_I + L + margin
    with S the box of radius r_I + L; the probe site's first marking
    time is recorded and thresholded against each t.
    """
    from .lattice import build_topology
    from .parallel import run_chunked
    from .sampling import make_init_sampler
    x_coord = tuple(x_coord)
    t_list = sorted(t_list)
    t_max = t_list[-1]
    rows = []
    for L in sorted(L_list):
        radius = r_I + L + margin
        topology = build_topology(d, radius, WINDOW)
        if topology.n_sites > max_sites:
            raise InvalidParameterError(
                f"window of radius {radius} exceeds {max_sites} sites")
        x_idx = topology.site_index(x_coord)
        geometry = blur_geometry(topology, box_coords(d, r_I + L))
        sampler = make_init_sampler(topology, lam, init, seed, stream=(30, L))
        payload = (geometry, lam, x_idx, sampler, t_max, seed, L)
        flag_times = run_chunked(_decay_chunk, payload, replicas, jobs)
        for t in t_list:
            flagged = int(sum(ft <= t for ft in flag_times))
            lo, hi = wilson_interval(flagged, replicas)
            rows.append(DecayRow(L, t, flagged, replicas,
                                 flagged / replicas, float(lo), float(hi)))
    return rows


class _FirstFlagWatcher(BlurTracker):
    """Blur tracker recording when the probe site is first marked."""

    def __init__(self, blur, probe):
        super().__init__(blur)
        self.probe = probe
        self.flag_time = 0.0 if blur.is_flagged(probe) else float("inf")

    def on_event(self, engine, event, changed):
        if self.flag_time < float("inf"):
            return
        super().on_event(engine, event, changed)
        if self.blur.is_flagged(self.probe):
            self.flag_time = event.time
