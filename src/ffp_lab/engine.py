"""Exact event-driven simulation of the forest-fire process.

The dynamics follow the classical rules: every site carries a growth
clock of rate 1 and an ignition clock of rate lambda.  A growth attempt
occupies a vacant site (and does nothing on an occupied one); an
ignition attempt on an occupied site instantly vacates its whole
occupied cluster (and does nothing on a vacant one).

Events are sampled by superposition: with N sites the next event time is
exponential with rate N*(1+lambda), the site is uniform and the kind is
growth with probability 1/(1+lambda).  Attempts on wrong-state sites are
kept as no-ops, which makes the sampling exact regardless of the current
configuration.

Cluster membership is kept in a union-find over the occupied sites,
built at construction by one flood-fill labelling (Hoshen & Kopelman,
PRB 14, 3438, 1976) and merged by size on each growth.  Fires always
remove whole clusters, so a burn can simply reset the parent pointers
of the retired members; no fully dynamic connectivity structure is
needed.

``run_until`` drives two kinds of callbacks.  Observers follow state
changes, through two methods that are each optional: ``accumulate(engine,
dt)``, called once per stretch between state changes (with
``engine.clock`` at the start of the stretch) and once for the final
partial stretch, and ``on_event(engine, changed)``, right after each
effective event, with ``engine.clock`` at its time and the stretch
ending there already accumulated.  No-op attempts cost an
observer nothing.  Listeners see every attempt:
``on_event(engine, event, changed)``, where ``changed`` is empty for a
no-op.
"""

from typing import NamedTuple

from .errors import (EventOrderError, InvalidParameterError, InvalidSiteError,
                     InvalidStateError)
from .lattice import Topology

GROWTH = "growth"
IGNITION = "ignition"

_CHUNK = 4096


class Event(NamedTuple):
    time: float
    site: int
    kind: str


class _EventSampler:
    """Buffered sampler for (holding time, site, kind) triples.

    Draws are buffered in fixed-size chunks, so the random stream
    consumed depends only on the number of events drawn; the buffering
    is invisible to reproducibility.  The chunk is held as memoryviews,
    whose items index as Python floats and ints at no per-chunk
    conversion cost; ``i`` is the next unread position.
    """

    def __init__(self, rng, n_sites, lam):
        self.rng = rng
        self.n = n_sites
        self.scale = 1.0 / (n_sites * (1.0 + lam))
        self.p_growth = 1.0 / (1.0 + lam)
        self.i = _CHUNK

    def refill(self):
        rng = self.rng
        self.dt = memoryview(rng.exponential(self.scale, _CHUNK))
        self.site = memoryview(rng.integers(0, self.n, _CHUNK))
        self.u = memoryview(rng.random(_CHUNK))
        self.i = 0

    def draw(self):
        if self.i == _CHUNK:
            self.refill()
        i = self.i
        self.i = i + 1
        kind = GROWTH if self.u[i] < self.p_growth else IGNITION
        return self.dt[i], self.site[i], kind


class ForestFireEngine:
    """One forest-fire trajectory on a finite topology.

    An engine owns its configuration, clock, cluster index and random
    stream; it is single-threaded but cheap to replicate with
    independent streams.
    """

    def __init__(self, topology: Topology, lam: float, rng, init_config=None):
        if lam <= 0:
            raise InvalidParameterError("lambda must be positive")
        self.topology = topology
        self.lam = float(lam)
        self.rng = rng
        self.clock = 0.0
        n = topology.n_sites
        self.occ = [0] * n if init_config is None else [int(v) for v in init_config]
        if len(self.occ) != n:
            raise InvalidParameterError("initial configuration length mismatch")
        self.counts = {GROWTH: 0, IGNITION: 0}
        self.effective = {GROWTH: 0, "burn": 0}
        self._sampler = _EventSampler(rng, n, self.lam) if n else None

        # Members lists live at roots.  A labelled site points at a lower
        # root, so an occupied r with parent[r] == r starts a new cluster.
        occ, adj = self.occ, topology.adjacency
        parent = self._parent = list(range(n))
        members = self._members = {}
        for r in range(n):
            if occ[r] and parent[r] == r:
                cluster = members[r] = [r]
                for i in cluster:       # the list grows while it is read
                    for j in adj[i]:
                        if occ[j] and parent[j] != r:
                            parent[j] = r
                            cluster.append(j)

    # ---- cluster index ----

    def _find(self, i):
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def cluster_members(self, site) -> list[int]:
        """Members of the occupied cluster of a site ([] if vacant)."""
        i = self.topology.site_index(site)
        if not self.occ[i]:
            return []
        return self._members[self._find(i)]

    # ---- dynamics ----

    def _occupy(self, site):
        """Growth on a vacant site: union by size with the cluster of each
        occupied neighbour, found with path compression; the grown site's
        root wins a tie."""
        occ, parent, members = self.occ, self._parent, self._members
        occ[site] = 1
        parent[site] = root = site
        mine = members[site] = [site]
        for j in self.topology.adjacency[site]:
            if occ[j]:
                other = j
                while parent[other] != other:
                    other = parent[other]
                while parent[j] != other:
                    parent[j], j = other, parent[j]
                if other != root:
                    theirs = members[other]
                    if len(mine) < len(theirs):
                        root, other, mine, theirs = other, root, theirs, mine
                    parent[other] = root
                    mine.extend(theirs)
                    del members[other]

    def _burn(self, site) -> list[int]:
        """Vacate the cluster of an occupied site; returns its members."""
        members = self._members.pop(self._find(site))
        occ, parent = self.occ, self._parent
        for m in members:
            occ[m] = 0
            parent[m] = m
        return members

    def next_event(self) -> Event:
        """Sample the next event and advance the clock to it."""
        if self._sampler is None:
            raise InvalidStateError("engine has no sites")
        dt, site, kind = self._sampler.draw()
        self.clock += dt
        return Event(self.clock, site, kind)

    def apply_event(self, event: Event) -> list[int]:
        """Apply one event; returns the list of sites whose state flipped."""
        if event.time < self.clock:
            raise EventOrderError(
                f"event at {event.time} is older than clock {self.clock}")
        site, kind = event.site, event.kind
        if not 0 <= site < len(self.occ):
            raise InvalidSiteError(f"site index {site} out of range")
        if kind not in self.counts:
            raise InvalidParameterError(f"unknown event kind {kind!r}")
        self.clock = event.time
        self.counts[kind] += 1
        if kind == GROWTH:
            if self.occ[site]:
                return []
            self._occupy(site)
            self.effective[GROWTH] += 1
            return [site]
        if not self.occ[site]:
            return []
        self.effective["burn"] += 1
        return self._burn(site)

    def run_until(self, T, observers=(), listeners=()):
        """Advance the trajectory to time T.

        Observers get, for the methods they define, ``accumulate(engine,
        dt)`` once per stretch of constant state, with the exact holding
        time, including the final partial stretch to T, and
        ``on_event(engine, changed)`` after each effective event only,
        once the stretch ending at it is accumulated.  Listeners get
        ``on_event(engine, event, changed)`` after every attempt,
        no-ops included.  The event sampled past T is drawn and
        discarded, which is exact by memorylessness of the exponential
        clocks.  Attempt counts are written back even if a callback
        raises.
        """
        if T < self.clock:
            raise InvalidParameterError("horizon lies in the past")
        accumulators = [ob.accumulate for ob in observers if hasattr(ob, "accumulate")]
        if T == self.clock:
            for acc in accumulators:
                acc(self, 0.0)
            return self
        sampler = self._sampler
        if sampler is None:
            raise InvalidStateError("engine has no sites")
        changers = [ob.on_event for ob in observers if hasattr(ob, "on_event")]
        occ, occupy, burn = self.occ, self._occupy, self._burn
        p_growth = sampler.p_growth
        i = sampler.i
        if i < _CHUNK:
            dts, sites, us = sampler.dt, sampler.site, sampler.u
        clock = t_change = self.clock   # t_change: start of the current stretch
        drawn = -i                      # drawn + i: draws taken in this call
        growths = grown = burnt = 0
        try:
            while True:
                if i == _CHUNK:
                    sampler.refill()
                    dts, sites, us = sampler.dt, sampler.site, sampler.u
                    drawn += _CHUNK
                    i = 0
                t_next = clock + dts[i]
                if t_next > T:
                    i += 1
                    drawn -= 1          # the discarded draw is no attempt
                    if accumulators:
                        self.clock = t_change
                        for acc in accumulators:
                            acc(self, T - t_change)
                    clock = T
                    return self
                site = sites[i]
                growth = us[i] < p_growth
                effective = not occ[site] if growth else occ[site]
                if effective and accumulators:
                    self.clock = t_change
                    for acc in accumulators:
                        acc(self, t_next - t_change)
                    t_change = t_next
                i += 1
                growths += growth
                clock = t_next
                if effective:
                    if growth:
                        occupy(site)
                        grown += 1
                        changed = [site]
                    else:
                        changed = burn(site)
                        burnt += 1
                    if changers:
                        self.clock = clock
                        for on_event in changers:
                            on_event(self, changed)
                elif listeners:
                    changed = []
                if listeners:
                    self.clock = clock
                    event = Event(clock, site, GROWTH if growth else IGNITION)
                    for li in listeners:
                        li.on_event(self, event, changed)
        finally:
            sampler.i = i
            self.clock = clock
            attempts = drawn + i
            self.counts[GROWTH] += growths
            self.counts[IGNITION] += attempts - growths
            self.effective[GROWTH] += grown
            self.effective["burn"] += burnt

    def snapshot(self) -> tuple[int, ...]:
        """Value copy of the current occupancy in canonical site order."""
        return tuple(self.occ)


class TrajectoryRecorder:
    """Listener writing one "time site kind" line per applied event."""

    def __init__(self, fh):
        self.fh = fh

    def on_event(self, engine, event, changed):
        self.fh.write(f"{event.time!r} {event.site} {event.kind}\n")
