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

Cluster membership is kept as a label per occupied site and a members
list per label, built at construction by one flood-fill labelling
(Hoshen & Kopelman, PRB 14, 3438, 1976).  A growth merges clusters by
size, relabelling the smaller one; a live label is always one of its
own sites.  Fires always remove whole clusters, so a burn retires a
label with all its sites; no fully dynamic connectivity structure is
needed.  Draws are buffered in fixed-size chunks of (holding time,
site, kind) triples, so the random stream consumed depends only on
the number of events drawn.

``run_until`` drives observers, each with up to three optional
methods: ``on_event(engine, changed)`` right after each effective event,
``on_attempt(engine, site, growth)`` after every attempt, no-ops
included, both with ``engine.clock`` at its time, and
``accumulate(engine)`` once per call, with ``engine.clock`` at the
horizon.  An observer without ``on_attempt`` costs nothing on a no-op,
and for one effective attempt every ``on_event`` runs before any
``on_attempt``.
"""

from itertools import compress
from typing import NamedTuple

from .errors import EventOrderError, InvalidParameterError, InvalidSiteError
from .lattice import Topology

GROWTH = "growth"
IGNITION = "ignition"

_CHUNK = 4096


class Event(NamedTuple):
    time: float
    site: int
    kind: str


def _config_bytes(config) -> bytes:
    """A configuration as one byte per site, refused unless every entry
    is 0 or 1.  Bytes, lists and tuples convert at C speed; anything
    else is read entry by entry, so an array whose items span several
    bytes is never read as its raw buffer."""
    try:
        occ = bytes(config if isinstance(config, (bytes, list, tuple))
                    else list(config))
        if max(occ, default=0) <= 1:
            return occ
    except (TypeError, ValueError):     # a float, a negative, not a sequence
        pass
    raise InvalidParameterError("configuration entries must be 0 or 1")


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
        if n == 0:
            raise InvalidParameterError("topology has no sites")
        self.occ = ([0] * n if init_config is None
                    else list(_config_bytes(init_config)))
        if len(self.occ) != n:
            raise InvalidParameterError("initial configuration length mismatch")
        self.counts = {GROWTH: 0, IGNITION: 0}
        self.effective = {GROWTH: 0, "burn": 0}
        self._scale = 1.0 / (n * (1.0 + self.lam))
        self._p_growth = 1.0 / (1.0 + self.lam)
        self._i = _CHUNK                # next unread draw of the chunk

        # A labelled site carries a lower label, so an occupied r with
        # label[r] == r starts a new cluster.
        occ, adj = self.occ, topology.adjacency
        label = self._label = list(range(n))
        members = self._members = {}
        for r in compress(range(n), occ):
            if label[r] == r:
                cluster = members[r] = [r]
                for i in cluster:       # the list grows while it is read
                    for j in adj[i]:
                        if occ[j] and label[j] != r:
                            label[j] = r
                            cluster.append(j)

    def cluster_members(self, site) -> list[int]:
        """Members of the occupied cluster of a site ([] if vacant)."""
        i = self.topology.site_index(site)
        if not self.occ[i]:
            return []
        return self._members[self._label[i]]

    # ---- dynamics ----

    def _refill(self):
        """Draw the next chunk, held as memoryviews, whose items index as
        Python floats and ints at no per-chunk conversion cost."""
        rng = self.rng
        self._dt = memoryview(rng.exponential(self._scale, _CHUNK))
        self._site = memoryview(rng.integers(0, len(self.occ), _CHUNK))
        self._u = memoryview(rng.random(_CHUNK))
        self._i = 0

    def _occupy(self, site):
        """Growth on a vacant site: merge by size with the cluster of each
        occupied neighbour, relabelling the smaller one; the grown site's
        cluster wins a tie."""
        occ, label, members = self.occ, self._label, self._members
        occ[site] = 1
        label[site] = root = site
        mine = members[site] = [site]
        for j in self.topology.adjacency[site]:
            if occ[j]:
                other = label[j]
                if other != root:
                    theirs = members[other]
                    if len(mine) < len(theirs):
                        root, other, mine, theirs = other, root, theirs, mine
                    for m in theirs:
                        label[m] = root
                    mine.extend(theirs)
                    del members[other]

    def _burn(self, site) -> list[int]:
        """Vacate the cluster of an occupied site; returns its members."""
        members = self._members.pop(self._label[site])
        occ = self.occ
        for m in members:
            occ[m] = 0
        return members

    def next_event(self) -> Event:
        """Sample the next event and advance the clock to it."""
        if self._i == _CHUNK:
            self._refill()
        i = self._i
        self._i = i + 1
        self.clock += self._dt[i]
        kind = GROWTH if self._u[i] < self._p_growth else IGNITION
        return Event(self.clock, self._site[i], kind)

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

    def run_until(self, T, observers=()):
        """Advance the trajectory to time T.

        Each observer method is optional: ``on_event(engine, changed)``
        runs after each effective event, then ``on_attempt(engine, site,
        growth)`` after every attempt, no-ops included, and
        ``accumulate(engine)`` once, when the clock has reached T.  The
        event sampled past T is drawn and discarded, which is exact by
        memorylessness of the exponential clocks.  Attempt counts are
        written back even if a callback raises.
        """
        if T < self.clock:
            raise InvalidParameterError("horizon lies in the past")
        closers = [ob.accumulate for ob in observers if hasattr(ob, "accumulate")]
        if T == self.clock:
            for acc in closers:
                acc(self)
            return self
        changers = [ob.on_event for ob in observers if hasattr(ob, "on_event")]
        attempters = [ob.on_attempt for ob in observers
                      if hasattr(ob, "on_attempt")]
        occ, occupy, burn = self.occ, self._occupy, self._burn
        p_growth = self._p_growth
        i = self._i
        if i < _CHUNK:
            dts, sites, us = self._dt, self._site, self._u
        clock = self.clock
        drawn = -i                      # drawn + i: draws taken in this call
        growths = grown = burnt = 0
        try:
            while True:
                if i == _CHUNK:
                    self._refill()
                    dts, sites, us = self._dt, self._site, self._u
                    drawn += _CHUNK
                    i = 0
                t_next = clock + dts[i]
                if t_next > T:
                    i += 1
                    drawn -= 1          # the discarded draw is no attempt
                    clock = self.clock = T
                    for acc in closers:
                        acc(self)
                    return self
                site = sites[i]
                growth = us[i] < p_growth
                effective = not occ[site] if growth else occ[site]
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
                if attempters:
                    self.clock = clock
                    for on_attempt in attempters:
                        on_attempt(self, site, growth)
        finally:
            self._i = i
            self.clock = clock
            attempts = drawn + i
            self.counts[GROWTH] += growths
            self.counts[IGNITION] += attempts - growths
            self.effective[GROWTH] += grown
            self.effective["burn"] += burnt

    def snapshot(self) -> bytes:
        """Value copy of the current occupancy in canonical site order,
        one 0/1 byte per site."""
        return bytes(self.occ)


class TrajectoryRecorder:
    """Observer writing one "time site kind" line per attempt."""

    def __init__(self, fh):
        self.fh = fh

    def on_attempt(self, engine, site, growth):
        kind = GROWTH if growth else IGNITION
        self.fh.write(f"{engine.clock!r} {site} {kind}\n")
