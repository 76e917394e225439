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

The engine keeps occupancy only: a fire floods the struck cluster as it
vacates it, and ``cluster_members`` floods on demand.  Draws are
buffered in fixed-size chunks of (holding time, site, kind) triples, so
the random stream consumed depends only on the number of events drawn.
``run_until`` decodes each chunk in numpy blocks: the clocks are one
sequential ``cumsum`` (the same doubles as adding one holding time at a
time), the stop is one ``searchsorted``, and Python then only applies
each attempt.
"""

import math
from operator import length_hint

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .lattice import Topology

GROWTH = "growth"
IGNITION = "ignition"

_CHUNK = 4096
_MARGIN = 16                    # draws decoded past the expected count
_BLOCK = 1024                   # most draws in one block, which bounds its lists


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

    An engine owns its configuration, clock and random stream; it is
    single-threaded but cheap to replicate with independent streams.
    """

    def __init__(self, topology: Topology, lam: float, rng, init_config=None):
        if not lam > 0:                 # NaN too
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
        rate = n * (1.0 + self.lam)
        if not math.isfinite(rate):     # every holding time would be 0.0
            raise InvalidParameterError("lambda too large: N(1 + lambda) overflows")
        self._scale = 1.0 / rate
        self._p_growth = 1.0 / (1.0 + self.lam)
        self._i = _CHUNK                # next unread draw of the chunk

    def cluster_members(self, site) -> list[int]:
        """Members of the occupied cluster of a site, in flood order from
        it ([] if vacant)."""
        i = self.topology.site_index(site)
        if not self.occ[i]:
            return []
        cluster = self._burn(i)         # flood by vacating, then restore
        for m in cluster:
            self.occ[m] = 1
        return cluster

    # ---- dynamics ----

    def _refill(self):
        """Draw the next chunk of holding times, sites and uniforms."""
        rng = self.rng
        self._dt = rng.exponential(self._scale, _CHUNK)
        self._site = rng.integers(0, len(self.occ), _CHUNK)
        self._u = rng.random(_CHUNK)
        self._i = 0

    def _burn(self, site) -> list[int]:
        """Vacate the cluster of an occupied site; returns its members in
        flood order from the site."""
        occ, adj = self.occ, self.topology.adjacency
        occ[site] = 0
        cluster = [site]
        for i in cluster:               # the list grows while it is read
            for j in adj[i]:
                if occ[j]:
                    occ[j] = 0
                    cluster.append(j)
        return cluster

    def run_until(self, T, observers=()):
        """Advance the trajectory to a finite time T.

        Each observer method is optional: ``on_event(engine, changed)``
        runs after each effective event, with ``engine.clock`` at its
        time; ``on_attempts(clocks, sites, growth)`` once per decoded
        block, with its attempts, no-ops included, as three lists in
        stream order (never empty); ``accumulate(engine)`` once, when
        the clock has reached T.  A burn's ``changed`` lists the cluster
        in flood order from the struck site.  The event sampled past T
        is drawn and discarded, which is exact by memorylessness.

        A block is consumed (state, counts, clock) before its
        ``on_attempts`` runs, and counts are written back even if a
        callback raises; a block cut short by a raising ``on_event`` is
        never passed on.  T*N*(1 + lambda) >= 2**52 is refused before any
        draw: the clock could no longer count holding times.
        """
        if not math.isfinite(T):
            raise InvalidParameterError("horizon must be finite")
        if T < self.clock:
            raise InvalidParameterError("horizon lies in the past")
        occ, burn = self.occ, self._burn
        p_growth, rate = self._p_growth, len(occ) * (1.0 + self.lam)
        if T * rate >= 2 ** 52:
            raise CapacityError(f"horizon {T} needs 2**52 or more attempts")
        closers = [ob.accumulate for ob in observers if hasattr(ob, "accumulate")]
        if T == self.clock:
            for acc in closers:
                acc(self)
            return self
        changers = [ob.on_event for ob in observers if hasattr(ob, "on_event")]
        attempters = [ob.on_attempts for ob in observers
                      if hasattr(ob, "on_attempts")]
        i, clock = self._i, self.clock
        drawn = -i                      # drawn + i: draws taken in this call
        growths = grown = burnt = 0
        try:
            while True:
                if i == _CHUNK:
                    self._refill()
                    drawn += _CHUNK
                    i = 0
                # a block of the expected attempts before T, and a margin
                end = i + int(min((T - clock) * rate + _MARGIN, _CHUNK - i,
                                  _BLOCK))
                ts = self._dt[i:end].copy()
                ts[0] += clock
                np.cumsum(ts, out=ts)
                n = int(ts.searchsorted(T, side="right"))
                grows = self._u[i:i + n] < p_growth
                clocks = ts[:n].tolist()
                sites = self._site[i:i + n].tolist()
                growth = grows.tolist()
                pending = iter(clocks)  # what it has not yielded is untaken
                try:
                    for t, site, g in zip(pending, sites, growth):
                        # a vacant site grows, or an occupied one burns
                        if occ[site] != g:
                            if g:
                                occ[site] = 1
                                grown += 1
                                changed = [site]
                            else:
                                changed = burn(site)
                                burnt += 1
                            if changers:
                                self.clock = t
                                for on_event in changers:
                                    on_event(self, changed)
                finally:                # taken < n only if on_event raised
                    taken = n - length_hint(pending)
                    growths += int(np.count_nonzero(grows[:taken]))
                    i += taken
                    if taken:
                        clock = clocks[taken - 1]
                if n:
                    for on_attempts in attempters:
                        on_attempts(clocks, sites, growth)
                if n < len(ts):         # ts[n] lies past T
                    i += 1
                    drawn -= 1          # the discarded draw is no attempt
                    clock = self.clock = T
                    for acc in closers:
                        acc(self)
                    return self
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

    def on_attempts(self, clocks, sites, growth):
        self.fh.write("".join(
            f"{t!r} {site} {GROWTH if g else IGNITION}\n"
            for t, site, g in zip(clocks, sites, growth)))
