"""Reference routines that only the tests call.

They check the paper's claims about the finite-volume laws that the
package computes: exact window marginals and cylinder probabilities,
translation invariance of the torus law, stationarity under evolution,
and the Lemma 1 scan.  The exact oracles are plain loops over all 2^N
states; a marginal adds each code's mass in increasing state order.
``total_variation_ci`` is the bootstrap interval as it was before it
resampled on arrays: one dict-built measure per resample and
``np.quantile`` for the percentiles.
``LabelledEngine`` is the engine as it was before ``run_until`` decoded
its draws in numpy blocks: one scalar step per draw, and a cluster-label
index kept on every growth.  Its ``next_event`` and ``apply_event`` step
one draw, or apply a chosen ``Event``, for tests that follow the chain
event by event.  ``MarginalObserver``,
``SiteDensityObserver`` and ``measure_from_snapshots`` are the time
integrator and the snapshot measure as they were before batches became
float tables: one dict per batch, read out as a ``DictMeasure``.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from ffp_lab.blur import epsilon_for
from ffp_lab.coupling import (CoupledExperiment, CoupleParams, Lemma1Report,
                              lemma1_report)
from ffp_lab.engine import (_CHUNK, GROWTH, IGNITION, ForestFireEngine,
                            _config_bytes)
from ffp_lab.errors import InvalidParameterError
from ffp_lab.lattice import TORUS, Coord, Topology
from ffp_lab.measure import (DEFAULT_BATCHES, CylinderEvent, EmpiricalMeasure,
                             ExactDistribution, canonical_window,
                             default_burn_in, total_variation, window_pattern)
from ffp_lab.rng import make_rng
from ffp_lab.sampling import SnapshotBank
from ffp_lab.stats import paired_se


def translate_permutation(topology: Topology, vec) -> list[int]:
    """Site permutation induced by a torus translation.

    Coordinates are shifted by ``vec`` modulo the opposite-face
    identification; this is a graph automorphism of the torus.
    """
    if topology.mode != TORUS:
        raise InvalidParameterError("translations are defined on torus topologies")
    k = topology.radius
    span = 2 * k + 1
    perm = []
    for c in topology.coords:
        shifted = tuple((ci + vi + k) % span - k for ci, vi in zip(c, vec))
        perm.append(topology.index_of[shifted])
    return perm


def measure_from_probabilities(window, probs) -> EmpiricalMeasure:
    """Wrap a plain code->probability mapping as a measure (no batches)."""
    window = tuple(sorted(window))
    weights = {c: p for c, p in probs.items() if p > 0}
    return EmpiricalMeasure(window, weights, 1.0)


# ---------------------------------------------------------------------------
# Bootstrap interval of the total variation

def _bootstrap_measure(m: EmpiricalMeasure, rng) -> EmpiricalMeasure:
    nb = len(m.batch_sizes)
    if nb >= 2:
        idx = rng.integers(0, nb, nb)
        codes = sorted(m.weights)
        weights: dict = defaultdict(float)
        total = 0.0
        for i in idx:
            total += float(m.batch_sizes[i])
            for c, v in zip(codes, m.batch_weights[i].tolist()):
                if v:                   # the codes that batch credits
                    weights[c] += v
        return EmpiricalMeasure(m.window, dict(weights), total)
    # no batch structure: multinomial resample of the weights
    codes = sorted(m.weights)
    n = max(int(round(m.total)), 1)
    pv = np.array([m.weights[c] for c in codes]) / m.total
    counts = rng.multinomial(n, pv)
    weights = {c: float(k) for c, k in zip(codes, counts) if k}
    return EmpiricalMeasure(m.window, weights, float(n))


def total_variation_ci(p: EmpiricalMeasure, q: EmpiricalMeasure, rng,
                       n_boot: int = 200) -> tuple[float, float, float]:
    """Plug-in TV with a 95% bootstrap percentile confidence interval."""
    tv = total_variation(p, q)
    draws = [total_variation(_bootstrap_measure(p, rng),
                             _bootstrap_measure(q, rng))
             for _ in range(n_boot)]
    lo, hi = np.quantile(draws, [(1 - 0.95) / 2, (1 + 0.95) / 2])
    return tv, float(lo), float(hi)


# ---------------------------------------------------------------------------
# Dict time integrator and snapshot measure

@dataclass
class DictMeasure:
    """A measure whose ``batches`` are (size, code -> weight) pairs."""

    window: tuple[Coord, ...]
    weights: dict
    total: float
    batches: list = field(default_factory=list)

    def probability(self, code: int) -> float:
        if self.total <= 0:
            return 0.0
        return self.weights.get(code, 0.0) / self.total

    def stderr(self, code: int) -> float:
        """Batch-means standard error of one pattern probability."""
        return paired_se([w.get(code, 0.0) / size for size, w in self.batches])


def measure_from_snapshots(topology, window, snapshots) -> DictMeasure:
    """Snapshot-count measure from an ordered list of configurations."""
    window = canonical_window(topology, window)
    weights: dict = defaultdict(float)
    codes = [window_pattern(cfg, topology, window) for cfg in snapshots]
    for code in codes:
        weights[code] += 1.0
    n = len(codes)
    batches = []
    nb = min(DEFAULT_BATCHES, n)
    if nb >= 2:
        edges = np.linspace(0, n, nb + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            w: dict = defaultdict(float)
            for code in codes[a:b]:
                w[code] += 1.0
            batches.append((float(b - a), dict(w)))
    return DictMeasure(window, dict(weights), float(n), batches)


class _TimeBatches:
    """One time integrator over equal batches of [t_start, t_end), one
    dict row per batch, with active-since stamps per key; row 0 takes the
    time before t_start and is not read out."""

    def __init__(self, engine, t_start, t_end, n_batches, active):
        if t_end <= t_start:
            raise InvalidParameterError("observation horizon must exceed its start")
        if n_batches < 1:
            raise InvalidParameterError("need at least one time batch")
        batch_len = (t_end - t_start) / n_batches
        self.t_end = t_end
        self.edges = [t_start + j * batch_len   # edges[j] ends rows[j]
                      for j in range(n_batches)] + [t_end]
        self._t = min(engine.clock, t_end)
        self._t0 = max(self._t, t_start)
        self.since = dict.fromkeys(active, self._t)
        self._row = defaultdict(float)   # key -> credited time, this batch
        self.rows = [self._row]
        self._hi = t_start
        self._cross(self._t)

    def _credit(self, t):
        """Credit every active key up to t, in the current batch."""
        row, since = self._row, self.since
        for key, s in since.items():
            if t > s:
                row[key] += t - s
                since[key] = t

    def _cross(self, t):
        """Close every batch that ends before t."""
        edges, rows = self.edges, self.rows
        while t > self._hi and len(rows) < len(edges):
            self._credit(self._hi)
            self._row = defaultdict(float)
            rows.append(self._row)
            self._hi = edges[len(rows) - 1]

    def _advance(self, t):
        """Move to engine time t, closing every batch that ends before it."""
        if t > self._hi:
            self._cross(t)
            t = min(t, self.t_end)
        self._t = t

    def accumulate(self, engine):
        self._advance(engine.clock)

    def measure(self) -> DictMeasure:
        """Credited time per key over the observed time; the batches
        carry the per-batch rows for batch-means errors."""
        self._credit(self._t)
        weights: dict = defaultdict(float)
        batches = []
        edges = self.edges
        for lo, hi, row in zip(edges, edges[1:], self.rows[1:]):
            size = min(hi, self._t) - max(lo, self._t0)
            if size > 0:
                batches.append((size, dict(row)))
            for key, w in row.items():
                weights[key] += w
        total = float(np.sum([size for size, _ in batches]))
        return DictMeasure(self.window, dict(weights), total, batches)


class MarginalObserver(_TimeBatches):
    """Time-weighted pattern distribution on a window, with time batches;
    its one active key is the window's pattern code."""

    def __init__(self, engine: ForestFireEngine, window, t_start, t_end,
                 n_batches):
        topology = engine.topology
        self.window = canonical_window(topology, window)
        self.bit_of = {topology.index_of[c]: j for j, c in enumerate(self.window)}
        self.code = window_pattern(engine.occ, topology, self.window)
        super().__init__(engine, t_start, t_end, n_batches, (self.code,))

    def on_event(self, engine, changed):
        self._advance(engine.clock)
        code, bit_of = self.code, self.bit_of
        for site in changed:
            bit = bit_of.get(site)
            if bit is not None:
                code ^= 1 << bit
        if code != self.code:
            t, since = self._t, self.since
            s = since.pop(self.code)
            if t > s:
                self._row[self.code] += t - s
            since[code] = t
            self.code = code


class SiteDensityObserver(_TimeBatches):
    """Per-site occupation density with time batches; its active keys
    are the occupied sites, and ``measure()`` is keyed by site index."""

    def __init__(self, engine: ForestFireEngine, t_start, t_end, n_batches):
        self.window = tuple(engine.topology.coords)
        super().__init__(engine, t_start, t_end, n_batches,
                         [i for i, v in enumerate(engine.occ) if v])

    def on_event(self, engine, changed):
        self._advance(engine.clock)
        t, occ, since, row = self._t, engine.occ, self.since, self._row
        for i in changed:
            if occ[i]:
                since[i] = t
            else:
                s = since.pop(i)
                if t > s:
                    row[i] += t - s

    def densities(self):
        """(density, stderr) arrays over sites, batch-means errors."""
        m = self.measure()
        sites = range(len(self.window))
        return (np.array([m.probability(i) for i in sites]),
                np.array([m.stderr(i) for i in sites]))


# ---------------------------------------------------------------------------
# Exact oracles

def _mass(exact: ExactDistribution, window) -> dict:
    """Probability of each code, bit j of a code for window[j]."""
    bits = [exact.topology.index_of[c] for c in window]
    mass = dict.fromkeys(range(1 << len(bits)), 0.0)
    for state, p in enumerate(exact.probs.tolist()):
        code = sum(1 << j for j, site in enumerate(bits) if state >> site & 1)
        mass[code] += p
    return mass


def exact_marginal(exact: ExactDistribution, window) -> dict:
    """Pattern-code probabilities on a window (coords or indices),
    bit j of a code for the j-th site of the sorted window."""
    return _mass(exact, canonical_window(exact.topology, window))


def exact_cylinder(exact: ExactDistribution, event: CylinderEvent) -> float:
    """P(event), bit j of a code for event.window[j] as in holds_on."""
    mass = _mass(exact, event.window)
    return sum(p for c, p in mass.items() if c in event.accept)


def translation_invariance_defect(exact: ExactDistribution) -> float:
    """Max probability change under one-step torus translations."""
    topology, probs = exact.topology, exact.probs.tolist()
    n = topology.n_sites
    worst = 0.0
    for axis in range(topology.dimension):
        vec = tuple(int(a == axis) for a in range(topology.dimension))
        perm = translate_permutation(topology, vec)
        for state, p in enumerate(probs):
            # bit perm[i] of the state's image is bit i of the state
            image = sum(1 << perm[i] for i in range(n) if state >> i & 1)
            worst = max(worst, abs(p - probs[image]))
    return worst


# ---------------------------------------------------------------------------
# Stationarity under evolution

@dataclass
class StationarityReport:
    lhs: float               # P(A) after evolving each snapshot for time t
    rhs: float               # P(A) over the initial snapshots
    se: float
    replicas: int


def stationarity_check(topology: Topology, lam, event: CylinderEvent, t,
                       replicas, seed, burn_in=None) -> StationarityReport:
    """Compare P(A) before and after evolving stationary snapshots by t.

    Snapshots come from one long run at spacing 2.0; each is evolved
    for time t with an independent stream, and the paired indicator
    difference gives the standard error.
    """
    if t < 0:
        raise InvalidParameterError("time must be nonnegative")
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    if burn_in is None:
        burn_in = default_burn_in(topology.n_sites, 2.0 * replicas)
    bank = SnapshotBank(topology, lam, replicas, 2.0, burn_in, seed)
    diffs = []
    before = 0
    after = 0
    for r, cfg in enumerate(bank.configs()):
        b = event.holds_on(cfg, topology)
        if t > 0:
            engine = ForestFireEngine(topology, lam, make_rng(seed, 20, r), cfg)
            engine.run_until(t)
            a = event.holds_on(engine.occ, topology)
        else:
            a = b
        before += b
        after += a
        diffs.append(int(a) - int(b))
    n = len(bank)
    lhs = after / n
    rhs = before / n
    return StationarityReport(lhs, rhs, paired_se(diffs), n)


# ---------------------------------------------------------------------------
# Lemma 1 scan

def lemma1_default_scan(seed, replicas) -> list[Lemma1Report]:
    """Desk-scale scan on one fixed geometry: d = 2, lambda = 1, r_I = 0,
    t = epsilon_for(1, 6) / 2, L in {1, 2}, k in {3..6}, K = 2k and the
    default banks; the banks of the first experiment for each k are
    shared with the others."""
    t = 0.5 * epsilon_for(1, 6)
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    reports = []
    for k in (3, 4, 5, 6):
        banks = {}
        for L in (1, 2):
            params = CoupleParams(2, 1.0, 2 * k, k, 0, L, t, seed)
            experiment = CoupledExperiment(params, None, **banks)
            banks = {"window_bank": experiment.window_bank,
                     "torus_bank": experiment.torus_bank}
            reports.append(lemma1_report(experiment,
                                         experiment.run_many(replicas)))
    return reports


# ---------------------------------------------------------------------------
# Reference engine

class Event(NamedTuple):
    """One draw of ``LabelledEngine.next_event``: its clock, site and kind."""
    time: float
    site: int
    kind: str


class LabelledEngine:
    """The forest-fire engine with a scalar ``run_until`` loop and a
    cluster-label index (Hoshen & Kopelman, PRB 14, 3438, 1976): a growth
    merges clusters by size, relabelling the smaller one, and a burn
    retires a label with all its sites.  It reads the same draws in the
    same order as ``ForestFireEngine``."""

    def __init__(self, topology: Topology, lam: float, rng, init_config=None):
        if lam <= 0:
            raise InvalidParameterError("lambda must be positive")
        self.topology = topology
        self.lam = float(lam)
        self.rng = rng
        self.clock = 0.0
        n = topology.n_sites
        self.occ = ([0] * n if init_config is None
                    else list(_config_bytes(init_config)))
        if len(self.occ) != n:
            raise InvalidParameterError("initial configuration length mismatch")
        self.counts = {GROWTH: 0, IGNITION: 0}
        self.effective = {GROWTH: 0, "burn": 0}
        self._scale = 1.0 / (n * (1.0 + self.lam))
        self._p_growth = 1.0 / (1.0 + self.lam)
        self._i = _CHUNK
        # A labelled site carries a lower label, so an occupied r with
        # label[r] == r starts a new cluster.
        occ, adj = self.occ, topology.adjacency
        label = self._label = list(range(n))
        members = self._members = {}
        for r in compress(range(n), occ):
            if label[r] == r:
                cluster = members[r] = [r]
                for i in cluster:
                    for j in adj[i]:
                        if occ[j] and label[j] != r:
                            label[j] = r
                            cluster.append(j)

    def cluster_members(self, site) -> list[int]:
        i = self.topology.site_index(site)
        if not self.occ[i]:
            return []
        return self._members[self._label[i]]

    def _refill(self):
        rng = self.rng
        self._dt = memoryview(rng.exponential(self._scale, _CHUNK))
        self._site = memoryview(rng.integers(0, len(self.occ), _CHUNK))
        self._u = memoryview(rng.random(_CHUNK))
        self._i = 0

    def _occupy(self, site):
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
        members = self._members.pop(self._label[site])
        occ = self.occ
        for m in members:
            occ[m] = 0
        return members

    def next_event(self) -> Event:
        if self._i == _CHUNK:
            self._refill()
        i = self._i
        self._i = i + 1
        self.clock += self._dt[i]
        kind = GROWTH if self._u[i] < self._p_growth else IGNITION
        return Event(self.clock, self._site[i], kind)

    def apply_event(self, event: Event) -> list[int]:
        site, kind = event.site, event.kind
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
        if T < self.clock:
            raise InvalidParameterError("horizon lies in the past")
        closers = [ob.accumulate for ob in observers if hasattr(ob, "accumulate")]
        if T == self.clock:
            for acc in closers:
                acc(self)
            return self
        changers = [ob.on_event for ob in observers if hasattr(ob, "on_event")]
        attempters = [ob.on_attempts for ob in observers
                      if hasattr(ob, "on_attempts")]
        occ, occupy, burn = self.occ, self._occupy, self._burn
        p_growth = self._p_growth
        i = self._i
        if i < _CHUNK:
            dts, sites, us = self._dt, self._site, self._u
        clock = self.clock
        drawn = -i
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
                    drawn -= 1
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
                for on_attempts in attempters:     # a block of one attempt
                    on_attempts([clock], [site], [growth])
        finally:
            self._i = i
            self.clock = clock
            attempts = drawn + i
            self.counts[GROWTH] += growths
            self.counts[IGNITION] += attempts - growths
            self.effective[GROWTH] += grown
            self.effective["burn"] += burnt
