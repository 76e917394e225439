"""Invariant-measure estimation and exact small-instance ground truth.

The invariant distribution of the finite forest-fire chain is estimated
by time averages of a single long trajectory (ergodic estimator), with
error bars from batch means.  On instances with at most
``DEFAULT_STATE_CAP`` sites the full generator is built and the balance
equations are solved iteratively for the stationary vector, which serves
as an independent oracle for the Monte Carlo path.
"""

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .engine import ForestFireEngine
from .errors import (CapacityError, InvalidParameterError,
                     WindowMismatchError)
from .lattice import Coord, Topology, translate_permutation
from .rng import make_rng
from .stats import paired_se

DEFAULT_STATE_CAP = 16
MAX_WINDOW_SITES = 20
BALANCE_TOL = 1e-10       # accepted max|pi Q| of an exact solve
GMRES_RESTART = 50
GMRES_MAX_RESTARTS = 20   # converged solves need under one restart cycle


def canonical_window(topology: Topology, window) -> tuple[Coord, ...]:
    """Sorted coordinate tuple for a window given as coords or indices."""
    coords = []
    for site in window:
        i = topology.site_index(site)
        coords.append(topology.coords[i])
    out = tuple(sorted(set(coords)))
    if len(out) != len(coords):
        raise InvalidParameterError("duplicate sites in window")
    return out


def window_pattern(config, topology: Topology, window: tuple[Coord, ...]) -> int:
    """Occupancy pattern of a window packed into an integer, bit j = window[j]."""
    code = 0
    for j, c in enumerate(window):
        if config[topology.index_of[c]]:
            code |= 1 << j
    return code


def pattern_bitstring(code: int, width: int) -> str:
    return "".join("1" if code >> j & 1 else "0" for j in range(width))


# ---------------------------------------------------------------------------
# Cylinder events

@dataclass(frozen=True)
class CylinderEvent:
    """Event determined by the occupancy pattern on a finite window."""

    window: tuple[Coord, ...]
    accept: frozenset

    def __post_init__(self):
        if len(self.window) > MAX_WINDOW_SITES:
            raise CapacityError(
                f"cylinder window larger than {MAX_WINDOW_SITES} sites")

    @classmethod
    def site_occupied(cls, coord: Coord):
        return cls((coord,), frozenset({1}))

    def holds_on(self, config, topology: Topology) -> bool:
        return window_pattern(config, topology, self.window) in self.accept


# ---------------------------------------------------------------------------
# Empirical measures

@dataclass
class EmpiricalMeasure:
    """Weighted occupancy-pattern distribution on a finite window.

    ``weights`` maps pattern codes to total weight: holding time for a
    time average, a snapshot count for a snapshot measure.  ``batches``
    holds (size, weights) pairs used for batch-means standard errors and
    bootstrap resampling.
    """

    window: tuple[Coord, ...]
    weights: dict
    total: float
    batches: list = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.window)

    def probabilities(self) -> dict:
        if self.total <= 0:
            return {}
        return {c: w / self.total for c, w in self.weights.items()}

    def probability(self, code: int) -> float:
        if self.total <= 0:
            return 0.0
        return self.weights.get(code, 0.0) / self.total

    def stderr(self, code: int) -> float:
        """Batch-means standard error of one pattern probability."""
        if len(self.batches) < 2:
            return 0.0
        props = [w.get(code, 0.0) / size for size, w in self.batches if size > 0]
        arr = np.asarray(props)
        return float(arr.std(ddof=1) / math.sqrt(arr.size))

    def rows(self):
        """CSV rows: pattern bitstring, weight, probability, stderr."""
        for code in sorted(self.weights):
            yield (pattern_bitstring(code, self.width), self.weights[code],
                   self.probability(code), self.stderr(code))


def measure_from_probabilities(window, probs, total=1.0) -> EmpiricalMeasure:
    """Wrap a plain code->probability mapping as a measure (no batches)."""
    window = tuple(sorted(window))
    weights = {c: p * total for c, p in probs.items() if p > 0}
    return EmpiricalMeasure(window, weights, total)


def measure_from_snapshots(topology, window, snapshots,
                           n_batches=20) -> EmpiricalMeasure:
    """Snapshot-count measure from an ordered list of configurations."""
    window = canonical_window(topology, window)
    weights: dict = defaultdict(float)
    codes = [window_pattern(cfg, topology, window) for cfg in snapshots]
    for code in codes:
        weights[code] += 1.0
    n = len(codes)
    batches = []
    nb = min(n_batches, n)
    if nb >= 2:
        edges = np.linspace(0, n, nb + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            w: dict = defaultdict(float)
            for code in codes[a:b]:
                w[code] += 1.0
            batches.append((float(b - a), dict(w)))
    return EmpiricalMeasure(window, dict(weights), float(n), batches)


# ---------------------------------------------------------------------------
# Observers

class _TimeBatches:
    """Equal time batches over an observation window [t_start, t_end).

    The batch of a time comes from a precomputed edge list, so every
    piece of a stretch has positive length and the per-batch split does
    not depend on where stretches are cut.  ``_lo``/``_hi`` bound the
    current batch ``_bi``, for the observers' fast path.
    """

    def __init__(self, t_start, t_end, n_batches):
        if t_end <= t_start:
            raise InvalidParameterError("observation horizon must exceed its start")
        if n_batches < 1:
            raise InvalidParameterError("need at least one time batch")
        self.t_start = t_start
        self.t_end = t_end
        self.n_batches = n_batches
        self.batch_len = (t_end - t_start) / n_batches
        self.edges = [t_start + (j + 1) * self.batch_len
                      for j in range(n_batches - 1)]
        self.batch_time = [0.0] * n_batches
        self._set_batch(0)

    def _set_batch(self, bi):
        self._bi = bi
        self._lo = self.edges[bi - 1] if bi else self.t_start
        self._hi = self.edges[bi] if bi < len(self.edges) else self.t_end

    def _pieces(self, a, b):
        """(batch, start, end) pieces of [a, b] inside the window."""
        a = max(a, self.t_start)
        b = min(b, self.t_end)
        edges = self.edges
        while a < b:
            bi = bisect_right(edges, a)
            c = min(b, edges[bi]) if bi < len(edges) else b
            yield bi, a, c
            a = c


class MarginalObserver(_TimeBatches):
    """Time-weighted pattern distribution on a window, with time batches.

    Attach as an observer of ``run_until``: ``on_event`` keeps the
    window's pattern code in step with effective events.
    """

    def __init__(self, engine: ForestFireEngine, window, t_start, t_end,
                 n_batches=20):
        super().__init__(t_start, t_end, n_batches)
        topology = engine.topology
        self.window = canonical_window(topology, window)
        self.bit_of = {topology.index_of[c]: j for j, c in enumerate(self.window)}
        self.code = 0
        for site, bit in self.bit_of.items():
            if engine.occ[site]:
                self.code |= 1 << bit
        self.batch_weights = [defaultdict(float) for _ in range(n_batches)]

    def accumulate(self, engine, dt):
        a = engine.clock
        b = a + dt
        if self._lo <= a < b <= self._hi:   # inside the current batch
            self.batch_weights[self._bi][self.code] += dt
            self.batch_time[self._bi] += dt
            return
        for bi, a, c in self._pieces(a, b):
            self.batch_weights[bi][self.code] += c - a
            self.batch_time[bi] += c - a
            self._set_batch(bi)

    def on_event(self, engine, changed):
        bit_of = self.bit_of
        for site in changed:
            bit = bit_of.get(site)
            if bit is not None:
                self.code ^= 1 << bit

    def measure(self) -> EmpiricalMeasure:
        weights: dict = defaultdict(float)
        for w in self.batch_weights:
            for code, t in w.items():
                weights[code] += t
        batches = [(t, dict(w)) for t, w in
                   zip(self.batch_time, self.batch_weights) if t > 0]
        total = sum(self.batch_time)
        return EmpiricalMeasure(self.window, dict(weights), total, batches)


class SiteDensityObserver(_TimeBatches):
    """Per-site occupation density with time batches.

    Each occupied site keeps an "occupied since" stamp (the bookkeeping
    of Newman & Ziff, PRE 64, 016706, 2001).  Its time is credited when
    it is vacated and, for all occupied sites, at batch edges, so an
    event costs O(changed sites) whatever the density.
    """

    def __init__(self, engine: ForestFireEngine, t_start, t_end, n_batches=20):
        super().__init__(t_start, t_end, n_batches)
        n = engine.topology.n_sites
        self.site_time = [[0.0] * n for _ in range(n_batches)]
        self._t = max(engine.clock, t_start)   # observed up to here
        self.since = {i: self._t for i, v in enumerate(engine.occ) if v}

    def _credit(self, t):
        """Credit every occupied site up to t, in the current batch."""
        row = self.site_time[self._bi]
        since = self.since
        for i, s in since.items():
            if t > s:
                row[i] += t - s
                since[i] = t

    def accumulate(self, engine, dt):
        a = engine.clock
        b = a + dt
        if self._lo <= a < b <= self._hi:   # inside the current batch
            self.batch_time[self._bi] += dt
            self._t = b
            return
        for bi, a, c in self._pieces(a, b):
            while self._bi < bi:
                self._credit(self._hi)
                self._set_batch(self._bi + 1)
            self.batch_time[bi] += c - a
            self._t = c

    def on_event(self, engine, changed):
        start = max(engine.clock, self.t_start)
        end = min(engine.clock, self.t_end)
        occ, since, row = engine.occ, self.since, self.site_time[self._bi]
        for i in changed:
            if occ[i]:
                since[i] = start
            else:
                s = since.pop(i)
                if end > s:
                    row[i] += end - s

    def densities(self):
        """(density, stderr) arrays over sites, batch-means errors."""
        self._credit(self._t)
        site_time = np.array(self.site_time)
        batch_time = np.array(self.batch_time)
        total = batch_time.sum()
        dens = site_time.sum(axis=0) / total
        mask = batch_time > 0
        props = site_time[mask] / batch_time[mask, None]
        nb = int(mask.sum())
        if nb < 2:
            return dens, np.zeros_like(dens)
        se = props.std(axis=0, ddof=1) / math.sqrt(nb)
        return dens, se


def estimate_marginal(engine: ForestFireEngine, window, burn_in, horizon,
                      n_batches=20) -> EmpiricalMeasure:
    """Ergodic time-average pattern distribution on a window.

    Runs the engine from its current state, discards [clock, burn_in)
    and integrates the piecewise-constant pattern over [burn_in,
    horizon).  Standard errors come from ``n_batches`` equal time
    batches.
    """
    if horizon <= burn_in:
        raise InvalidParameterError("horizon must exceed burn_in")
    if len(canonical_window(engine.topology, window)) > MAX_WINDOW_SITES:
        raise CapacityError(f"window larger than {MAX_WINDOW_SITES} sites")
    engine.run_until(burn_in)
    obs = MarginalObserver(engine, window, burn_in, horizon, n_batches)
    engine.run_until(horizon, observers=(obs,))
    return obs.measure()


def default_burn_in(topology: Topology, horizon: float) -> float:
    """Heuristic burn-in: generous multiple of the site count, at least
    a fifth of the horizon.  Overridable everywhere it is used."""
    return max(10.0 * topology.n_sites, horizon / 5.0)


# ---------------------------------------------------------------------------
# Exact stationary distribution

@dataclass
class ExactDistribution:
    """Full stationary vector of the finite forest-fire chain."""

    topology: Topology
    lam: float
    probs: np.ndarray
    balance_residual: float
    solver_iterations: int

    def marginal(self, window) -> dict:
        """Pattern-code probabilities on a window (coords or indices)."""
        window = canonical_window(self.topology, window)
        bits = [self.topology.index_of[c] for c in window]
        out: dict = defaultdict(float)
        for state, p in enumerate(self.probs):
            code = 0
            for j, site in enumerate(bits):
                if state >> site & 1:
                    code |= 1 << j
            out[code] += float(p)
        return dict(out)

    def cylinder(self, event: CylinderEvent) -> float:
        marg = self.marginal(event.window)
        return sum(p for c, p in marg.items() if c in event.accept)


def _build_generator(topology: Topology, lam: float):
    n = topology.n_sites
    n_states = 1 << n
    nb_mask = [0] * n
    for i, nbs in enumerate(topology.adjacency):
        m = 0
        for j in nbs:
            m |= 1 << j
        nb_mask[i] = m

    rows, cols, vals = [], [], []
    diag = np.zeros(n_states)

    def add(s, t, rate):
        rows.append(s)
        cols.append(t)
        vals.append(rate)
        diag[s] -= rate

    for s in range(n_states):
        for i in range(n):
            if not s >> i & 1:
                add(s, s | (1 << i), 1.0)
        # occupied components: each site ignition empties its component
        seen = 0
        for i in range(n):
            bit = 1 << i
            if s & bit and not seen & bit:
                comp = bit
                frontier = bit
                while frontier:
                    grow = 0
                    f = frontier
                    while f:
                        j = (f & -f).bit_length() - 1
                        f &= f - 1
                        grow |= nb_mask[j] & s & ~comp
                    comp |= grow
                    frontier = grow
                seen |= comp
                add(s, s & ~comp, lam * comp.bit_count())

    rows.extend(range(n_states))
    cols.extend(range(n_states))
    vals.extend(diag)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_states, n_states))


def check_state_cap(n_sites: int) -> None:
    """Raise CapacityError when n_sites exceed DEFAULT_STATE_CAP, the
    largest site count whose chain is solved exactly."""
    if n_sites > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"{n_sites} sites exceed the {DEFAULT_STATE_CAP}-site "
            f"cap ({1 << DEFAULT_STATE_CAP} states)")


def exact_stationary(topology: Topology, lam: float) -> ExactDistribution:
    """Solve the global balance equations pi Q = 0 of the finite chain.

    Growth transitions have rate 1 per vacant site; ignition of an
    occupied site empties its whole cluster, so a component of size c
    leaves at total rate lam*c toward the component-free state.

    With pi(empty) pinned to 1 the other balance equations form a
    nonsingular system, solved by Jacobi-preconditioned restarted GMRES
    (Stewart 1994, ch. 4) and then normalised.  A solve that does not
    converge, or whose balance residual max|pi Q| exceeds BALANCE_TOL,
    raises CapacityError.
    """
    if lam <= 0:
        raise InvalidParameterError("lambda must be positive")
    check_state_cap(topology.n_sites)
    Q = _build_generator(topology, lam)
    QT = Q.T.tocsr()
    A = QT[1:, 1:]
    b = -QT[1:, 0].toarray().ravel()
    diag = A.diagonal()
    jacobi = spla.LinearOperator(A.shape, matvec=lambda v: v / diag,
                                 dtype=float)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.gmres(A, b, rtol=1e-13, restart=GMRES_RESTART,
                         maxiter=GMRES_MAX_RESTARTS, M=jacobi,
                         callback=count, callback_type="pr_norm")
    pi = np.clip(np.concatenate(([1.0], x)), 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ Q).max())
    if info != 0 or not residual <= BALANCE_TOL:
        raise CapacityError(
            f"stationary solve failed after {iterations} GMRES iterations: "
            f"balance residual {residual:.3e} (tolerance {BALANCE_TOL:.0e})")
    return ExactDistribution(topology, lam, pi, residual, iterations)


def translation_invariance_defect(exact: ExactDistribution) -> float:
    """Max probability change under one-step torus translations."""
    topology = exact.topology
    d = topology.dimension
    worst = 0.0
    n = topology.n_sites
    for axis in range(d):
        vec = tuple(1 if a == axis else 0 for a in range(d))
        perm = translate_permutation(topology, vec)
        for state, p in enumerate(exact.probs):
            image = 0
            for i in range(n):
                if state >> i & 1:
                    image |= 1 << perm[i]
            worst = max(worst, abs(p - exact.probs[image]))
    return worst


# ---------------------------------------------------------------------------
# Total variation and maximal coupling

def _prob_vectors(p: EmpiricalMeasure, q: EmpiricalMeasure):
    if p.window != q.window:
        raise WindowMismatchError("measures live on different windows")
    pp, qq = p.probabilities(), q.probabilities()
    codes = sorted(set(pp) | set(qq))
    pv = np.array([pp.get(c, 0.0) for c in codes])
    qv = np.array([qq.get(c, 0.0) for c in codes])
    return codes, pv, qv


def total_variation(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Plug-in total variation distance between two same-window measures."""
    _, pv, qv = _prob_vectors(p, q)
    return 0.5 * float(np.abs(pv - qv).sum())


def _bootstrap_measure(m: EmpiricalMeasure, rng) -> EmpiricalMeasure:
    if len(m.batches) >= 2:
        idx = rng.integers(0, len(m.batches), len(m.batches))
        weights: dict = defaultdict(float)
        total = 0.0
        for i in idx:
            size, w = m.batches[i]
            total += size
            for c, v in w.items():
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
                       n_boot: int = 200,
                       level: float = 0.95) -> tuple[float, float, float]:
    """Plug-in TV with a bootstrap percentile confidence interval."""
    tv = total_variation(p, q)
    draws = [total_variation(_bootstrap_measure(p, rng),
                             _bootstrap_measure(q, rng))
             for _ in range(n_boot)]
    lo, hi = np.quantile(draws, [(1 - level) / 2, (1 + level) / 2])
    return tv, float(lo), float(hi)


class MaximalCoupling:
    """Sampler for the maximal coupling of two same-window measures.

    With probability equal to the overlap mass both draws coincide and
    come from the normalized overlap; otherwise the two draws come
    independently from the normalized positive and negative parts, so
    the disagreement probability equals the total variation distance.
    """

    def __init__(self, p: EmpiricalMeasure, q: EmpiricalMeasure):
        codes, pv, qv = _prob_vectors(p, q)
        self.codes = codes
        overlap = np.minimum(pv, qv)
        self.alpha = float(overlap.sum())
        self._cum_overlap = np.cumsum(overlap / self.alpha) if self.alpha > 0 else None
        rp = pv - overlap
        rq = qv - overlap
        self._cum_p = np.cumsum(rp / rp.sum()) if rp.sum() > 0 else None
        self._cum_q = np.cumsum(rq / rq.sum()) if rq.sum() > 0 else None

    def _pick(self, cum, rng):
        i = int(np.searchsorted(cum, rng.random(), side="right"))
        return self.codes[min(i, len(self.codes) - 1)]

    def sample(self, rng):
        if rng.random() < self.alpha:
            c = self._pick(self._cum_overlap, rng)
            return c, c
        return self._pick(self._cum_p, rng), self._pick(self._cum_q, rng)


def cylinder_probability(measure, event: CylinderEvent) -> float:
    """Probability of a cylinder event under an empirical or exact measure."""
    if isinstance(measure, ExactDistribution):
        return measure.cylinder(event)
    if not set(event.window) <= set(measure.window):
        raise WindowMismatchError("event window is not contained in the measure window")
    positions = [measure.window.index(c) for c in event.window]
    total = 0.0
    for code, prob in measure.probabilities().items():
        sub = 0
        for j, pos in enumerate(positions):
            if code >> pos & 1:
                sub |= 1 << j
        if sub in event.accept:
            total += prob
    return total


# ---------------------------------------------------------------------------
# Convergence scan and stationarity check

@dataclass
class ScanRow:
    k_low: int
    k_high: int
    tv: float
    ci_low: float
    ci_high: float


@dataclass
class ConvergenceScan:
    window: tuple[Coord, ...]
    marginals: dict          # k -> EmpiricalMeasure
    rows: list               # consecutive-pair ScanRow entries


def mu_convergence_scan(d, lam, window, k_list, burn_in, horizon, seed,
                        n_boot=200) -> ConvergenceScan:
    """Estimated window marginals per torus radius, with consecutive TVs.

    Reports Cauchy-style diagnostics only; no convergence rate is
    claimed.
    """
    from .lattice import build_topology
    window = tuple(sorted(tuple(c) for c in window))
    if len(window) > MAX_WINDOW_SITES:
        raise CapacityError(f"window larger than {MAX_WINDOW_SITES} sites")
    max_rad = max(max(abs(ci) for ci in c) for c in window)
    k_list = sorted(k_list)
    if min(k_list) <= max_rad:
        raise InvalidParameterError("window must fit strictly inside every torus")
    marginals = {}
    for k in k_list:
        topology = build_topology(d, k, "torus")
        engine = ForestFireEngine(topology, lam, make_rng(seed, 10, k))
        marginals[k] = estimate_marginal(engine, window, burn_in, horizon)
    rng = make_rng(seed, 11)
    rows = []
    for k0, k1 in zip(k_list[:-1], k_list[1:]):
        tv, lo, hi = total_variation_ci(marginals[k0], marginals[k1], rng, n_boot)
        rows.append(ScanRow(k0, k1, tv, lo, hi))
    return ConvergenceScan(window, marginals, rows)


@dataclass
class StationarityReport:
    lhs: float               # P(A) after evolving each snapshot for time t
    rhs: float               # P(A) over the initial snapshots
    z: float
    se: float
    replicas: int


def stationarity_check(topology: Topology, lam, event: CylinderEvent, t,
                       replicas, seed, burn_in=None,
                       spacing=2.0) -> StationarityReport:
    """Compare P(A) before and after evolving stationary snapshots by t.

    Snapshots come from one long run at fixed spacing; each is evolved
    for time t with an independent stream, and the paired indicator
    difference gives the standard error.
    """
    from .sampling import SnapshotBank
    if t < 0:
        raise InvalidParameterError("time must be nonnegative")
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    if burn_in is None:
        burn_in = default_burn_in(topology, spacing * replicas)
    bank = SnapshotBank(topology, lam, replicas, spacing, burn_in, seed)
    diffs = []
    before = 0
    after = 0
    for r, cfg in enumerate(bank.configs):
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
    n = len(bank.configs)
    lhs = after / n
    rhs = before / n
    se = paired_se(diffs)
    z = (lhs - rhs) / se if se > 0 else 0.0
    return StationarityReport(lhs, rhs, z, se, n)
