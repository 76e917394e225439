"""Invariant-measure estimation and exact small-instance ground truth.

The invariant distribution of the finite forest-fire chain is estimated
by time averages of a single long trajectory (ergodic estimator), with
error bars from batch means.  On instances with at most
``DEFAULT_STATE_CAP`` sites the full generator is built and the balance
equations are solved with scipy, imported by that solve alone, for the
stationary vector: an independent oracle for the Monte Carlo path.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

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
    """One time integrator over equal batches of [t_start, t_end).

    Keys (window pattern codes, or occupied sites) are active or not.
    An active key keeps an "active since" stamp (Newman & Ziff, PRE 64,
    016706, 2001) and is credited to the current batch when it stops
    and, with every active key, at each batch edge, so an event costs
    O(keys it starts or stops).  ``_t`` is the time ``accumulate`` last
    reached, held at t_end; ``on_event`` takes it as the event time, as
    the engine accumulates the stretch ending at an event first.  Row 0
    takes the time before t_start and is not read out.  Batch times come
    from the edges, ``_t`` and the observation start ``_t0``, so the
    split does not depend on where stretches are cut.
    """

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

    def accumulate(self, engine, dt):
        t = engine.clock + dt
        if t > self._hi:
            self._cross(t)
            t = min(t, self.t_end)
        self._t = t

    def measure(self) -> EmpiricalMeasure:
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
        return EmpiricalMeasure(self.window, dict(weights), total, batches)


class MarginalObserver(_TimeBatches):
    """Time-weighted pattern distribution on a window, with time batches;
    its one active key is the window's pattern code."""

    def __init__(self, engine: ForestFireEngine, window, t_start, t_end,
                 n_batches=20):
        topology = engine.topology
        self.window = canonical_window(topology, window)
        self.bit_of = {topology.index_of[c]: j for j, c in enumerate(self.window)}
        self.code = window_pattern(engine.occ, topology, self.window)
        super().__init__(engine, t_start, t_end, n_batches, (self.code,))

    # bound in each observer's body, where bench/spans.py wraps it
    accumulate = _TimeBatches.accumulate

    def on_event(self, engine, changed):
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

    def __init__(self, engine: ForestFireEngine, t_start, t_end, n_batches=20):
        self.window = tuple(engine.topology.coords)
        super().__init__(engine, t_start, t_end, n_batches,
                         [i for i, v in enumerate(engine.occ) if v])

    accumulate = _TimeBatches.accumulate

    def on_event(self, engine, changed):
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
    import scipy.sparse as sp
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


def check_box_cap(d: int, k: int, cap: int) -> None:
    """Raise CapacityError when the (2k+1)**d sites of a box exceed cap,
    multiplied out only until they pass it, so a huge d costs no time."""
    n = 1
    for _ in range(d if k else 0):
        n *= 2 * k + 1
        if n > cap:
            raise CapacityError(f"a box of radius {k} in dimension {d} exceeds "
                                f"the {cap}-site cap")


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
    import scipy.sparse.linalg as spla
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
