"""Invariant-measure estimation and exact small-instance ground truth.

The invariant distribution of the finite forest-fire chain is estimated
by time averages of a single long trajectory (ergodic estimator), with
error bars from batch means.  On instances with at most
``DEFAULT_STATE_CAP`` sites the full generator is built and the balance
equations are solved with numpy alone for the stationary vector: an
independent oracle for the Monte Carlo path.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ForestFireEngine
from .errors import (CapacityError, InvalidParameterError,
                     WindowMismatchError)
from .lattice import (MAX_WINDOW_SITES, Coord, Topology, build_topology,
                      check_box_cap)
from .rng import make_rng

DEFAULT_STATE_CAP = 16
DEFAULT_BATCHES = 20      # batch-means batches of an estimated measure
BALANCE_TOL = 1e-10       # accepted max|pi Q| of an exact solve
GMRES_RESTART = 50
# cycles of up to GMRES_RESTART iterations: for lambda in 0.05..3 the
# 15-site d = 1 window takes 54-148 iterations and a 16-site ring 47-79
GMRES_MAX_RESTARTS = 20


def canonical_window(topology: Topology, window) -> tuple[Coord, ...]:
    """Sorted coordinate tuple for a window given as coords or indices."""
    coords = [topology.coords[topology.site_index(s)] for s in window]
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
    """The code as width bits, bit 0 first."""
    return format(code, f"0{width}b")[::-1]


# ---------------------------------------------------------------------------
# Cylinder events

@dataclass(frozen=True)
class CylinderEvent:
    """Event determined by the occupancy pattern on a finite window."""

    window: tuple[Coord, ...]
    accept: frozenset

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
    time average, a snapshot count for a snapshot measure.  For batch
    means and bootstrap resamples, ``batch_weights`` has a row per batch
    (of size ``batch_sizes[b]``) and a column per code, codes ascending.
    """

    window: tuple[Coord, ...]
    weights: dict
    total: float
    batch_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0))
    batch_weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

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

    def stderrs(self) -> np.ndarray:
        """Batch-means standard errors, in ascending code order."""
        return _col_se(self.batch_weights, self.batch_sizes, len(self.weights))

    def stderr(self, code: int) -> float:
        """Batch-means standard error of one pattern probability."""
        se = dict(zip(sorted(self.weights), self.stderrs().tolist()))
        return se.get(code, 0.0)

    def rows(self):
        """CSV rows: pattern bitstring, weight, probability, stderr."""
        for code, se in zip(sorted(self.weights), self.stderrs().tolist()):
            yield (pattern_bitstring(code, self.width), self.weights[code],
                   self.probability(code), se)


def _col_se(table, sizes, width) -> np.ndarray:
    """stats.paired_se of each column's batch means, to the double."""
    if len(sizes) < 2:
        return np.zeros(width)
    means = np.ascontiguousarray((table / sizes[:, None]).T)
    return means.std(axis=1, ddof=1) / math.sqrt(len(sizes))


def measure_from_snapshots(topology, window, snapshots) -> EmpiricalMeasure:
    """Snapshot-count measure from an ordered list of configurations."""
    window = canonical_window(topology, window)
    raw = [window_pattern(cfg, topology, window) for cfg in snapshots]
    codes = sorted(set(raw))            # np.unique would page in 0.6 MB
    n, width, nb = len(raw), len(codes), min(DEFAULT_BATCHES, len(raw))
    col = np.searchsorted(codes, raw)
    edges = np.linspace(0, n, nb + 1).astype(int)
    cell = np.repeat(np.arange(nb), np.diff(edges)) * width + col
    table = np.bincount(cell, np.ones(n), nb * width).reshape(nb, width)
    nb = nb if nb >= 2 else 0           # no batches under two
    return EmpiricalMeasure(            # counts: exact sums in any order
        window, dict(zip(codes, table.sum(axis=0).tolist())),
        float(n), table.sum(axis=1)[:nb], table[:nb])


# ---------------------------------------------------------------------------
# Observers

class _TimeBatches:
    """One time integrator over equal batches of [t_start, t_end): a
    row per batch, an ``array('d')`` with a cell per column, and ``keys``
    the keys (window pattern codes, or sites) in column order.

    An active column keeps an "active since" stamp (Newman & Ziff, PRE
    64, 016706, 2001) and is credited to the current row when it stops
    and, with every active column, at each batch edge, so an event costs
    O(keys it starts or stops).  ``_t`` is the engine clock last seen,
    held at t_end: ``on_event`` advances it to each state change and
    ``accumulate(engine)``, called once per run, to the run's end.  Row 0
    takes the time before t_start and is not read out.  Batch times come
    from the edges, ``_t`` and the observation start ``_t0``, so the
    split does not depend on where the clock was read.
    """

    def __init__(self, engine, t_start, t_end, n_batches, keys, active):
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
        self.keys, self.since = keys, dict.fromkeys(active, self._t)
        self._row, self.rows, self._hi = None, [], -math.inf
        self._cross(self._t)            # opens row 0, up to t_start

    def _credit(self, t):
        """Credit every active column up to t, in the current row."""
        row, since = self._row, self.since
        for col, s in since.items():
            if t > s:
                row[col] += t - s
                since[col] = t

    def _cross(self, t):
        """Close every batch that ends before t."""
        from array import array         # 0.1 MB: only observers load it
        edges, rows = self.edges, self.rows
        while t > self._hi and len(rows) < len(edges):
            self._credit(self._hi)
            self._row = array("d", bytes(8 * len(self.keys)))
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

    def _table(self):
        """(sizes, credited time per column, batches x columns table) of
        the batches observed for some time; no other has credit."""
        self._credit(self._t)
        t, t0, edges = self._t, self._t0, self.edges
        kept = [(min(hi, t) - max(lo, t0), row) for lo, hi, row
                in zip(edges, edges[1:], self.rows[1:])
                if min(hi, t) > max(lo, t0)]
        table = np.zeros((len(kept), len(self.keys)), order="F")
        for dst, (_, row) in zip(table, kept):
            dst[:len(row)] = row
        return (np.array([size for size, _ in kept]),
                sum(table, np.zeros(table.shape[1])), table)  # rows in order

    def measure(self) -> EmpiricalMeasure:
        """Credited time per key over the observed time; the table holds
        the keys credited, ascending."""
        sizes, sums, table = self._table()
        keys = list(self.keys)          # np.argsort would page in 0.5 MB
        cols = sorted(np.flatnonzero(sums).tolist(), key=keys.__getitem__)
        return EmpiricalMeasure(
            self.window, {keys[j]: float(sums[j]) for j in cols},
            float(np.sum(sizes)), sizes, table[:, cols])


class MarginalObserver(_TimeBatches):
    """Time-weighted pattern distribution on a window, with time batches;
    its one active key is the window's pattern code, keyed to a column."""

    def __init__(self, engine: ForestFireEngine, window, t_start, t_end,
                 n_batches):
        topology = engine.topology
        self.window = canonical_window(topology, window)
        bits = {c: 1 << j for j, c in enumerate(self.window)}
        self.mask = [bits.get(c, 0) for c in topology.coords]   # 8 B a site
        self.code = window_pattern(engine.occ, topology, self.window)
        self.col = 0                    # keys maps each code to its column
        super().__init__(engine, t_start, t_end, n_batches, {self.code: 0},
                         (0,))

    # bound in each observer's body, where bench/spans.py wraps it
    accumulate = _TimeBatches.accumulate

    def on_event(self, engine, changed):
        self._advance(engine.clock)
        code, mask = self.code, self.mask
        for site in changed:
            code ^= mask[site]
        if code != self.code:
            t, since, col = self._t, self.since, self.col
            s = since.pop(col)
            if t > s:
                self._row[col] += t - s
            col = self.keys.get(code)
            if col is None:             # a new code: only this row grows
                col = self.keys[code] = len(self.keys)
                self._row.append(0.0)
            since[col] = t
            self.code, self.col = code, col


class SiteDensityObserver(_TimeBatches):
    """Per-site occupation density with time batches; its active keys
    are the occupied sites, a site's column is its index."""

    def __init__(self, engine: ForestFireEngine, t_start, t_end, n_batches):
        self.window = tuple(engine.topology.coords)
        super().__init__(engine, t_start, t_end, n_batches,
                         range(len(self.window)),
                         [i for i, v in enumerate(engine.occ) if v])

    accumulate = _TimeBatches.accumulate

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
        sizes, sums, table = self._table()
        total = float(np.sum(sizes))
        return (sums / total if total > 0 else np.zeros(len(sums)),
                _col_se(table, sizes, len(sums)))


def estimate_marginal(engine: ForestFireEngine, window, burn_in, horizon,
                      n_batches=DEFAULT_BATCHES) -> EmpiricalMeasure:
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


def default_burn_in(n_sites: int, horizon: float) -> float:
    """Heuristic burn-in: generous multiple of the site count, at least
    a fifth of the horizon.  Overridable everywhere it is used."""
    return max(10.0 * n_sites, horizon / 5.0)


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


def _build_generator(topology: Topology, lam: float):
    """Generator entries (rows, cols, rates) over the 2^N states, bit i
    of a state = site i: every transition and the diagonal, in
    source-state order."""
    n = topology.n_sites
    states = np.arange(1 << n)
    # nb_of[b][v]: the neighbours of the sites 8b..8b+7 set in byte v
    masks = np.zeros(-(-n // 8) * 8, dtype=states.dtype)
    masks[:n] = [sum(1 << j for j in nbs) for nbs in topology.adjacency]
    byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
    nb_of = np.bitwise_or.reduce(byte_bits * masks.reshape(-1, 1, 8), axis=2)
    rows, cols, rates = [], [], []
    for i in range(n):                  # growth at each vacant site
        s = states[states >> i & 1 == 0]
        rows.append(s)
        cols.append(s | 1 << i)
        rates.append(np.ones(s.size))
    for i in range(n):                  # ignition of clusters whose lowest site is i
        s = states[states >> i & 1 == 1]
        comp = np.full_like(s, 1 << i)
        while True:                     # at most n flood rounds
            grown = comp.copy()
            for b, table in enumerate(nb_of):
                grown |= table[comp >> 8 * b & 255]
            grown &= s
            if np.array_equal(grown, comp):
                break
            comp = grown
        low = comp & ((1 << i) - 1) == 0
        s, comp = s[low], comp[low]
        rows.append(s)
        cols.append(s & ~comp)
        rates.append(lam * sum(comp >> j & 1 for j in range(n)))
    rows, cols, rates = map(np.concatenate, (rows, cols, rates))
    diag = -np.bincount(rows, rates, minlength=states.size)
    rows, cols, rates = (np.concatenate(pair) for pair in
                         ((rows, states), (cols, states), (rates, diag)))
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], rates[order]


def _lartg(f, g):
    """Givens rotation (c, s, r) with c*f + s*g = r and -s*f + c*g = 0:
    LAPACK 3.10's dlartg for inputs whose squares neither overflow nor
    underflow, which GMRES's Hessenberg entries never do."""
    if g == 0:
        return 1.0, 0.0, f
    if f == 0:
        return 0.0, math.copysign(1.0, g), abs(g)
    d = math.sqrt(f * f + g * g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def _gmres(matvec, b, diag):
    """Jacobi-preconditioned restarted GMRES for A x = b from x = 0.

    Returns (x, converged, inner iterations).  A port of the real,
    zero-start path of SciPy 1.17's pure-numpy ``gmres``
    (sparse/linalg/_isolve/iterative.py; BSD-3-Clause, Copyright the
    SciPy Developers) with ``rtol=1e-13``, ``restart=GMRES_RESTART`` and
    ``maxiter=GMRES_MAX_RESTARTS``: the same operations in the same
    order, so the iterates are the same doubles.
    """
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = 1e-13 * float(bnrm2)
    eps = np.finfo(float).eps
    restart = min(GMRES_RESTART, n)
    # the inner tolerance applies to the preconditioned residual (gh-8400)
    ptol_max_factor = 1.
    ptol = np.linalg.norm(b / diag) * min(ptol_max_factor, atol / bnrm2)
    x = np.zeros(n)
    r = b
    v = np.empty([restart + 1, n])
    h = np.zeros([restart, restart + 1])
    givens = np.zeros([restart, 2])
    inner_iter = 0
    for _ in range(GMRES_MAX_RESTARTS):
        v[0, :] = r / diag
        tmp = np.linalg.norm(v[0, :])
        if not 0 < tmp < math.inf:      # underflowed (huge lambda) or NaN
            return x, False, inner_iter
        v[0, :] *= (1 / tmp)
        S = np.zeros(restart + 1)       # RHS of the Hessenberg problem
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = matvec(v[col, :]) / diag
            h0 = np.linalg.norm(w)      # modified Gram-Schmidt
            for k in range(col + 1):
                tmp = np.dot(v[k, :], w)
                h[col, k] = tmp
                w -= tmp * v[k, :]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1, :] = w
            if h1 <= eps * h0:          # exact solution indicator
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1, :] *= (1 / h1)
            for k in range(col):        # past Givens rotations
                c, s = givens[k, 0], givens[k, 1]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = _lartg(h[col, col], h[col, col + 1])
            givens[col, :] = [c, s]
            h[col, col], h[col, col + 1] = mag, 0
            tmp = -s * S[col]           # S[col + 1] is always 0 before
            S[col], S[col + 1] = c * S[col], tmp
            presid = np.abs(tmp)
            inner_iter += 1
            if presid <= ptol or breakdown:
                break
        # back-substitution in h(col, col), pseudo-solving singular cases
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                tmp = y[k]
                y[:k] -= tmp * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1, :]
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:              # inner loop passed, outer did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, rnorm <= atol, inner_iter


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

    Limitation: with pi(empty) pinned to 1 the unknowns grow like
    lam^-N, so on sparse explicit graphs at small lam (three isolated
    sites at lam = 0.01) GMRES cannot meet its relative stopping test in
    double precision, and a solve with a balance residual near 1e-18
    still raises CapacityError.
    """
    if lam <= 0:
        raise InvalidParameterError("lambda must be positive")
    check_box_cap(1, topology.n_sites, DEFAULT_STATE_CAP)
    rows, cols, rates = _build_generator(topology, lam)
    size = 1 << topology.n_sites
    # A = Q^T without state 0: bincount adds each target's terms in
    # increasing source order, as a CSR product with Q^T does
    inner = (rows > 0) & (cols > 0)
    src, dst, rate = rows[inner] - 1, cols[inner] - 1, rates[inner]
    out = (rows == 0) & (cols > 0)
    b = -np.bincount(cols[out] - 1, rates[out], minlength=size - 1)
    diag = rates[rows == cols][1:]
    x, converged, iterations = _gmres(
        lambda v: np.bincount(dst, rate * v[src], minlength=size - 1),
        b, diag)
    pi = np.clip(np.concatenate(([1.0], x)), 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(np.bincount(cols, rates * pi[rows],
                                        minlength=size)).max())
    if not converged or not residual <= BALANCE_TOL:
        raise CapacityError(
            f"stationary solve failed after {iterations} GMRES iterations: "
            f"balance residual {residual:.3e} (tolerance {BALANCE_TOL:.0e})")
    return ExactDistribution(topology, lam, pi, residual, iterations)


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


def _resampler(m: EmpiricalMeasure, codes: list, rng):
    """One bootstrap resample of m per call, as (weights over codes,
    total): the batches drawn with replacement and their rows added in
    draw order, or, with fewer than two batches, a multinomial draw of
    m's weights.  A code that a row lacks adds 0.0, so each weight is
    the double that adding only the codes drawn gives."""
    own = sorted(m.weights)
    at = np.searchsorted(codes, own)    # codes ascending
    nb = len(m.batch_sizes)
    if nb >= 2:
        sizes = m.batch_sizes.tolist()
        rows = np.zeros((nb, len(codes)))
        rows[:, at] = m.batch_weights

        def draw():
            acc, total = np.zeros(len(codes)), 0.0
            for i in rng.integers(0, nb, nb).tolist():
                acc += rows[i]
                total += sizes[i]
            return acc, total
        return draw
    n = max(int(round(m.total)), 1)
    pv = np.array([m.weights[c] for c in own]) / m.total

    def draw():
        acc = np.zeros(len(codes))
        acc[at] = rng.multinomial(n, pv)
        return acc, float(n)
    return draw


def _quantile(sorted_values: list, q: float) -> float:
    """``np.quantile``'s default (linear) method on a sorted list, with
    its operations in its order, so the result is the same double."""
    n = len(sorted_values)
    h = (n - 1) * q
    if h >= n - 1:
        return sorted_values[-1]
    j = math.floor(h)
    t = h - j
    a, b = sorted_values[j], sorted_values[j + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def total_variation_ci(p: EmpiricalMeasure, q: EmpiricalMeasure, rng,
                       n_boot: int = 200) -> tuple[float, float, float]:
    """Plug-in TV with a 95% bootstrap percentile confidence interval.

    Each draw resamples p, then q, and takes the TV over the codes that
    either resample holds."""
    tv = total_variation(p, q)
    codes = sorted({*p.weights, *q.weights})
    draw_p, draw_q = _resampler(p, codes, rng), _resampler(q, codes, rng)
    draws = []
    for _ in range(n_boot):
        (wp, tp), (wq, tq) = draw_p(), draw_q()
        held = (wp > 0) | (wq > 0)
        draws.append(0.5 * float(np.abs(wp[held] / tp - wq[held] / tq).sum()))
    draws.sort()
    # (1 - 0.95) / 2 is 0.025000000000000022, not 0.025: keep the expression
    return (tv, _quantile(draws, (1 - 0.95) / 2),
            _quantile(draws, (1 + 0.95) / 2))


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
        # lists, for bisect: about 8x faster per pick than np.searchsorted
        self._cum_overlap = (np.cumsum(overlap / self.alpha).tolist()
                             if self.alpha > 0 else None)
        rp = pv - overlap
        rq = qv - overlap
        self._cum_p = np.cumsum(rp / rp.sum()).tolist() if rp.sum() > 0 else None
        self._cum_q = np.cumsum(rq / rq.sum()).tolist() if rq.sum() > 0 else None

    def _pick(self, cum, rng):
        i = bisect.bisect_right(cum, rng.random())
        return self.codes[min(i, len(self.codes) - 1)]

    def sample(self, rng):
        if rng.random() < self.alpha:
            c = self._pick(self._cum_overlap, rng)
            return c, c
        return self._pick(self._cum_p, rng), self._pick(self._cum_q, rng)


# ---------------------------------------------------------------------------
# Convergence scan

@dataclass
class ScanRow:
    k_low: int
    k_high: int
    tv: float
    ci_low: float
    ci_high: float


@dataclass
class ConvergenceScan:
    marginals: dict          # k -> EmpiricalMeasure
    rows: list               # consecutive-pair ScanRow entries


def mu_convergence_scan(d, lam, window, k_list, burn_in, horizon, seed,
                        n_boot=200) -> ConvergenceScan:
    """Estimated window marginals per torus radius, with consecutive TVs.

    Reports Cauchy-style diagnostics only; no convergence rate is
    claimed.
    """
    window = tuple(sorted(tuple(c) for c in window))
    max_rad = max(max(abs(ci) for ci in c) for c in window)
    k_list = sorted(k_list)
    if len(set(k_list)) < len(k_list):
        raise InvalidParameterError("duplicate radii in k_list")
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
    return ConvergenceScan(marginals, rows)
