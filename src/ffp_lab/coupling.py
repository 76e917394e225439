"""Coupled window/torus runs sharing Poisson clocks.

Each realization pairs a forest-fire process on a large open window
(radius K, frozen-vacant exterior) with one on a torus of radius k <= K.
Both consume one site-attached event stream: the window engine's
``run_until`` draws every attempt, and an observer replays each attempt
on a site of the torus box on the torus engine, which never sees the
rest.  Their initial configurations are drawn from a maximal coupling of
the two estimated marginals on the box J.  The blur process started on
J then separates the realizations where outside influence could matter:
whenever the initial configurations agree on J and no probe site is
marked, the two configurations must agree on the probe box I,
realization by realization.

Full initial configurations are drawn by bucketing stationary snapshots
of each chain by their J-pattern: the maximal coupling picks the
patterns, a uniform snapshot from each selected bucket supplies the
exterior, which stays correctly distributed per chain.
"""

from dataclasses import dataclass, field

import numpy as np

from .blur import blur_geometry, init_blur
from .engine import ForestFireEngine
from .errors import InvalidParameterError
from .lattice import TORUS, WINDOW, box_coords, build_topology
from .measure import (CylinderEvent, MaximalCoupling, measure_from_snapshots,
                      total_variation_ci)
from .rng import make_rng
from .sampling import SnapshotBank
from .stats import binomial_se, paired_se


@dataclass
class CoupleParams:
    d: int
    lam: float
    K: int                   # open-window radius (infinite-volume proxy)
    k: int                   # torus radius
    r_I: int                 # probe box radius
    L: int                   # coupling margin, J = box of radius r_I + L
    t: float                 # comparison time
    seed: int
    bank_snapshots: int = 800
    bank_spacing: float = 1.0
    bank_burn_in: float = 30.0

    def validate(self):
        errors = []
        if self.d < 1:
            errors.append("dimension must be at least 1")
        if self.lam <= 0:
            errors.append("lambda must be positive")
        if self.L < 0 or self.r_I < 0:
            errors.append("r_I and L must be nonnegative")
        if not self.r_I + self.L < self.k:
            errors.append("need k > r_I + L so the coupling box fits the torus")
        if not self.k <= self.K:
            errors.append("need k <= K")
        if self.t < 0:
            errors.append("time must be nonnegative")
        return errors


@dataclass(slots=True)
class CoupledRecord:
    initial_J_equal: bool
    agree_on_I: bool
    any_I_blurred: bool
    blurred_I: tuple         # coords of marked probe sites
    in_A_window: bool
    in_A_torus: bool


class CoupledExperiment:
    """Reusable machinery for one coupling geometry.

    Building the experiment runs the two stationary chains once to fill
    the snapshot banks; realizations are then cheap and independent.
    """

    def __init__(self, params: CoupleParams, event: CylinderEvent = None,
                 window_bank: SnapshotBank = None,
                 torus_bank: SnapshotBank = None):
        errors = params.validate()
        if errors:
            raise InvalidParameterError("; ".join(errors))
        self.params = params
        p = params
        self.window_topo = build_topology(p.d, p.K, WINDOW)
        self.torus_topo = build_topology(p.d, p.k, TORUS)
        self.J = tuple(box_coords(p.d, p.r_I + p.L))
        self.I = tuple(box_coords(p.d, p.r_I))
        self.event = event or CylinderEvent.site_occupied((0,) * p.d)
        if not set(self.event.window) <= set(self.I):
            raise InvalidParameterError("cylinder event must live on the probe box")

        self.window_bank = window_bank or SnapshotBank(
            self.window_topo, p.lam, p.bank_snapshots, p.bank_spacing,
            p.bank_burn_in, p.seed, stream=(51, p.K))
        self.torus_bank = torus_bank or SnapshotBank(
            self.torus_topo, p.lam, p.bank_snapshots, p.bank_spacing,
            p.bank_burn_in, p.seed, stream=(52, p.k))

        self.p_J = measure_from_snapshots(self.window_topo, self.J,
                                          self.window_bank.configs())
        self.q_J = measure_from_snapshots(self.torus_topo, self.J,
                                          self.torus_bank.configs())
        self._w_buckets = self.window_bank.buckets(self.J)
        self._t_buckets = self.torus_bank.buckets(self.J)
        self.coupling = MaximalCoupling(self.p_J, self.q_J)

        self._blur_geometry = blur_geometry(self.window_topo, self.J)
        self._I_w = [self.window_topo.index_of[c] for c in self.I]
        self._I_t = [self.torus_topo.index_of[c] for c in self.I]
        # event-stream site translation: window index -> torus index or None
        self._to_torus = [self.torus_topo.index_of.get(c)
                          for c in self.window_topo.coords]

    def run_one(self, rep_id: int) -> CoupledRecord:
        p = self.params
        rng = make_rng(p.seed, 53, rep_id)
        code_w, code_t = self.coupling.sample(rng)
        cfg_w = self.window_bank.sample_with_pattern(self._w_buckets, code_w, rng)
        cfg_t = self.torus_bank.sample_with_pattern(self._t_buckets, code_t, rng)

        w_engine = ForestFireEngine(self.window_topo, p.lam, rng, cfg_w)
        t_engine = ForestFireEngine(self.torus_topo, p.lam, rng, cfg_t)
        tracker = init_blur(w_engine, self._blur_geometry)
        mirror = _TorusMirror(t_engine, self._to_torus)
        w_engine.run_until(p.t, observers=(tracker, mirror))

        occ_w, occ_t = w_engine.occ, t_engine.occ
        agree = all(occ_w[iw] == occ_t[it]
                    for iw, it in zip(self._I_w, self._I_t))
        blurred = tuple(c for c, iw in zip(self.I, self._I_w)
                        if iw in tracker.flags)
        return CoupledRecord(
            initial_J_equal=(code_w == code_t),
            agree_on_I=agree,
            any_I_blurred=bool(blurred),
            blurred_I=blurred,
            in_A_window=self.event.holds_on(occ_w, self.window_topo),
            in_A_torus=self.event.holds_on(occ_t, self.torus_topo))

    def run_many(self, replicas: int, jobs: int = 1) -> list[CoupledRecord]:
        from .parallel import run_chunked
        return run_chunked(CoupledExperiment.run_one, self, replicas, jobs)


class _TorusMirror:
    """Window-engine observer replaying each block's torus-box attempts
    on the torus engine's occupancy, so both chains consume one event
    stream.  The rule is ``run_until``'s: a vacant site grows, and an
    occupied one burns through the engine's flood; the torus engine's
    clock and counts stay as they were."""

    def __init__(self, t_engine, to_torus):
        self.t_engine = t_engine
        self.to_torus = to_torus

    def on_attempts(self, clocks, sites, growth):
        t_engine, to_torus = self.t_engine, self.to_torus
        occ, burn = t_engine.occ, t_engine._burn
        for site, g in zip(sites, growth):
            if (ti := to_torus[site]) is not None and occ[ti] != g:
                if g:
                    occ[ti] = 1
                else:
                    burn(ti)


@dataclass
class Lemma1Report:
    lhs: float               # |P(A) window - P(A) torus|
    blur_term: float         # |I| * sup over probe sites of P(marked)
    tv_term: float           # 2 * TV of the initial J-marginals
    pooled_se: float
    verdict: str
    p_A_window: float
    p_A_torus: float
    tv: float
    eq_freq: float           # frequency of equal initial J-patterns
    replicas: int
    params: CoupleParams = None
    records: list = field(default_factory=list, repr=False)


def lemma1_report(experiment: CoupledExperiment,
                  records: list[CoupledRecord],
                  n_boot: int = 200) -> Lemma1Report:
    """Monte Carlo estimates of all three terms of the coupling bound."""
    n = len(records)
    in_w = np.array([r.in_A_window for r in records], dtype=float)
    in_t = np.array([r.in_A_torus for r in records], dtype=float)
    lhs = abs(float(in_w.mean() - in_t.mean()))
    se_lhs = paired_se(in_w - in_t)

    n_I = len(experiment.I)
    sup_freq = max(sum(c in r.blurred_I for r in records) / n
                   for c in experiment.I)
    blur_term = n_I * sup_freq
    se_blur = n_I * binomial_se(int(round(sup_freq * n)), n)

    rng = make_rng(experiment.params.seed, 54)
    tv, tv_lo, tv_hi = total_variation_ci(experiment.p_J, experiment.q_J,
                                          rng, n_boot)
    tv_term = 2.0 * tv
    se_tv_term = 2.0 * (tv_hi - tv_lo) / 3.92 if tv_hi > tv_lo else 0.0

    pooled = float(np.sqrt(se_lhs ** 2 + se_blur ** 2 + se_tv_term ** 2))
    verdict = "holds" if lhs <= blur_term + tv_term + 3 * pooled else "violated"
    eq_freq = sum(r.initial_J_equal for r in records) / n
    return Lemma1Report(lhs, blur_term, tv_term, pooled, verdict,
                        float(in_w.mean()), float(in_t.mean()), tv, eq_freq,
                        n, experiment.params, records)


def lemma1_experiment(params: CoupleParams, event: CylinderEvent,
                      replicas: int, jobs: int = 1) -> Lemma1Report:
    """Coupled-run estimate of the three-term inequality for one geometry."""
    if replicas < 1:
        raise InvalidParameterError("need at least one replica")
    experiment = CoupledExperiment(params, event)
    return lemma1_report(experiment, experiment.run_many(replicas, jobs))
