import pytest

from ffp_lab.blur import blur_geometry, init_blur
from ffp_lab.coupling import (CoupledExperiment, CoupledRecord, CoupleParams,
                              _TorusMirror, lemma1_experiment, lemma1_report)
from ffp_lab.engine import GROWTH, IGNITION, ForestFireEngine
from ffp_lab.errors import InvalidParameterError
from ffp_lab.measure import CylinderEvent
from ffp_lab.rng import make_rng
from oracles import Event, LabelledEngine


def params(**kw):
    base = dict(d=2, lam=1.0, K=6, k=3, r_I=0, L=1, t=0.05, seed=0,
                bank_snapshots=120, bank_spacing=1.0, bank_burn_in=20.0)
    base.update(kw)
    return CoupleParams(**base)


class Recorder:
    def __init__(self):
        self.attempts = []

    def on_attempts(self, clocks, sites, growth):
        self.attempts.extend(Event(t, site, GROWTH if g else IGNITION)
                             for t, site, g in zip(clocks, sites, growth))


class TestValidation:
    def test_geometry_errors_listed(self):
        bad = params(k=1, L=2, K=0, lam=-1.0)
        msgs = bad.validate()
        assert any("lambda" in m for m in msgs)
        assert any("k > r_I + L" in m for m in msgs)
        assert any("k <= K" in m for m in msgs)

    def test_zero_margin_is_legal_and_negative_refused(self):
        """Kills `self.L < 0` -> `self.L <= 0` (L = 0 then fails) and
        -> `self.L < -1` (L = -1 then passes)."""
        assert params(L=0).validate() == []
        assert params(L=-1).validate() == ["r_I and L must be nonnegative"]

    def test_experiment_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            CoupledExperiment(params(k=1, L=2))

    def test_event_must_fit_probe_box(self):
        with pytest.raises(InvalidParameterError):
            CoupledExperiment(params(), CylinderEvent.site_occupied((3, 3)))


class TestRuns:
    def test_records_shape(self):
        exp = CoupledExperiment(params())
        recs = exp.run_many(30)
        assert len(recs) == 30
        for r in recs:
            assert isinstance(r.agree_on_I, bool)
            assert r.any_I_blurred == bool(r.blurred_I)

    def test_jobs_deterministic(self):
        exp = CoupledExperiment(params())
        assert exp.run_many(16, jobs=1) == exp.run_many(16, jobs=4)

    def test_torus_replays_window_attempts_in_its_box(self):
        """A replica rebuilt by hand: the window engine draws the stream,
        and its attempts on torus-box sites are replayed on the torus,
        event by event on the reference engine and, block by block, by
        the experiment's mirror, which leaves the torus engine's clock
        and counts alone."""
        exp = CoupledExperiment(params(t=0.3))
        p, wt, tt = exp.params, exp.window_topo, exp.torus_topo
        burns = 0
        for rep in range(6):
            rng = make_rng(p.seed, 53, rep)
            code_w, code_t = exp.coupling.sample(rng)
            cfg_w = exp.window_bank.sample_with_pattern(
                exp.window_bank.buckets(exp.J), code_w, rng)
            cfg_t = exp.torus_bank.sample_with_pattern(
                exp.torus_bank.buckets(exp.J), code_t, rng)
            window = ForestFireEngine(wt, p.lam, rng, cfg_w)
            geometry = blur_geometry(wt, [wt.index_of[c] for c in exp.J])
            blur = init_blur(window, geometry)
            recorder = Recorder()
            mirror = _TorusMirror(ForestFireEngine(tt, p.lam, make_rng(0),
                                                   cfg_t), exp._to_torus)
            window.run_until(p.t, observers=(blur, recorder, mirror))
            torus = LabelledEngine(tt, p.lam, make_rng(0), cfg_t)
            replayed = 0
            for ev in recorder.attempts:
                coord = wt.coords[ev.site]
                if coord in tt.index_of:
                    torus.apply_event(Event(ev.time, tt.index_of[coord],
                                            ev.kind))
                    replayed += 1
            burns += torus.effective["burn"]
            blurred = tuple(c for c in exp.I
                            if wt.index_of[c] in blur.flags)
            expected = CoupledRecord(
                initial_J_equal=code_w == code_t,
                agree_on_I=all(window.occ[wt.index_of[c]]
                               == torus.occ[tt.index_of[c]] for c in exp.I),
                any_I_blurred=bool(blurred), blurred_I=blurred,
                in_A_window=exp.event.holds_on(window.occ, wt),
                in_A_torus=exp.event.holds_on(torus.occ, tt))
            assert 0 < replayed < len(recorder.attempts)
            assert mirror.t_engine.occ == torus.occ
            assert (mirror.t_engine.clock, mirror.t_engine.counts) == (
                0.0, {GROWTH: 0, IGNITION: 0})
            assert exp.run_one(rep) == expected
        assert burns > 0

    def test_t_zero_unblurred_coupled_pairs_agree(self):
        exp = CoupledExperiment(params(t=0.0))
        for r in exp.run_many(40):
            if r.initial_J_equal and not r.any_I_blurred:
                assert r.agree_on_I

    def test_domination_at_positive_time(self):
        exp = CoupledExperiment(params(t=0.02))
        violations = [r for r in exp.run_many(120)
                      if r.initial_J_equal and not r.any_I_blurred
                      and not r.agree_on_I]
        assert violations == []


class TestReport:
    def test_report_fields(self):
        exp = CoupledExperiment(params())
        rep = lemma1_report(exp, exp.run_many(60), n_boot=50)
        assert rep.replicas == 60
        assert 0.0 <= rep.lhs <= 1.0
        assert rep.tv_term == pytest.approx(2.0 * rep.tv)
        assert rep.blur_term >= 0.0
        assert rep.verdict in ("holds", "violated")
        assert 0.0 <= rep.eq_freq <= 1.0

    def test_experiment_needs_replicas(self):
        with pytest.raises(InvalidParameterError):
            lemma1_experiment(params(), None, 0)

    def test_one_replica_runs(self):
        """Kills `replicas < 1` -> `replicas <= 1` (or `< 2`)."""
        rep = lemma1_experiment(params(bank_snapshots=20), None, 1)
        assert rep.replicas == len(rep.records) == 1
