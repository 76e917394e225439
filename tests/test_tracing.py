"""The benchmark's tracer (bench/spans.py) must find every entry point
and observer method it wraps where it looks for them, or `bench/run.py
--trace 1` cannot run."""

import time
from pathlib import Path

import ffp_lab
import ffp_lab.cli
from ffp_lab.engine import ForestFireEngine
from ffp_lab.lattice import TORUS, build_topology
from ffp_lab.measure import estimate_marginal
from ffp_lab.rng import make_rng

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    observers = [ffp_lab.measure.MarginalObserver,
                 ffp_lab.measure.SiteDensityObserver]
    before = [dict(cls.__dict__) for cls in observers]
    main = ffp_lab.cli.main
    tracer = spans.Tracer()
    tracer.install(ffp_lab, time.perf_counter)
    try:
        assert ffp_lab.cli.main is not main
        eng = ForestFireEngine(build_topology(1, 2, TORUS), 1.0, make_rng(0))
        ffp_lab.measure.estimate_marginal(eng, [(0,)], 1.0, 5.0)
        assert tracer.observer_s > 0
    finally:
        tracer.uninstall()
    assert ffp_lab.cli.main is main
    assert ffp_lab.measure.estimate_marginal is estimate_marginal
    assert [dict(cls.__dict__) for cls in observers] == before
