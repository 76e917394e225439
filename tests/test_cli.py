import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffp_lab.cli import (_KINDS, ManifestError, main, parse_manifest,
                         run_experiment, summarize, validate_manifest)


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


SIM = {"kind": "simulate", "lambda": 1.0, "d": 2, "k": 1, "mode": "torus",
       "horizon": 20.0, "burn_in": 2.0, "seed": 3}
STAT = {"kind": "stationary", "lambda": 1.0, "d": 2, "k": 1, "mode": "torus",
        "window": [[0, 0]], "horizon": 5.0, "burn_in": 1.0}
EXACT = {"kind": "exact", "lambda": 1.0, "d": 1, "k": 1, "mode": "torus"}
BLUR = {"kind": "blur-decay", "lambda": 1.0, "d": 2, "L_list": [1],
        "t_list": [0.05], "replicas": 30,
        "init": {"kind": "bernoulli", "p": 0.3}, "seed": 2}
COUPLE = {"kind": "couple", "lambda": 1.0, "d": 2, "K": 4, "k": 2, "L": 1,
          "t": 0.02, "replicas": 20, "seed": 4, "bank_snapshots": 60,
          "bank_burn_in": 10.0}
CCSB = {"kind": "ccsb", "lambda": 1.0, "d": 2, "k": 1, "mode": "torus",
        "x": [0, 0], "m_list": [0, 1], "delta": 0.5, "replicas": 20,
        "sampler": {"kind": "bernoulli", "p": 0.4}, "seed": 5}
MU_SCAN = {"kind": "mu-scan", "lambda": 1.0, "d": 1, "window": [[0]],
           "k_list": [1, 2], "horizon": 5.0, "seed": 6}
# one tiny manifest per kind, each run in well under a second
TINY = {m["kind"]: m for m in (SIM, STAT, EXACT, BLUR, CCSB, COUPLE, MU_SCAN)}

# the CSV tables of each kind: file name -> header line
TABLES = {
    "simulate": {"density.csv": "site,coords,density,stderr"},
    "stationary": {"measure.csv": "pattern,weight,probability,stderr"},
    "exact": {"exact.csv": "state,probability"},
    "blur-decay": {"blur_decay.csv":
                   "L,t,flagged,replicas,p_hat,ci_low,ci_high"},
    "ccsb": {"ccsb.csv": "query,m,delta,joint,cond,bound,verdict",
             "tail.csv": "m,exceed,replicas,p_hat,ci_low,ci_high"},
    "couple": {"records.csv": "replica,initial_J_equal,agree_on_I,"
                              "any_I_blurred,in_A_window,in_A_torus",
               "lemma1.csv": "lhs,blur_term,tv_term,pooled_se,verdict,tv,"
                             "eq_freq,p_A_window,p_A_torus,replicas"},
    "mu-scan": {"mu_scan.csv": "k_low,k_high,tv,ci_low,ci_high",
                "marginal_k1.csv": "pattern,weight,probability,stderr",
                "marginal_k2.csv": "pattern,weight,probability,stderr"},
}


class TestValidation:
    def test_all_problems_reported(self):
        with pytest.raises(ManifestError) as err:
            validate_manifest({"kind": "simulate", "lambda": 0})
        problems = err.value.problems
        assert "lambda must be positive" in problems
        assert "missing field: d" in problems
        assert "missing field: horizon" in problems

    def test_unknown_kind(self):
        with pytest.raises(ManifestError):
            validate_manifest({"kind": "frobnicate"})

    def test_couple_geometry(self):
        bad = dict(COUPLE, k=1, L=2)
        with pytest.raises(ManifestError) as err:
            validate_manifest(bad)
        assert any("k > r_I + L" in p for p in err.value.problems)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            parse_manifest(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_kind_mismatch(self, tmp_path):
        path = write_manifest(tmp_path, SIM)
        with pytest.raises(ManifestError):
            parse_manifest(path, "exact")

    def test_nested_kinds_listed_with_other_problems(self):
        with pytest.raises(ManifestError) as err:
            validate_manifest(dict(CCSB, delta=-1, sampler={
                "kind": "replica", "init": {"kind": "frobnicate"}}))
        problems = err.value.problems
        assert "delta must be a finite nonnegative number" in problems
        assert any(p.startswith("sampler.init must be") for p in problems)
        with pytest.raises(ManifestError) as err:
            validate_manifest(dict(SIM, init={"kind": "x"}, horizon=-1))
        assert len(err.value.problems) == 2


class TestExitCodes:
    def test_success(self, tmp_path):
        path = write_manifest(tmp_path, EXACT)
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_validation_error(self, tmp_path):
        path = write_manifest(tmp_path, {"kind": "simulate", "lambda": 0})
        assert main(["simulate", "--manifest", str(path)]) == 2

    def test_capacity_error(self, tmp_path):
        path = write_manifest(tmp_path, dict(EXACT, d=2, k=2))
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3

    @staticmethod
    def built_sizes(monkeypatch):
        """Site counts of every Topology built from now on."""
        from ffp_lab import lattice
        sizes = []
        init = lattice.Topology.__init__

        def spy(topology, dimension, radius, mode, coords, *rest):
            sizes.append(len(coords))
            init(topology, dimension, radius, mode, coords, *rest)

        monkeypatch.setattr(lattice.Topology, "__init__", spy)
        return sizes

    def test_edge_file_capacity_error_before_topology_is_built(
            self, tmp_path, monkeypatch):
        from ffp_lab import measure
        sizes = self.built_sizes(monkeypatch)
        edges = tmp_path / "far.edges"
        edges.write_text("0 1\n1 1000\n")
        path = write_manifest(tmp_path, {"kind": "exact", "lambda": 1.0,
                                         "edge_file": str(edges)})
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert max(sizes, default=0) <= measure.DEFAULT_STATE_CAP

    def test_grid_capacity_error_before_topology_is_built(
            self, tmp_path, monkeypatch):
        sizes = self.built_sizes(monkeypatch)
        path = write_manifest(tmp_path, {"kind": "exact", "lambda": 1.0,
                                         "d": 1, "k": 8})
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert sizes == []

    def test_huge_dimension_capacity_error_without_topology(
            self, tmp_path, monkeypatch):
        from ffp_lab import cli

        def refuse(*args):
            raise AssertionError("a topology was built")

        monkeypatch.setattr(cli, "build_topology", refuse)
        path = write_manifest(tmp_path, {"kind": "exact", "lambda": 1.0,
                                         "d": 10**7, "k": 1})
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("d, L_list", [(8, [10]), (2, [1, 200])],
                             ids=["huge-dimension", "huge-last-L"])
    def test_blur_window_capacity_error_before_any_topology(
            self, tmp_path, monkeypatch, capsys, d, L_list):
        from ffp_lab import lattice

        def refuse(*args):
            raise AssertionError("a topology was built")

        monkeypatch.setattr(lattice, "build_topology", refuse)
        path = write_manifest(tmp_path, dict(BLUR, d=d, L_list=L_list))
        assert main(["blur-decay", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "20000-site cap" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"],
                             ids=["invalid-json", "not-an-object"])
    def test_summarize_bad_run_info_exits_2(self, tmp_path, capsys, text):
        (tmp_path / "run_info.json").write_text(text)
        assert main(["summarize", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run_info.json" in err

    def test_unconverged_solve_is_capacity_error(self, tmp_path, monkeypatch,
                                                 capsys):
        from ffp_lab import measure
        monkeypatch.setattr(measure, "BALANCE_TOL", 0.0)
        path = write_manifest(tmp_path, dict(EXACT, d=2))
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "residual" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, problem", [
        (dict(STAT, window=[[5, 5]]), "unknown site"),
        (dict(STAT, window=[]), "window must be"),
        (dict(BLUR, x=[9, 9], replicas=2), "unknown site"),
        (dict(EXACT, **{"lambda": True}), "lambda must be"),
        (dict(STAT, window=[[0, 0], 5]), "window must be"),
        (dict(BLUR, L_list=["x"]), "L_list must be"),
        (dict(BLUR, t_list=[]), "t_list must be"),
        (dict(STAT, n_batches=0), "n_batches must be"),
        (dict(SIM, horizon=float("inf")), "horizon must be"),
        (dict(SIM, init={"kind": "bernoulli", "p": "x"}), "init.p must be"),
        (dict(SIM, init=5), "init must be"),
        (dict(SIM, burn_in=None), "burn_in must be"),
        (dict(SIM, dump_trajectory="yes"), "dump_trajectory must be"),
        (dict(BLUR, init={"kind": "stationary", "snapshots": "x"}),
         "init.snapshots must be"),
        (dict(CCSB, sampler={"kind": "replica", "s": "x"}),
         "sampler.s must be"),
        (dict(CCSB, delta="x"), "delta must be"),
        (dict(COUPLE, bank_snapshots="x"), "bank_snapshots must be"),
        (dict(EXACT, edge_file=5), "edge_file must be"),
        (dict(EXACT, edge_file="missing.edges"), "cannot read edge file"),
        (dict(EXACT, edge_file="bad.edges"), "bad.edges, line 2"),
        (dict(SIM, init={"kind": "x"}), "init must be"),
        (dict(CCSB, sampler={"kind": "x"}), "sampler must be"),
        (dict(SIM, seed="x"), "seed must be"),
    ], ids=["window-outside-box", "empty-window", "probe-outside-window",
            "bool-lambda", "window-item-not-coord", "L_list-not-int",
            "empty-t_list", "zero-batches", "infinite-horizon",
            "init-p-not-number", "init-not-object", "null-burn_in",
            "dump_trajectory-not-bool", "snapshots-not-int",
            "sampler-s-not-number", "delta-not-number",
            "bank_snapshots-not-int", "edge_file-not-path",
            "edge_file-missing", "edge_file-bad-line", "unknown-init-kind",
            "unknown-sampler-kind", "seed-not-int"])
    def test_bad_manifest_exits_2(self, tmp_path, capsys, monkeypatch,
                                  manifest, problem):
        monkeypatch.chdir(tmp_path)   # relative edge files live here
        (tmp_path / "bad.edges").write_text("0 1\n1 2 3\n")
        path = write_manifest(tmp_path, manifest)
        assert main([manifest["kind"], "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert problem in err


class TestOutputs:
    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(validate_manifest(SIM), out)
        assert (out / "density.csv").exists()
        assert (out / "snapshot.txt").exists()
        info = json.loads((out / "run_info.json").read_text())
        assert info["manifest"]["kind"] == "simulate"
        assert "wall_time_s" in info
        # wall time never appears in the CSV tables
        assert "wall" not in (out / "density.csv").read_text()

    def test_trajectory_dump_leaves_density_unchanged(self, tmp_path):
        tables = []
        for dump in (False, True):
            out = tmp_path / f"dump{dump}"
            run_experiment(validate_manifest(dict(SIM, dump_trajectory=dump)),
                           out)
            tables.append((out / "density.csv").read_bytes())
        assert tables[0] == tables[1]
        lines = (out / "trajectory.txt").read_text().splitlines()
        info = json.loads((out / "run_info.json").read_text())
        assert len(lines) == sum(info["events"].values())

    def test_event_counts_reported(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(validate_manifest(dict(STAT)), out)
        info = json.loads((out / "run_info.json").read_text())
        assert set(info["events"]) == {"growth", "ignition"}
        assert set(info["effective"]) == {"growth", "burn"}
        assert 0 < sum(info["effective"].values()) < sum(info["events"].values())
        text = summarize(out)
        assert "attempted events" in text and "effective" in text

    def test_exact_probabilities_sum(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(validate_manifest(EXACT), out)
        rows = (out / "exact.csv").read_text().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)
        info = json.loads((out / "run_info.json").read_text())
        assert info["balance_residual"] <= 1e-10
        assert info["solver_iterations"] >= 1

    @pytest.mark.parametrize("kind", ["blur-decay", "ccsb", "couple"])
    def test_zero_replicas_warns_but_succeeds(self, tmp_path, capsys, kind):
        out = tmp_path / "run"
        run_experiment(validate_manifest(dict(TINY[kind], replicas=0)), out)
        for name, header in TABLES[kind].items():
            assert (out / name).read_text().splitlines() == [header]
        assert "warning" in capsys.readouterr().err
        info = json.loads((out / "run_info.json").read_text())
        assert info["warning"] == "no replicas"
        assert (out / "geometry.json").exists() == (kind == "couple")

    @pytest.mark.parametrize("kind", sorted(TINY))
    def test_summarize(self, tmp_path, kind):
        out = tmp_path / "run"
        run_experiment(validate_manifest(TINY[kind]), out)
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(TABLES[kind])
        for name, header in TABLES[kind].items():
            assert (out / name).read_text().splitlines()[0] == header
        text = summarize(out)
        assert f"kind: {kind}" in text
        if kind == "exact":
            assert "balance residual" in text
            assert "solver iterations" in text
        assert summarize(tmp_path / "empty") == "no runs found"


class TestDeterminism:
    @pytest.mark.parametrize("manifest", [BLUR, COUPLE],
                             ids=["blur-decay", "couple"])
    def test_byte_identical_across_jobs(self, tmp_path, manifest):
        outs = []
        for tag, jobs in (("a", 1), ("b", 3)):
            out = tmp_path / tag
            run_experiment(validate_manifest(dict(manifest)), out, jobs=jobs)
            outs.append(out)
        a, b = outs
        for csv_path in sorted(a.glob("*.csv")):
            assert (b / csv_path.name).read_bytes() == csv_path.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        m = validate_manifest(dict(BLUR))
        m2 = validate_manifest(dict(BLUR, seed=99))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_experiment(m, out1)
        run_experiment(m2, out2)
        assert (out1 / "blur_decay.csv").read_text() != \
            (out2 / "blur_decay.csv").read_text()


POOL = ["x", True, None, -1, 0.5, [], {}, [[0]], {"kind": "x"}]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_manifest_exits_cleanly(data):
    """One field of a tiny valid manifest set to a value from a fixed pool
    (never a large count or horizon): exit code 0, 2 or 3, no traceback."""
    kind = data.draw(st.sampled_from(sorted(TINY)))
    manifest = dict(TINY[kind])
    field = data.draw(st.sampled_from(sorted(set(manifest)
                                             | set(_KINDS[kind].fields))))
    manifest[field] = data.draw(st.sampled_from(POOL))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(manifest))
        code = main([kind, "--manifest", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_env_jobs_parsing(monkeypatch):
    from ffp_lab.errors import InvalidParameterError
    from ffp_lab.parallel import ENV_JOBS, default_jobs
    monkeypatch.delenv(ENV_JOBS, raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv(ENV_JOBS, "4")
    assert default_jobs() == 4
    monkeypatch.setenv(ENV_JOBS, "lots")
    with pytest.raises(InvalidParameterError):
        default_jobs()


def test_pool_size_bounded_by_chunks_and_cpus(monkeypatch):
    """A fork-started pool launches every worker at the first submit, so
    the pool is never sized by --jobs alone (no real pool is started)."""
    from concurrent.futures import Future

    from ffp_lab import parallel
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    def squares(payload, start, stop):
        return [payload * i * i for i in range(start, stop)]

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    out = parallel.run_chunked(squares, 2, 5, jobs=10**6)
    assert out == squares(2, 0, 5)
    assert sizes == [min(5, len(os.sched_getaffinity(0)))]


def test_cli_import_leaves_scipy_unloaded():
    """Only the exact solve imports scipy, so no other run pays for it."""
    code = ("import sys\n"
            "import ffp_lab.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported by ffp_lab.cli'\n"
            "from ffp_lab.lattice import explicit_topology\n"
            "from ffp_lab.measure import exact_stationary\n"
            "ex = exact_stationary(explicit_topology(2, [(0, 1)]), 1.0)\n"
            "assert abs(ex.probs.sum() - 1.0) < 1e-12\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
