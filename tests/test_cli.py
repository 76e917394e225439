import json

import pytest

from ffp_lab.cli import (ManifestError, main, parse_manifest, run_experiment,
                         summarize, validate_manifest)


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

    def test_unconverged_solve_is_capacity_error(self, tmp_path, monkeypatch,
                                                 capsys):
        from ffp_lab import measure
        monkeypatch.setattr(measure, "BALANCE_TOL", 0.0)
        path = write_manifest(tmp_path, dict(EXACT, d=2))
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "residual" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        dict(STAT, window=[[5, 5]]),
        dict(STAT, window=[]),
        dict(BLUR, x=[9, 9], replicas=2),
        dict(EXACT, **{"lambda": True}),
        dict(STAT, window=[[0, 0], 5]),
        dict(BLUR, L_list=["x"]),
        dict(BLUR, t_list=[]),
        dict(STAT, n_batches=0),
        dict(SIM, horizon=float("inf")),
    ], ids=["window-outside-box", "empty-window", "probe-outside-window",
            "bool-lambda", "window-item-not-coord", "L_list-not-int",
            "empty-t_list", "zero-batches", "infinite-horizon"])
    def test_bad_manifest_exits_2(self, tmp_path, capsys, manifest):
        path = write_manifest(tmp_path, manifest)
        assert main([manifest["kind"], "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err


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

    def test_zero_replicas_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_experiment(validate_manifest(dict(BLUR, replicas=0)), out)
        table = (out / "blur_decay.csv").read_text().splitlines()
        assert len(table) == 1  # header only
        assert "warning" in capsys.readouterr().err

    def test_summarize(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(validate_manifest(EXACT), out)
        text = summarize(out)
        assert "kind: exact" in text
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
