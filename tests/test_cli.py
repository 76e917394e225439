import contextlib
import io
import itertools
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
from ffp_lab.errors import CapacityError


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

    def test_epsilon_defaults(self):
        from ffp_lab.blur import epsilon_for
        base = {k: v for k, v in BLUR.items() if k != "t_list"}
        m = validate_manifest(dict(base, epsilon={}))
        assert m["t_list"] == [epsilon_for(1, 6, 0.5)]
        m = validate_manifest(dict(base, epsilon={"safety": 1, "d_G": 4}))
        assert m["t_list"] == [epsilon_for(1, 4, 1)]

    def test_couple_bank_defaults(self):
        m = validate_manifest({k: v for k, v in COUPLE.items()
                               if not k.startswith("bank_")})
        assert [m[k] for k in ("bank_snapshots", "bank_spacing",
                               "bank_burn_in")] == [800, 1.0, 30.0]

    def test_default_burn_in_not_below_horizon_refused(self):
        """A grid's default burn-in, max(10 x sites, horizon / 5), is known
        from d and k, so validation refuses it before any lattice is built."""
        m = dict(STAT, burn_in=None, horizon=40.0)   # 9 sites: 90 >= 40
        with pytest.raises(ManifestError) as err:
            validate_manifest(m)
        assert err.value.problems == ["horizon must exceed burn_in"]
        assert validate_manifest(dict(m, horizon=91.0))["burn_in"] is None

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


def over_the_bound(kind, field):
    """Overrides of TINY[kind] that set one lattice-size field just over
    the lattice bound: the run's largest box then has the fewest sites x d
    that exceed it."""
    from ffp_lab.lattice import MAX_SITE_COORDS as bound

    def fits(d, radius):
        return (2 * radius + 1) ** d * d <= bound

    m = TINY[kind]
    if field == "d" and "mode" in m:               # the grid kinds
        return {"d": bound + 1, "k": 0}            # one site, d-long
    if field == "d":                               # the radius of TINY
        radius = {"blur-decay": 2, "couple": m.get("K"),
                  "mu-scan": max(m.get("k_list", [0]))}[kind]
        return {"d": next(d for d in itertools.count(1)
                          if not fits(d, radius))}
    r = next(r for r in itertools.count() if not fits(m["d"], r))
    return {"k": {"k": r}, "K": {"K": r}, "k_list": {"k_list": [1, r]},
            "L_list": {"L_list": [1, r - 1]},      # with r_I 0 and margin 1
            "r_I": {"r_I": r - 2},                 # with L 1 and margin 1
            "margin": {"margin": r - 1}}[field]    # with r_I 0 and L 1


class TestExitCodes:
    def test_success(self, tmp_path):
        path = write_manifest(tmp_path, EXACT)
        assert main(["exact", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_validation_error(self, tmp_path):
        path = write_manifest(tmp_path, {"kind": "simulate", "lambda": 0})
        assert main(["simulate", "--manifest", str(path)]) == 2

    def test_seed_flag_set_before_validation(self, tmp_path, capsys):
        """--seed replaces the manifest's seed before the one validation,
        so only the seed that the run uses is checked."""
        path = write_manifest(tmp_path, dict(SIM, seed=-1))
        args = ["simulate", "--manifest", str(path),
                "--out", str(tmp_path / "out")]
        assert main(args + ["--seed", "5"]) == 0
        info = json.loads((tmp_path / "out" / "run_info.json").read_text())
        assert info["seed"] == 5
        assert main(args + ["--seed", "-3"]) == 2
        assert "error: seed must be an integer >= 0" in capsys.readouterr().err

    def test_edge_file_default_burn_in_refused_at_run_time(self, tmp_path,
                                                          capsys):
        edges = tmp_path / "ring.edges"
        edges.write_text("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)))
        path = write_manifest(tmp_path, {
            "kind": "stationary", "lambda": 1.0, "edge_file": str(edges),
            "window": [[0]], "horizon": 40.0})   # 8 sites: 80 >= 40
        assert main(["stationary", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: horizon must exceed burn_in" in capsys.readouterr().err

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

    @pytest.mark.parametrize("d, L_list", [(8, [10]), (2, [1, 400])],
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
        assert "sites x dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field", [
        *[(kind, field) for kind in ("simulate", "stationary", "exact", "ccsb")
          for field in ("d", "k", "edge_file")],
        ("blur-decay", "d"), ("blur-decay", "L_list"), ("blur-decay", "r_I"),
        ("blur-decay", "margin"), ("couple", "d"), ("couple", "K"),
        ("mu-scan", "d"), ("mu-scan", "k_list")])
    def test_lattice_just_over_the_bound_exits_3(self, tmp_path, monkeypatch,
                                                 capsys, kind, field):
        from ffp_lab import lattice

        def refuse(*args):
            raise AssertionError("an over-bound lattice was allocated")

        # the allocating calls refuse, so nothing over the bound is built
        monkeypatch.setattr(lattice, "box_coords", refuse)
        monkeypatch.setattr(lattice, "explicit_topology", refuse)
        m = dict(TINY[kind])
        if field == "edge_file":
            edges = tmp_path / "far.edges"     # MAX_SITE_COORDS + 1 sites
            edges.write_text(f"0 1\n1 {lattice.MAX_SITE_COORDS}\n")
            del m["d"], m["k"], m["mode"]
            m["edge_file"] = str(edges)
        else:
            m.update(over_the_bound(kind, field))
        d = m.get("d", 1)
        for key in ("window", "B", "D"):
            if key in m:
                m[key] = [[0] * d for _ in m[key]]
        if "x" in m:                           # blur-decay keeps its default
            m["x"] = [0] * d
        if field != "edge_file":               # refused by validation itself
            with pytest.raises(CapacityError):
                validate_manifest(m)
        path = write_manifest(tmp_path, m)
        assert main([kind, "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and "Traceback" not in err

    def test_bank_over_the_bound_exits_3(self, tmp_path, monkeypatch,
                                         capsys):
        from ffp_lab import lattice, sampling

        def refuse(*args):
            raise AssertionError("a lattice or a bank was built")

        for owner, name in ((sampling, "ForestFireEngine"),
                            (lattice, "box_coords"),
                            (lattice, "explicit_topology")):
            monkeypatch.setattr(owner, name, refuse)
        stationary = {"kind": "stationary", "snapshots": 10}
        # each manifest with the site-snapshots of its largest bank
        for m, bank in ((COUPLE, 60 * 81),     # the K = 4 window bank
                        (dict(BLUR, init={"kind": "stationary"}), 1000 * 25),
                        (dict(CCSB, sampler={"kind": "replica",
                                             "init": stationary}), 10 * 9),
                        (dict(SIM, init=stationary), 10 * 9)):
            monkeypatch.setattr(lattice, "MAX_BANK_SITES", bank)
            validate_manifest(m)                # at the bound it passes
            monkeypatch.setattr(lattice, "MAX_BANK_SITES", bank - 1)
            path = write_manifest(tmp_path, m)
            assert main([m["kind"], "--manifest", str(path),
                         "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("capacity error: ")
            assert "site-snapshots" in err

    def test_batches_over_the_bound_exit_3(self, tmp_path, monkeypatch,
                                           capsys):
        from ffp_lab import lattice

        def refuse(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(lattice, "box_coords", refuse)
        edges = tmp_path / "ring.edges"                    # 4 sites
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
        ring = {k: v for k, v in SIM.items() if k not in ("d", "k")}
        # each manifest with its batches x (2 + keys a row can credit);
        # mu-scan keeps 20 batches per radius
        for m, cells in ((dict(SIM, n_batches=7), 7 * (2 + 9)),
                         (dict(STAT, n_batches=7), 7 * (2 + 2)),
                         (dict(ring, edge_file=str(edges)), 20 * (2 + 4)),
                         (dict(MU_SCAN, k_list=[2, 1]), 2 * 20 * (2 + 2))):
            monkeypatch.setattr(lattice, "MAX_BATCH_CELLS", cells)
            validate_manifest(m)                # at the bound it passes
            monkeypatch.setattr(lattice, "MAX_BATCH_CELLS", cells - 1)
            path = write_manifest(tmp_path, m)
            assert main([m["kind"], "--manifest", str(path),
                         "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("capacity error: ") and "batch cells" in err

    @pytest.mark.parametrize("manifest", [
        # the default 800 snapshots of the 491,401-site window
        {k: v for k, v in dict(COUPLE, K=350, k=3).items()
         if k != "bank_snapshots"},
        dict(STAT, k=2, window=[list(c) for c in itertools.product(
            range(-2, 3), repeat=2)][:21]),
        dict(MU_SCAN, window=[[i] for i in range(-10, 11)], k_list=[11, 12])],
        ids=["couple-bank", "stationary-window", "mu-scan-window"])
    def test_refused_at_validation_before_any_topology(
            self, tmp_path, monkeypatch, capsys, manifest):
        sizes = self.built_sizes(monkeypatch)
        with pytest.raises(CapacityError):
            validate_manifest(manifest)
        path = write_manifest(tmp_path, manifest)
        assert main([manifest["kind"], "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("capacity error: ")
        assert sizes == []

    def test_ccsb_query_checked_before_the_bank_is_built(
            self, tmp_path, monkeypatch, capsys):
        from ffp_lab import sampling

        def no_bank(*args, **kwargs):
            raise AssertionError("snapshot bank built before the query check")

        monkeypatch.setattr(sampling.SnapshotBank, "__init__", no_bank)
        path = write_manifest(tmp_path, dict(CCSB, D=[[0, 0]],
                                             sampler={"kind": "stationary"}))
        assert main(["ccsb", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "probe site must lie outside D" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]",
                                      '{"manifest": 5}'],
                             ids=["invalid-json", "not-an-object",
                                  "manifest-not-an-object"])
    def test_summarize_bad_run_info_exits_2(self, tmp_path, capsys, text):
        (tmp_path / "run_info.json").write_text(text)
        assert main(["summarize", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run_info.json" in err

    @pytest.mark.parametrize("table", ["not-utf-8", "a-directory"])
    def test_summarize_unreadable_table_exits_2(self, tmp_path, capsys, table):
        (tmp_path / "run_info.json").write_text(json.dumps({"manifest": EXACT}))
        if table == "a-directory":
            (tmp_path / "exact.csv").mkdir()
        else:
            (tmp_path / "exact.csv").write_bytes(b"\xff\xfestate\n")
        assert main(["summarize", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exact.csv" in err

    @pytest.mark.parametrize("where", ["existing-file", "under-a-file",
                                       "table-is-a-directory"])
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, where):
        taken = tmp_path / "taken"
        taken.write_text("")
        (tmp_path / "out" / "exact.csv").mkdir(parents=True)
        out = {"existing-file": taken, "under-a-file": taken / "sub",
               "table-is-a-directory": tmp_path / "out"}[where]
        path = write_manifest(tmp_path, dict(EXACT, out=str(out)))
        assert main(["exact", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and str(out) in err

    def test_summarize_unhashable_kind_is_unknown(self, tmp_path, capsys):
        (tmp_path / "run_info.json").write_text('{"manifest": {"kind": ["x"]}}')
        assert main(["summarize", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "kind: ['x']  seed: None  version: None"]

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
        (dict(STAT, window=[[0, 0], [0, 0]]), "duplicate sites in window"),
        (dict(MU_SCAN, window=[[0], [0]]), "duplicate sites in window"),
        (dict(MU_SCAN, k_list=[2, 3, 2]), "duplicate radii in k_list"),
        (dict(MU_SCAN, k_list=[1, 1]), "duplicate radii in k_list"),
    ], ids=["window-outside-box", "empty-window", "probe-outside-window",
            "bool-lambda", "window-item-not-coord", "L_list-not-int",
            "empty-t_list", "zero-batches", "infinite-horizon",
            "init-p-not-number", "init-not-object", "null-burn_in",
            "dump_trajectory-not-bool", "snapshots-not-int",
            "sampler-s-not-number", "delta-not-number",
            "bank_snapshots-not-int", "edge_file-not-path",
            "edge_file-missing", "edge_file-bad-line", "unknown-init-kind",
            "unknown-sampler-kind", "seed-not-int", "duplicate-window",
            "mu-scan-duplicate-window", "mu-scan-duplicate-radius",
            "mu-scan-one-radius-twice"])
    def test_bad_manifest_exits_2(self, tmp_path, capsys, monkeypatch,
                                  manifest, problem):
        monkeypatch.chdir(tmp_path)   # relative edge files live here
        (tmp_path / "bad.edges").write_text("0 1\n1 2 3\n")
        sizes = self.built_sizes(monkeypatch)
        path = write_manifest(tmp_path, manifest)
        assert main([manifest["kind"], "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert problem in err
        if problem.startswith("duplicate"):   # refused at validation
            assert sizes == [] and not (tmp_path / "out").exists()


    def run_cli(self, tmp_path, manifest):
        """The CLI in a subprocess, which a hang fails by its timeout."""
        path = write_manifest(tmp_path, manifest)
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "ffp_lab.cli", manifest["kind"],
             "--manifest", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert "Traceback" not in done.stderr
        return done

    @pytest.mark.parametrize("lam", [1e308, 2e307])
    def test_lambda_whose_rate_overflows_exits_2(self, tmp_path, lam):
        """N(1 + lambda) overflows on the 3x3 torus: refused, where every
        holding time used to be 0.0 and the run never returned."""
        done = self.run_cli(tmp_path, dict(SIM, **{"lambda": lam}))
        assert done.returncode == 2, done.stderr
        assert "lambda too large" in done.stderr

    @pytest.mark.parametrize("lam, horizon", [(1e300, 20.0), (1.0, 1e17)])
    def test_horizon_the_clock_cannot_count_exits_3(self, tmp_path, lam,
                                                    horizon):
        """T*N*(1 + lambda) >= 2**52 on the 3-site ring: refused before
        any draw, where the run used to hang."""
        done = self.run_cli(tmp_path, dict(SIM, d=1, k=1, horizon=horizon,
                                           **{"lambda": lam}))
        assert done.returncode == 3, done.stderr
        assert "2**52" in done.stderr


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


POOL = ["x", True, None, -1, 0.5, 1e17, 1e300, [], {}, [[0]], {"kind": "x"}]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_manifest_exits_cleanly(data):
    """One field of a tiny valid manifest set to a value from a fixed pool:
    exit code 0, 2 or 3, no traceback.  1e17 and 1e300 make horizons and
    rates past 2**52 attempts; the pool holds no large integer count."""
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


def test_jobs_defaults_to_one_whatever_the_environment(monkeypatch):
    from ffp_lab.cli import build_parser
    monkeypatch.setenv("FFP_LAB_JOBS", "lots")
    args = build_parser().parse_args(["exact", "--manifest", "m.json"])
    assert args.jobs == 1


def test_pool_size_bounded_by_chunks_and_cpus(forks):
    """The fan-out forks at most one worker per replica and per usable
    CPU, never --jobs alone."""
    from ffp_lab import parallel

    def squares(payload, r):
        return payload * r * r

    out = parallel.run_chunked(squares, 2, 5, jobs=10**6)
    assert out == [squares(2, r) for r in range(5)]
    assert [len(pids) for pids in forks] == [min(5, len(os.sched_getaffinity(0)))]


def test_modules_load_only_where_a_run_uses_them(tmp_path):
    """The CLI import loads neither the pool machinery nor numpy.random.
    An exact run, which draws no random number, leaves numpy.random
    unloaded, and the forked fan-outs of couple and blur-decay at
    --jobs 2 load no pool machinery.  None of these runs has a time
    integrator, so none loads the array module of its batch rows."""
    code = ("import sys\n"
            "from ffp_lab.cli import main\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "loaded = [m for m in pool + ('numpy.random', 'array')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, f'{loaded} imported by ffp_lab.cli'\n"
            "assert main(sys.argv[1:]) == 0\n"
            "exact = ('numpy.random',) if sys.argv[1] == 'exact' else ()\n"
            "loaded = [m for m in pool + exact + ('array',) if m in sys.modules]\n"
            "assert not loaded, f'{loaded} loaded by {sys.argv[1]}'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    for manifest, jobs in ((EXACT, 1), (COUPLE, 2), (BLUR, 2)):
        kind = manifest["kind"]
        done = subprocess.run(
            [sys.executable, "-c", code, kind,
             "--manifest", str(write_manifest(tmp_path, manifest, f"{kind}.json")),
             "--jobs", str(jobs), "--out", str(tmp_path / kind)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("manifest", [COUPLE, MU_SCAN],
                         ids=["couple", "mu-scan"])
def test_tv_interval_leaves_numpy_ma_unloaded(tmp_path, manifest):
    """The bootstrap TV interval reads its percentiles without
    np.quantile, whose np.unique call loads numpy.ma."""
    code = ("import sys\n"
            "from ffp_lab.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, manifest["kind"],
         "--manifest", str(write_manifest(tmp_path, manifest)),
         "--out", str(tmp_path / "out")], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_scipy_unloaded():
    """No run loads scipy: not the CLI import, and not the exact solve,
    which needs numpy alone."""
    code = ("import sys\n"
            "import ffp_lab.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported by ffp_lab.cli'\n"
            "from ffp_lab.lattice import explicit_topology\n"
            "from ffp_lab.measure import exact_stationary\n"
            "ex = exact_stationary(explicit_topology(2, [(0, 1)]), 1.0)\n"
            "assert abs(ex.probs.sum() - 1.0) < 1e-12\n"
            "assert 'scipy' not in sys.modules, 'scipy imported by the solve'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
