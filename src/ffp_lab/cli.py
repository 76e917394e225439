"""Command-line front door: manifests, seeded runs, tabular outputs.

Usage:
    ffp-lab <kind> --manifest FILE [--seed N] [--jobs N] [--out DIR]
    ffp-lab summarize DIR

Kinds: simulate, stationary, exact, blur-decay, ccsb, couple, mu-scan.
Exit codes: 0 success, 2 validation or other package error, 3 capacity
error (including an exact solve that fails to converge).  The env
var FFP_LAB_JOBS provides the default parallelism.

All tables are CSV with a fixed float representation, so a manifest and
seed fully determine the output bytes, independent of --jobs.
"""

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blur import blur_decay_experiment, epsilon_for
from .ccsb import CcsbQuery, ccsb_check, cluster_size_tail
from .coupling import CoupleParams, CylinderEvent, lemma1_experiment
from .engine import ForestFireEngine, TrajectoryRecorder
from .errors import CapacityError, FfpError, InvalidParameterError
from .lattice import build_topology, config_to_string, read_edge_list
from .measure import (SiteDensityObserver, default_burn_in, estimate_marginal,
                      mu_convergence_scan, pattern_bitstring)
from .parallel import default_jobs
from .rng import make_rng
from .sampling import ReplicaSampler, make_init_sampler

KINDS = ("simulate", "stationary", "exact", "blur-decay", "ccsb", "couple",
         "mu-scan")


class ManifestError(InvalidParameterError):
    """Carries every validation problem found in a manifest."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# Manifest parsing

def _require(manifest, problems, field, types=None):
    if field not in manifest:
        problems.append(f"missing field: {field}")
        return None
    value = manifest[field]
    # bool is an int subclass, but never a valid number or count
    if types is not None and (isinstance(value, bool)
                              or not isinstance(value, types)):
        problems.append(f"field {field} has the wrong type")
        return None
    return value


def _check_lambda(manifest, problems):
    lam = _require(manifest, problems, "lambda", (int, float))
    if lam is not None and lam <= 0:
        problems.append("lambda must be positive")


def _check_topology(manifest, problems):
    if "edge_file" in manifest:
        return
    d = _require(manifest, problems, "d", int)
    k = _require(manifest, problems, "k", int)
    if d is not None and d < 1:
        problems.append("d must be at least 1")
    if k is not None and k < 0:
        problems.append("k must be nonnegative")
    mode = manifest.setdefault("mode", "torus")
    if mode not in ("torus", "window"):
        problems.append(f"unknown mode {mode!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_time(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value < math.inf)


def _dimension(manifest):
    """Coordinate length of the manifest's sites (1 for an edge file);
    None when d itself is invalid, which is reported elsewhere."""
    if "edge_file" in manifest:
        return 1
    d = manifest.get("d")
    return d if _is_int(d) and d >= 1 else None


def _is_coord(value, dim):
    return (isinstance(value, list) and all(_is_int(c) for c in value)
            and (len(value) == dim if dim is not None else bool(value)))


def _check_items(manifest, problems, field, ok, what, allow_empty=False):
    """A required list field whose items all satisfy ok."""
    value = _require(manifest, problems, field, list)
    if value is None:
        return
    if not value and not allow_empty:
        problems.append(f"{field} must be a non-empty list")
    elif not all(ok(v) for v in value):
        problems.append(f"{field} must hold only {what}")


def _check_coords(manifest, problems, field, allow_empty=False):
    dim = _dimension(manifest)
    what = ("integer coordinate lists" if dim is None else
            f"integer coordinate lists of length {dim}")
    _check_items(manifest, problems, field, lambda c: _is_coord(c, dim), what,
                 allow_empty)


def _check_coord(manifest, problems, field):
    dim = _dimension(manifest)
    if field not in manifest:
        problems.append(f"missing field: {field}")
    elif not _is_coord(manifest[field], dim):
        problems.append(f"{field} must be an integer coordinate list"
                        + ("" if dim is None else f" of length {dim}"))


def _coords(value):
    return [tuple(c) for c in value]


def _resolve_times(manifest, problems):
    """Fill t_list either directly or from an epsilon spec; True when it
    then holds only finite nonnegative numbers."""
    if "t_list" not in manifest:
        eps = manifest.get("epsilon")
        if eps is None:
            problems.append("missing field: t_list (or epsilon)")
            return False
        try:
            e = epsilon_for(int(eps.get("m", 1)), int(eps.get("d_G", 6)),
                            float(eps.get("safety", 0.5)))
        except (FfpError, AttributeError, TypeError, ValueError) as exc:
            problems.append(f"bad epsilon spec: {exc}")
            return False
        manifest["t_list"] = [e]
    before = len(problems)
    _check_items(manifest, problems, "t_list", _is_time,
                 "finite nonnegative numbers")
    return len(problems) == before


_DEFAULTS = {
    "simulate": {"seed": 0, "burn_in": 0.0, "init": {"kind": "vacant"},
                 "dump_trajectory": False, "n_batches": 20},
    "stationary": {"seed": 0, "n_batches": 20},
    "exact": {"seed": 0},
    "blur-decay": {"seed": 0, "r_I": 0, "margin": 1,
                   "init": {"kind": "stationary"}},
    "ccsb": {"seed": 0, "delta": 1.0,
             "sampler": {"kind": "stationary"}},
    "couple": {"seed": 0, "r_I": 0, "bank_snapshots": 800,
               "bank_spacing": 1.0, "bank_burn_in": 30.0},
    "mu-scan": {"seed": 0},
}


def validate_manifest(manifest: dict, kind: str = None) -> dict:
    """Validate and fill defaults; raises ManifestError listing every
    violation found."""
    problems = []
    manifest = dict(manifest)
    mkind = manifest.get("kind", kind)
    if mkind is None:
        problems.append("missing field: kind")
    elif kind is not None and mkind != kind:
        problems.append(f"manifest kind {mkind!r} does not match command {kind!r}")
    elif mkind not in KINDS:
        problems.append(f"unknown kind {mkind!r}")
    if problems:
        raise ManifestError(problems)
    manifest["kind"] = mkind
    for key, value in _DEFAULTS[mkind].items():
        manifest.setdefault(key, value)

    _check_lambda(manifest, problems)
    if mkind in ("simulate", "stationary", "exact", "ccsb"):
        _check_topology(manifest, problems)
    if mkind in ("simulate", "stationary", "mu-scan"):
        h = _require(manifest, problems, "horizon", (int, float))
        if h is not None and not 0 < h < math.inf:
            problems.append("horizon must be finite and positive")
        if manifest.get("burn_in") is not None and not _is_time(manifest["burn_in"]):
            problems.append("burn_in must be a finite nonnegative number")
    if mkind in ("simulate", "stationary"):
        nb = _require(manifest, problems, "n_batches", int)
        if nb is not None and nb < 1:
            problems.append("n_batches must be at least 1")
    if mkind == "stationary":
        _check_coords(manifest, problems, "window")
        manifest.setdefault("burn_in", None)
    if mkind in ("blur-decay", "ccsb", "couple"):
        reps = _require(manifest, problems, "replicas", int)
        if reps is not None and reps < 0:
            problems.append("replicas must be nonnegative")
    if mkind == "blur-decay":
        for f in ("d", "r_I", "margin"):
            _require(manifest, problems, f, int)
        _check_items(manifest, problems, "L_list",
                     lambda v: _is_int(v) and v >= 0, "nonnegative integers",
                     allow_empty=True)
        manifest.setdefault("x", [0] * (_dimension(manifest) or 1))
        _check_coord(manifest, problems, "x")
        _resolve_times(manifest, problems)
    if mkind == "ccsb":
        _check_coord(manifest, problems, "x")
        _check_items(manifest, problems, "m_list",
                     lambda v: _is_int(v) and v >= 0, "nonnegative integers",
                     allow_empty=True)
        manifest.setdefault("B", [])
        manifest.setdefault("D", [])
        _check_coords(manifest, problems, "B", allow_empty=True)
        _check_coords(manifest, problems, "D", allow_empty=True)
    if mkind == "couple":
        for f in ("d", "K", "k", "L", "r_I"):
            _require(manifest, problems, f, int)
        if "t" not in manifest:
            if _resolve_times(manifest, problems):
                manifest["t"] = manifest.pop("t_list")[0]
        elif not _is_time(manifest["t"]):
            problems.append("t must be a finite nonnegative number")
        if not problems:
            geo = CoupleParams(manifest["d"], manifest["lambda"],
                               manifest["K"], manifest["k"], manifest["r_I"],
                               manifest["L"], manifest["t"], manifest["seed"])
            problems.extend(geo.validate())
    if mkind == "mu-scan":
        _require(manifest, problems, "d", int)
        _check_coords(manifest, problems, "window")
        _check_items(manifest, problems, "k_list",
                     lambda v: _is_int(v) and v >= 1, "positive integers")
        manifest.setdefault("burn_in", None)

    if problems:
        raise ManifestError(problems)
    return manifest


def parse_manifest(path, kind: str = None) -> dict:
    path = Path(path)
    if not path.exists():
        raise ManifestError([f"manifest file not found: {path}"])
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError([f"manifest is not valid JSON: {exc}"]) from None
    if not isinstance(manifest, dict):
        raise ManifestError(["manifest must be a JSON object"])
    return validate_manifest(manifest, kind)


# ---------------------------------------------------------------------------
# Output helpers

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _topology_from_manifest(manifest):
    if "edge_file" in manifest:
        return read_edge_list(manifest["edge_file"])
    return build_topology(manifest["d"], manifest["k"], manifest["mode"])


# ---------------------------------------------------------------------------
# Experiment handlers

def _event_info(engine):
    """Attempted events per kind and effective growths and burns."""
    return {"events": dict(engine.counts), "effective": dict(engine.effective)}


def _run_simulate(m, out, jobs):
    topology = _topology_from_manifest(m)
    seed = m["seed"]
    sampler = make_init_sampler(topology, m["lambda"], m["init"], seed,
                                stream=(1,))
    init = sampler.sample(make_rng(seed, 2))
    engine = ForestFireEngine(topology, m["lambda"], make_rng(seed, 0), init)
    burn_in, horizon = m["burn_in"], m["horizon"]
    if horizon <= burn_in:
        raise ManifestError(["horizon must exceed burn_in"])
    listeners = []
    traj_fh = None
    if m["dump_trajectory"]:
        traj_fh = open(out / "trajectory.txt", "w")
        listeners.append(TrajectoryRecorder(traj_fh))
    engine.run_until(burn_in, listeners=listeners)
    obs = SiteDensityObserver(engine, burn_in, horizon, m["n_batches"])
    engine.run_until(horizon, observers=(obs,), listeners=listeners)
    if traj_fh:
        traj_fh.close()
    dens, se = obs.densities()
    rows = [(i, " ".join(map(str, topology.coords[i])), float(dens[i]),
             float(se[i])) for i in range(topology.n_sites)]
    write_csv(out / "density.csv", ["site", "coords", "density", "stderr"], rows)
    (out / "snapshot.txt").write_text(config_to_string(engine.occ) + "\n")
    return _event_info(engine)


def _run_stationary(m, out, jobs):
    topology = _topology_from_manifest(m)
    engine = ForestFireEngine(topology, m["lambda"], make_rng(m["seed"], 0))
    burn_in = m["burn_in"]
    if burn_in is None:
        burn_in = default_burn_in(topology, m["horizon"])
    measure = estimate_marginal(engine, _coords(m["window"]), burn_in,
                                m["horizon"], m["n_batches"])
    write_csv(out / "measure.csv",
              ["pattern", "weight", "probability", "stderr"], measure.rows())
    return {"window": [list(c) for c in measure.window],
            "total_time": measure.total, **_event_info(engine)}


def _run_exact(m, out, jobs):
    from .measure import exact_stationary
    topology = _topology_from_manifest(m)
    exact = exact_stationary(topology, m["lambda"])
    n = topology.n_sites
    rows = [(pattern_bitstring(s, n), float(p))
            for s, p in enumerate(exact.probs)]
    write_csv(out / "exact.csv", ["state", "probability"], rows)
    return {"balance_residual": exact.balance_residual,
            "solver_iterations": exact.solver_iterations, "states": 1 << n}


def _run_blur_decay(m, out, jobs):
    if m["replicas"] == 0:
        write_csv(out / "blur_decay.csv",
                  ["L", "t", "flagged", "replicas", "p_hat", "ci_low",
                   "ci_high"], [])
        print("warning: replicas = 0, wrote an empty table", file=sys.stderr)
        return {"warning": "no replicas"}
    rows = blur_decay_experiment(
        m["d"], m["lambda"], m["x"], m["r_I"], m["L_list"], m["t_list"],
        m["replicas"], m["init"], m["seed"], m["margin"], jobs=jobs)
    write_csv(out / "blur_decay.csv",
              ["L", "t", "flagged", "replicas", "p_hat", "ci_low", "ci_high"],
              [(r.L, r.t, r.flagged, r.replicas, r.p_hat, r.ci_low, r.ci_high)
               for r in rows])
    return {"rows": len(rows)}


def _make_ccsb_sampler(topology, m):
    spec = dict(m["sampler"])
    kind = spec.get("kind", "stationary")
    if kind == "replica":
        init = spec.get("init", {"kind": "vacant"})
        inner = make_init_sampler(topology, m["lambda"], init, m["seed"],
                                  stream=(6,))
        return ReplicaSampler(topology, m["lambda"], float(spec.get("s", 0.0)),
                              inner)
    return make_init_sampler(topology, m["lambda"], spec, m["seed"],
                             stream=(5,))


def _run_ccsb(m, out, jobs):
    header = ["query", "m", "delta", "joint", "cond", "bound", "verdict"]
    tail_header = ["m", "exceed", "replicas", "p_hat", "ci_low", "ci_high"]
    if m["replicas"] == 0:
        write_csv(out / "ccsb.csv", header, [])
        write_csv(out / "tail.csv", tail_header, [])
        print("warning: replicas = 0, wrote empty tables", file=sys.stderr)
        return {"warning": "no replicas"}
    topology = _topology_from_manifest(m)
    sampler = _make_ccsb_sampler(topology, m)
    x = tuple(m["x"])
    rows = []
    for qid, mm in enumerate(m["m_list"]):
        query = CcsbQuery.build(topology, _coords(m["B"]) if m["B"] else [],
                                _coords(m["D"]) if m["D"] else [],
                                x, int(mm), m["delta"])
        rep = ccsb_check(sampler, topology, query, m["replicas"], m["seed"])
        rows.append((qid, int(mm), m["delta"], rep.joint_hat, rep.cond_hat,
                     rep.bound, rep.verdict))
    write_csv(out / "ccsb.csv", header, rows)
    tail = cluster_size_tail(sampler, topology, x, m["m_list"], m["replicas"],
                             m["seed"])
    write_csv(out / "tail.csv", tail_header,
              [(r.m, r.exceed, r.replicas, r.p_hat, r.ci_low, r.ci_high)
               for r in tail.rows])
    return {"max_cluster_size": tail.max_size, "sampler": tail.sampler_mode}


def _run_couple(m, out, jobs):
    rec_header = ["replica", "initial_J_equal", "agree_on_I", "any_I_blurred",
                  "in_A_window", "in_A_torus"]
    rep_header = ["lhs", "blur_term", "tv_term", "pooled_se", "verdict", "tv",
                  "eq_freq", "p_A_window", "p_A_torus", "replicas"]
    sidecar = {key: m[key] for key in
               ("d", "lambda", "K", "k", "r_I", "L", "t", "seed",
                "bank_snapshots", "bank_spacing", "bank_burn_in")}
    (out / "geometry.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    if m["replicas"] == 0:
        write_csv(out / "records.csv", rec_header, [])
        write_csv(out / "lemma1.csv", rep_header, [])
        print("warning: replicas = 0, wrote empty tables", file=sys.stderr)
        return {"warning": "no replicas"}
    params = CoupleParams(m["d"], m["lambda"], m["K"], m["k"], m["r_I"],
                          m["L"], m["t"], m["seed"], m["bank_snapshots"],
                          m["bank_spacing"], m["bank_burn_in"])
    event = CylinderEvent.site_occupied((0,) * m["d"])
    report = lemma1_experiment(params, event, m["replicas"], jobs=jobs)
    write_csv(out / "records.csv", rec_header,
              [(i, r.initial_J_equal, r.agree_on_I, r.any_I_blurred,
                r.in_A_window, r.in_A_torus)
               for i, r in enumerate(report.records)])
    write_csv(out / "lemma1.csv", rep_header,
              [(report.lhs, report.blur_term, report.tv_term, report.pooled_se,
                report.verdict, report.tv, report.eq_freq, report.p_A_window,
                report.p_A_torus, report.replicas)])
    return {"verdict": report.verdict}


def _run_mu_scan(m, out, jobs):
    burn_in = m["burn_in"]
    if burn_in is None:
        burn_in = m["horizon"] / 5.0
    scan = mu_convergence_scan(m["d"], m["lambda"], _coords(m["window"]),
                               m["k_list"], burn_in, m["horizon"], m["seed"])
    write_csv(out / "mu_scan.csv",
              ["k_low", "k_high", "tv", "ci_low", "ci_high"],
              [(r.k_low, r.k_high, r.tv, r.ci_low, r.ci_high)
               for r in scan.rows])
    for k, measure in scan.marginals.items():
        write_csv(out / f"marginal_k{k}.csv",
                  ["pattern", "weight", "probability", "stderr"],
                  measure.rows())
    return {"k_list": sorted(scan.marginals)}


_HANDLERS = {
    "simulate": _run_simulate,
    "stationary": _run_stationary,
    "exact": _run_exact,
    "blur-decay": _run_blur_decay,
    "ccsb": _run_ccsb,
    "couple": _run_couple,
    "mu-scan": _run_mu_scan,
}


def run_experiment(manifest: dict, out_dir, jobs: int = 1) -> dict:
    """Run a validated manifest; writes CSV outputs plus run_info.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    extra = _HANDLERS[manifest["kind"]](manifest, out, jobs)
    info = {"manifest": manifest, "seed": manifest["seed"],
            "version": __version__, "wall_time_s": time.time() - start}
    if extra:
        info.update(extra)
    (out / "run_info.json").write_text(
        json.dumps(info, sort_keys=True, indent=2) + "\n")
    return info


# ---------------------------------------------------------------------------
# Summaries

def summarize(out_dir) -> str:
    out = Path(out_dir)
    info_path = out / "run_info.json"
    if not info_path.exists():
        return "no runs found"
    info = json.loads(info_path.read_text())
    kind = info.get("manifest", {}).get("kind", "?")
    lines = [f"kind: {kind}  seed: {info.get('seed')}  "
             f"version: {info.get('version')}"]
    if kind in ("simulate", "stationary"):
        lines.append(f"attempted events: {info.get('events')}  "
                     f"effective: {info.get('effective')}")
    if kind == "simulate":
        lines += _summ_csv(out / "density.csv", 12)
    elif kind == "stationary":
        lines += _summ_csv(out / "measure.csv", 12)
    elif kind == "exact":
        lines.append(f"balance residual: {info.get('balance_residual')}  "
                     f"solver iterations: {info.get('solver_iterations')}")
        lines += _summ_csv(out / "exact.csv", 8)
    elif kind == "blur-decay":
        lines += _summ_csv(out / "blur_decay.csv", 40)
    elif kind == "ccsb":
        lines.append(f"max cluster size: {info.get('max_cluster_size')}")
        lines += _summ_csv(out / "ccsb.csv", 40)
    elif kind == "couple":
        lines += _summ_csv(out / "lemma1.csv", 4)
    elif kind == "mu-scan":
        lines += _summ_csv(out / "mu_scan.csv", 40)
    return "\n".join(lines)


def _summ_csv(path, max_rows):
    if not Path(path).exists():
        return [f"missing: {path}"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    lines = ["  " + ", ".join(r) for r in rows[:max_rows + 1]]
    if len(rows) > max_rows + 1:
        lines.append(f"  ... {len(rows) - 1} rows total")
    return lines


# ---------------------------------------------------------------------------
# Entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffp-lab",
        description="Forest-fire process experiment laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--manifest", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--out", default=None)
    s = sub.add_parser("summarize")
    s.add_argument("out_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "summarize":
        print(summarize(args.out_dir))
        return 0
    try:
        manifest = parse_manifest(args.manifest, args.command)
        if args.seed is not None:
            manifest["seed"] = args.seed
            manifest = validate_manifest(manifest, args.command)
        jobs = args.jobs if args.jobs is not None else default_jobs()
        out = args.out or manifest.get("out") or f"ffp-out-{args.command}"
        run_experiment(manifest, out, jobs)
    except ManifestError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except FfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
