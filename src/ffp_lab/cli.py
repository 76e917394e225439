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
import contextlib
import copy
import csv
import json
import math
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .blur import blur_decay_experiment, epsilon_for
from .ccsb import CcsbQuery, ccsb_check, cluster_size_tail
from .coupling import CoupleParams, CylinderEvent, lemma1_experiment
from .engine import ForestFireEngine, TrajectoryRecorder
from .errors import CapacityError, FfpError, InvalidParameterError
from .lattice import (build_topology, config_to_string, explicit_topology,
                      read_edge_list, read_edges)
from .measure import (SiteDensityObserver, default_burn_in, estimate_marginal,
                      mu_convergence_scan, pattern_bitstring)
from .parallel import default_jobs
from .rng import make_rng
from .sampling import ReplicaSampler, make_init_sampler


class ManifestError(InvalidParameterError):
    """Carries every validation problem found in a manifest."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# Field checks

_REQUIRED = object()   # a missing field is a problem
_OPTIONAL = object()   # a missing field stays missing; its reader has one

# ok(value, manifest) -> bool, or a dict mapping each "kind" of a nested
# spec to that kind's own fields; a failed check reports "<name> must be
# <what>".  The field is skipped when the field named by unless is present.
_Field = namedtuple("Field", "ok what default unless",
                    defaults=("", _REQUIRED, None))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value):
    # bool is an int subclass, but never a valid number or count
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _time(value, m=None):
    return _is_num(value) and 0 <= value < math.inf


def _positive(value, m=None):
    return _is_num(value) and 0 < value < math.inf


def _at_least(lo):
    return lambda value, m=None: _is_int(value) and value >= lo


def _dimension(manifest):
    """Coordinate length of the manifest's sites (1 for an edge file);
    None when d itself is invalid, which is reported elsewhere."""
    if "edge_file" in manifest:
        return 1
    d = manifest.get("d")
    return d if _is_int(d) and d >= 1 else None


def _coord(value, m):
    dim = _dimension(m)
    return (isinstance(value, list) and all(_is_int(c) for c in value)
            and (len(value) == dim if dim is not None else bool(value)))


def _list_of(ok, allow_empty=False):
    return lambda value, m: (isinstance(value, list)
                             and (allow_empty or bool(value))
                             and all(ok(v, m) for v in value))


def _epsilon(value, m=None):
    """An epsilon_for spec: optional integers m, d_G >= 1 and safety."""
    if not isinstance(value, dict):
        return False
    safety = value.get("safety", 1)
    return (all(_at_least(1)(value.get(key, 1)) for key in ("m", "d_G"))
            and _is_num(safety) and 0 < safety <= 1)


def _int(lo, default=_REQUIRED, unless=None):
    return _Field(_at_least(lo), f"an integer >= {lo}", default, unless)


_TIME = "a finite nonnegative number"
_COORDS = "a list of integer coordinates of length d (1 with an edge_file)"
_TIMES = _Field(_list_of(_time),
                "a non-empty list of finite nonnegative numbers", _OPTIONAL)
_HORIZON = _Field(_positive, "finite and positive")
_COUNTS = _Field(_list_of(_at_least(0), True), "a list of integers >= 0")
_X = _Field(_coord, "an integer coordinate of length d")
_SITES = _Field(_list_of(_coord, True), _COORDS, [])
_EPS = _Field(_epsilon, "an object with integers m, d_G >= 1 and safety in "
              "(0, 1]", _OPTIONAL)
_PATH = _Field(lambda v, m: isinstance(v, str), "a path", _OPTIONAL)
_MAYBE_BURN_IN = _Field(lambda v, m: v is None or _time(v), "null or " + _TIME,
                        None)

_COMMON = {
    "lambda": _Field(_positive, "positive"),
    "seed": _int(0, 0),
    "out": _PATH,
}
_GRID = {
    "edge_file": _PATH,
    "d": _int(1, unless="edge_file"),
    "k": _int(0, unless="edge_file"),
    "mode": _Field(lambda v, m: v in ("torus", "window"), "torus or window",
                   "torus", "edge_file"),
}
_INIT = {
    "vacant": {},
    "bernoulli": {"p": _Field(lambda v, m: _is_num(v) and 0 <= v <= 1,
                              "a number in [0, 1]", _OPTIONAL)},
    "stationary": {"snapshots": _int(1, _OPTIONAL),
                   "spacing": _HORIZON._replace(default=_OPTIONAL),
                   "burn_in": _Field(_time, _TIME, _OPTIONAL)},
}
_SAMPLER = {**_INIT, "replica": {"s": _Field(_time, _TIME, _OPTIONAL),
                                 "init": _Field(_INIT, default=_OPTIONAL)}}


def _walk(m, fields, problems, prefix=""):
    """Check every declared field of m and fill the missing top-level
    defaults; nested specs are walked with their own fields."""
    for name, f in fields.items():
        if f.unless in m:
            continue
        if name not in m:
            if f.default is _REQUIRED:
                problems.append(f"missing field: {prefix}{name}")
            elif f.default is not _OPTIONAL:
                m[name] = (f.default(m) if callable(f.default)
                           else copy.deepcopy(f.default))
        elif not isinstance(f.ok, dict):
            if not f.ok(m[name], m):
                problems.append(f"{prefix}{name} must be {f.what}")
        else:
            # nested spec; kind defaults to "vacant" as in make_init_sampler
            kind = isinstance(m[name], dict) and m[name].get("kind", "vacant")
            if isinstance(kind, str) and kind in f.ok:
                _walk(m[name], f.ok[kind], problems, f"{prefix}{name}.")
            else:
                problems.append(f"{prefix}{name} must be an object with kind "
                                + ", ".join(f.ok))


# ---------------------------------------------------------------------------
# Cross-field rules

def _horizon_after_burn_in(m, problems):
    horizon, burn_in = m.get("horizon"), m["burn_in"]
    if _positive(horizon) and _time(burn_in) and horizon <= burn_in:
        problems.append("horizon must exceed burn_in")


def _resolve_times(m, problems):
    """Fill t_list from an epsilon spec when absent; True when t_list is
    then valid."""
    if "t_list" not in m:
        if "epsilon" not in m:
            problems.append("missing field: t_list (or epsilon)")
            return False
        eps = m["epsilon"]
        if not _epsilon(eps):
            return False
        m["t_list"] = [epsilon_for(eps.get("m", 1), eps.get("d_G", 6),
                                   eps.get("safety", 0.5))]
    return _TIMES.ok(m["t_list"], m)


def _couple_params(m):
    return CoupleParams(m["d"], m["lambda"], m["K"], m["k"], m["r_I"], m["L"],
                        m["t"], m["seed"], m["bank_snapshots"],
                        m["bank_spacing"], m["bank_burn_in"])


def _couple_geometry(m, problems):
    """Take t from t_list or epsilon when absent, then check the geometry."""
    if "t" not in m and _resolve_times(m, problems):
        m["t"] = m.pop("t_list")[0]
    if not problems:
        problems.extend(_couple_params(m).validate())


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
# Experiment handlers: each returns one dict holding the rows of every
# table under its name and the run_info extras under the other keys.  A
# row is a tuple of cells or an object with one attribute per column.

def _run_simulate(m, out, jobs):
    topology = _topology_from_manifest(m)
    seed = m["seed"]
    sampler = make_init_sampler(topology, m["lambda"], m["init"], seed,
                                stream=(1,))
    init = sampler.sample(make_rng(seed, 2))
    engine = ForestFireEngine(topology, m["lambda"], make_rng(seed, 0), init)
    burn_in, horizon = m["burn_in"], m["horizon"]
    with (open(out / "trajectory.txt", "w") if m["dump_trajectory"]
          else contextlib.nullcontext()) as traj_fh:
        listeners = [TrajectoryRecorder(traj_fh)] if traj_fh else []
        engine.run_until(burn_in, listeners=listeners)
        obs = SiteDensityObserver(engine, burn_in, horizon, m["n_batches"])
        engine.run_until(horizon, observers=(obs,), listeners=listeners)
    dens, se = obs.densities()
    rows = [(i, " ".join(map(str, topology.coords[i])), float(dens[i]),
             float(se[i])) for i in range(topology.n_sites)]
    (out / "snapshot.txt").write_text(config_to_string(engine.occ) + "\n")
    return {"density.csv": rows, "events": dict(engine.counts),
            "effective": dict(engine.effective)}


def _run_stationary(m, out, jobs):
    topology = _topology_from_manifest(m)
    engine = ForestFireEngine(topology, m["lambda"], make_rng(m["seed"], 0))
    burn_in = m["burn_in"]
    if burn_in is None:
        burn_in = default_burn_in(topology, m["horizon"])
    measure = estimate_marginal(engine, m["window"], burn_in,
                                m["horizon"], m["n_batches"])
    return {"measure.csv": measure.rows(),
            "window": [list(c) for c in measure.window],
            "total_time": measure.total, "events": dict(engine.counts),
            "effective": dict(engine.effective)}


def _run_exact(m, out, jobs):
    from .measure import (DEFAULT_STATE_CAP, check_box_cap, check_state_cap,
                          exact_stationary)
    # capped before the topology allocates one entry per site
    if "edge_file" in m:
        n, edges = read_edges(m["edge_file"])
        check_state_cap(n)
        topology = explicit_topology(n, edges)
    else:
        check_box_cap(m["d"], m["k"], DEFAULT_STATE_CAP)
        topology = _topology_from_manifest(m)
    exact = exact_stationary(topology, m["lambda"])
    n = topology.n_sites
    rows = [(pattern_bitstring(s, n), float(p))
            for s, p in enumerate(exact.probs)]
    return {"exact.csv": rows, "balance_residual": exact.balance_residual,
            "solver_iterations": exact.solver_iterations, "states": 1 << n}


def _run_blur_decay(m, out, jobs):
    rows = blur_decay_experiment(
        m["d"], m["lambda"], m["x"], m["r_I"], m["L_list"], m["t_list"],
        m["replicas"], m["init"], m["seed"], m["margin"], jobs=jobs)
    return {"blur_decay.csv": rows, "rows": len(rows)}


def _run_ccsb(m, out, jobs):
    topology = _topology_from_manifest(m)
    spec, lam, seed = m["sampler"], m["lambda"], m["seed"]
    if spec.get("kind") == "replica":
        init = spec.get("init", {"kind": "vacant"})
        sampler = ReplicaSampler(topology, lam, float(spec.get("s", 0.0)),
                                 make_init_sampler(topology, lam, init, seed,
                                                   stream=(6,)))
    else:
        sampler = make_init_sampler(topology, lam, spec, seed, stream=(5,))
    queries = [CcsbQuery.build(topology, m["B"], m["D"], m["x"], mm,
                               m["delta"]) for mm in m["m_list"]]
    reports = ccsb_check(sampler, topology, queries, m["replicas"], seed)
    rows = [(qid, rep.query.m, m["delta"], rep.joint_hat, rep.cond_hat,
             rep.bound, rep.verdict) for qid, rep in enumerate(reports)]
    tail = cluster_size_tail(sampler, topology, m["x"], m["m_list"],
                             m["replicas"], seed)
    return {"ccsb.csv": rows, "tail.csv": tail.rows,
            "max_cluster_size": tail.max_size, "sampler": tail.sampler_mode}


def _run_couple(m, out, jobs):
    event = CylinderEvent.site_occupied((0,) * m["d"])
    report = lemma1_experiment(_couple_params(m), event, m["replicas"],
                               jobs=jobs)
    return {"records.csv": [(i, r.initial_J_equal, r.agree_on_I,
                             r.any_I_blurred, r.in_A_window, r.in_A_torus)
                            for i, r in enumerate(report.records)],
            "lemma1.csv": [report], "verdict": report.verdict}


def _run_mu_scan(m, out, jobs):
    burn_in = m["burn_in"]
    if burn_in is None:
        burn_in = m["horizon"] / 5.0
    scan = mu_convergence_scan(m["d"], m["lambda"], m["window"],
                               m["k_list"], burn_in, m["horizon"], m["seed"])
    return {"mu_scan.csv": scan.rows,
            "marginal_k{}.csv": {k: measure.rows()
                                 for k, measure in scan.marginals.items()},
            "k_list": sorted(scan.marginals)}


# ---------------------------------------------------------------------------
# One spec per kind

# fields: name -> Field; rules: cross-field checks run after the fields;
# tables: file name -> column names, where a "{}" name holds one table per
# key of its rows; summary: (table, row cap, run_info line format);
# sidecar: manifest keys echoed to geometry.json before the run.
_Kind = namedtuple("Kind", "fields rules tables summary run sidecar",
                   defaults=("",))

_MEASURE = "pattern weight probability stderr"
_EVENTS = "attempted events: {events}  effective: {effective}"

_KINDS = {
    "simulate": _Kind(
        {**_COMMON, **_GRID, "horizon": _HORIZON,
         "burn_in": _Field(_time, _TIME, 0.0),
         "init": _Field(_INIT, default={"kind": "vacant"}),
         "dump_trajectory": _Field(lambda v, m: isinstance(v, bool),
                                  "true or false", False),
         "n_batches": _int(1, 20)},
        (_horizon_after_burn_in,),
        {"density.csv": "site coords density stderr"},
        ("density.csv", 12, _EVENTS), _run_simulate),
    "stationary": _Kind(
        {**_COMMON, **_GRID, "horizon": _HORIZON, "burn_in": _MAYBE_BURN_IN,
         "window": _Field(_list_of(_coord), "a non-empty " + _COORDS),
         "n_batches": _int(1, 20)},
        (_horizon_after_burn_in,),
        {"measure.csv": _MEASURE},
        ("measure.csv", 12, _EVENTS), _run_stationary),
    "exact": _Kind(
        {**_COMMON, **_GRID}, (),
        {"exact.csv": "state probability"},
        ("exact.csv", 8, "balance residual: {balance_residual}  "
                         "solver iterations: {solver_iterations}"),
        _run_exact),
    "blur-decay": _Kind(
        {**_COMMON, "d": _int(1), "r_I": _int(0, 0), "margin": _int(1, 1),
         "L_list": _COUNTS,
         "x": _X._replace(default=lambda m: [0] * (_dimension(m) or 1)),
         "t_list": _TIMES, "epsilon": _EPS,
         "replicas": _int(0),
         "init": _Field(_INIT, default={"kind": "stationary"})},
        (_resolve_times,),
        {"blur_decay.csv": "L t flagged replicas p_hat ci_low ci_high"},
        ("blur_decay.csv", 40, ""), _run_blur_decay),
    "ccsb": _Kind(
        {**_COMMON, **_GRID,
         "x": _X, "m_list": _COUNTS,
         "B": _SITES, "D": _SITES,
         "delta": _Field(_time, _TIME, 1.0),
         "replicas": _int(0),
         "sampler": _Field(_SAMPLER, default={"kind": "stationary"})},
        (),
        {"ccsb.csv": "query m delta joint cond bound verdict",
         "tail.csv": "m exceed replicas p_hat ci_low ci_high"},
        ("ccsb.csv", 40, "max cluster size: {max_cluster_size}"),
        _run_ccsb),
    "couple": _Kind(
        {**_COMMON, "d": _int(1), "K": _int(0), "k": _int(0), "L": _int(0),
         "r_I": _int(0, 0), "t": _Field(_time, _TIME, _OPTIONAL),
         "t_list": _TIMES, "epsilon": _EPS,
         "replicas": _int(0),
         "bank_snapshots": _int(1, 800),
         "bank_spacing": _HORIZON._replace(default=1.0),
         "bank_burn_in": _Field(_time, _TIME, 30.0)},
        (_couple_geometry,),
        {"records.csv": "replica initial_J_equal agree_on_I any_I_blurred "
                        "in_A_window in_A_torus",
         "lemma1.csv": "lhs blur_term tv_term pooled_se verdict tv eq_freq "
                       "p_A_window p_A_torus replicas"},
        ("lemma1.csv", 4, ""), _run_couple,
        "d lambda K k r_I L t seed bank_snapshots bank_spacing bank_burn_in"),
    "mu-scan": _Kind(
        {**_COMMON, "d": _int(1),
         "window": _Field(_list_of(_coord), "a non-empty " + _COORDS),
         "k_list": _Field(_list_of(_at_least(1)),
                          "a non-empty list of integers >= 1"),
         "horizon": _HORIZON, "burn_in": _MAYBE_BURN_IN},
        (_horizon_after_burn_in,),
        {"mu_scan.csv": "k_low k_high tv ci_low ci_high",
         "marginal_k{}.csv": _MEASURE},
        ("mu_scan.csv", 40, ""), _run_mu_scan),
}
KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Manifest parsing

def validate_manifest(manifest: dict, kind: str = None) -> dict:
    """Validate and fill defaults; raises ManifestError listing every
    violation found."""
    manifest = dict(manifest)
    mkind = manifest.get("kind", kind)
    if mkind is None:
        raise ManifestError(["missing field: kind"])
    if kind is not None and mkind != kind:
        raise ManifestError(
            [f"manifest kind {mkind!r} does not match command {kind!r}"])
    if mkind not in KINDS:
        raise ManifestError([f"unknown kind {mkind!r}"])
    manifest["kind"] = mkind
    spec, problems = _KINDS[mkind], []
    _walk(manifest, spec.fields, problems)
    for rule in spec.rules:
        rule(manifest, problems)
    if problems:
        raise ManifestError(problems)
    return manifest


def _read_object(path, what) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ManifestError([f"cannot read {path}: {exc.strerror}"]) from None
    except ValueError as exc:   # undecodable bytes or invalid JSON
        raise ManifestError([f"{what} is not valid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ManifestError([f"{what} must be a JSON object"])
    return data


def parse_manifest(path, kind: str = None) -> dict:
    return validate_manifest(_read_object(path, "manifest"), kind)


def run_experiment(manifest: dict, out_dir, jobs: int = 1) -> dict:
    """Run a validated manifest; writes CSV outputs plus run_info.json."""
    spec = _KINDS[manifest["kind"]]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    if spec.sidecar:
        (out / "geometry.json").write_text(json.dumps(
            {key: manifest[key] for key in spec.sidecar.split()},
            sort_keys=True, indent=2) + "\n")
    if "replicas" in spec.fields and manifest["replicas"] == 0:
        print("warning: replicas = 0, wrote header-only tables",
              file=sys.stderr)
        result = {"warning": "no replicas", **dict.fromkeys(spec.tables, [])}
    else:
        result = spec.run(manifest, out, jobs)
    for name, header in spec.tables.items():
        columns, rows = header.split(), result.pop(name)
        for key, part in rows.items() if "{}" in name else [(None, rows)]:
            write_csv(out / name.format(key), columns,
                      (r if isinstance(r, tuple) else
                       [getattr(r, c) for c in columns] for r in part))
    info = {"manifest": manifest, "seed": manifest["seed"],
            "version": __version__, "wall_time_s": time.time() - start,
            **result}
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
    info = _read_object(info_path, info_path)
    kind = info.get("manifest", {}).get("kind", "?")
    lines = [f"kind: {kind}  seed: {info.get('seed')}  "
             f"version: {info.get('version')}"]
    if kind in _KINDS:
        table, max_rows, info_line = _KINDS[kind].summary
        if info_line:
            lines.append(info_line.format_map(defaultdict(lambda: None, info)))
        lines += _summ_csv(out / table, max_rows)
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
    try:
        if args.command == "summarize":
            print(summarize(args.out_dir))
            return 0
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
