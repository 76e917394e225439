"""ffp-lab benchmark: end-to-end CLI timings and traced per-layer timings.

    python3 bench/run.py [--workload {chain,replicas,exact,all}] --seed N \
        [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds `src/ffp_lab`; the
program is imported from that `src/`, never from an installed copy.
Without --workload (or with `all`) every workload runs, one after the
other, each in its own process.

--trace 0 runs the workload's CLI commands as subprocesses, one at a
time, repeating the whole set while the next repetition fits in
--seconds (at least once), and reports wall time, set-up time and peak
RSS.  --trace 1 imports the CLI in-process and alternates an untraced
and a traced pass over the same commands at --jobs 1, and reports the
per-layer metrics derived from the traced pass's spans.  Every output
is checked in both modes (see checks.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with run
metadata and quartiles, is written to .bench_out/ in the checkout, and
the spans of the traced passes to a CSV beside it.
"""

import argparse
import gzip
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("chain", "replicas", "exact", "serial")
ALL = ("chain", "replicas", "exact")
SETUP_PROBES = 7
COMMAND_TIMEOUT_S = 120.0
clock = time.perf_counter

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fail_rate": "ratio", "site_time_per_s": "site*time/s",
             "replicas_per_s": "1/s"}
# Metrics every workload reports in the result line; the rest are
# printed only where they apply (fail_rate is attempted/failed there).
GATED = ("wall_s", "setup_s", "peak_rss_mb")
THROUGHPUT = {"chain": ("site_time_per_s", workloads.Run.site_time),
              "replicas": ("replicas_per_s", workloads.Run.samples)}


def metadata(seed, workload, trace):
    files = sorted((SRC / "ffp_lab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def summary(values):
    """median, q1, q3, n of a list of samples."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Untraced: CLI subprocesses

def spawn(cmd, cwd, log):
    """Run cmd to completion; (wall seconds, peak RSS KB, exit code).

    The peak RSS comes from wait4, so it covers the process and every
    descendant it waited for (the --jobs workers)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FFP_LAB_JOBS", None)
    with open(log, "ab") as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=err,
                                stderr=err, start_new_session=True)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.killpg,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def cli_args(run, manifest, out, jobs):
    return [run.kind, "--manifest", str(manifest), "--out", str(out),
            "--jobs", str(jobs)]


def run_untraced(workload, runs, manifests, work, seconds):
    log = work / "stderr.log"
    samples = {name: [] for name in E2E_UNITS}
    per_run = {run.label: [] for run in runs}
    problems = []
    attempted = failed = 0

    for _ in range(SETUP_PROBES):
        wall, _, code = spawn([sys.executable, str(BENCH / "setup_probe.py"),
                               str(SRC)] + [str(m) for m in manifests],
                              work, log)
        attempted += 1
        if code != 0:
            failed += 1
            problems.append(f"setup probe exited with {code}")
        samples["setup_s"].append(wall)

    start = clock()
    reps = 0
    while True:
        walls, rss, bad = [], [], 0
        for run, manifest in zip(runs, manifests):
            out = manifest.parent / "out"
            cmd = ([sys.executable, "-m", "ffp_lab.cli"]
                   + cli_args(run, manifest, out, run.jobs))
            wall, peak_kb, code = spawn(cmd, manifest.parent, log)
            found = ([f"exit code {code}"] if code != 0
                     else checks.check_run(run, out))
            if found:
                bad += 1
                problems += [f"{run.label}: {p}" for p in found]
            walls.append(wall)
            per_run[run.label].append(wall)
            rss.append(peak_kb / 1024.0)
        reps += 1
        attempted += len(runs)
        failed += bad
        wall = sum(walls)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(max(rss))
        samples["fail_rate"].append(bad / len(runs))
        if workload in THROUGHPUT:
            name, work_done = THROUGHPUT[workload]
            samples[name].append(sum(work_done(r) for r in runs) / wall)
        now = clock()
        if now + (now - start) / reps > start + seconds:
            break
    stats = {name: dict(summary(v), unit=E2E_UNITS[name])
             for name, v in samples.items() if v}
    stats.update({f"wall_s.{label}": dict(summary(v), unit="s")
                  for label, v in per_run.items()})
    return stats, attempted, failed, problems


# ---------------------------------------------------------------------------
# Traced: in-process passes at --jobs 1

def import_program():
    """Import ffp_lab from this checkout's src/; (package, import seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import ffp_lab.cli
    seconds = clock() - t0
    if Path(ffp_lab.__file__).resolve().parent != SRC / "ffp_lab":
        raise RuntimeError(f"imported ffp_lab from {ffp_lab.__file__}")
    return ffp_lab, seconds


def in_process_pass(package, runs, manifests, problems, tracer=None):
    """Run each command through cli.main; (seconds inside cli.main,
    failures).  Output checks run outside the timed calls."""
    failed = 0
    seconds = 0.0
    for i, (run, manifest) in enumerate(zip(runs, manifests)):
        out = manifest.parent / "out"
        if tracer is not None:
            tracer.current_run = i
        t0 = clock()
        try:
            code = package.cli.main(cli_args(run, manifest, out, 1))
        except Exception:                 # report and keep benchmarking
            traceback.print_exc()
            code = "an exception"
        seconds += clock() - t0
        found = ([f"exit code {code}"] if code != 0
                 else checks.check_run(run, out))
        if found:
            failed += 1
            problems += [f"{run.label}: {p}" for p in found]
    return seconds, failed


def run_traced(runs, manifests, seconds, out_stem):
    package, import_s = import_program()
    import spans                # after the program, so its numpy import counts
    problems = []
    attempted = failed = 0
    passes = []
    start = clock()
    while True:
        untraced_s, bad = in_process_pass(package, runs, manifests, problems)
        failed += bad
        tracer = spans.Tracer()
        tracer.install(package, clock)
        try:
            traced_s, bad = in_process_pass(package, runs, manifests,
                                            problems, tracer)
        finally:
            tracer.uninstall()
        failed += bad
        attempted += 2 * len(runs)
        residuals = {}
        for i, (run, manifest) in enumerate(zip(runs, manifests)):
            info = manifest.parent / "out" / "run_info.json"
            if run.kind == "exact" and info.exists():
                residuals[i] = json.loads(info.read_text())["balance_residual"]
        passes.append((tracer, traced_s, untraced_s, residuals))
        now = clock()
        if now + (now - start) / len(passes) > start + seconds:
            break

    labels = {i: r.label for i, r in enumerate(runs)}
    per_pass = [spans.layer_metrics(t, labels, traced, untraced, import_s, res)
                for t, traced, untraced, res in passes]
    with gzip.open(out_stem.with_suffix(".spans.csv.gz"), "wt",
                   compresslevel=1) as fh:
        fh.write("pass," + spans.CSV_HEADER)
        for n, (tracer, *_) in enumerate(passes):
            for line in tracer.csv_rows(labels):
                fh.write(f"{n},{line}")
    stats = {}
    for name, (unit, _) in spans.PER_LAYER.items():
        values = [m[name] for m in per_pass]
        known = [v for v in values if v is not None]
        stats[name] = dict(summary(known or [0.0]), unit=unit,
                           applies=bool(known))
    return stats, attempted, failed, problems


# ---------------------------------------------------------------------------

def run_all(args):
    """Run every workload in its own process; the last line merges their
    results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ALL:
        print(f"== {workload}", flush=True)
        got = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
        lines = got.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{name}": value for name, value
                                  in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="ffp-lab benchmark")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ffp_lab" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'ffp_lab'}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    runs = workloads.build(args.workload, args.seed,
                           jobs=1 if args.trace else None)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = metadata(args.seed, args.workload, args.trace)
    try:
        manifests = workloads.write_inputs(runs, work)
        if args.trace:
            stats, attempted, failed, problems = run_traced(
                runs, manifests, args.seconds, out_stem)
            reported = list(stats)
        else:
            stats, attempted, failed, problems = run_untraced(
                args.workload, runs, manifests, work, args.seconds)
            reported = list(GATED)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"meta": meta, "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": stats}
    out_stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    for p in problems:
        print(f"FAILED {p}")
    print(f"{'metric':36} {'unit':>12} {'median':>13} {'q1':>13} {'q3':>13}  n")
    for name, s in stats.items():
        if not s.get("applies", True):
            print(f"{name:36} {s['unit']:>12} {'n/a':>13}")
            continue
        print(f"{name:36} {s['unit']:>12} {s['median']:13.6g} {s['q1']:13.6g} "
              f"{s['q3']:13.6g}  {s['n']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": stats[name]["median"],
                                 "unit": stats[name]["unit"]}
                          for name in reported}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
