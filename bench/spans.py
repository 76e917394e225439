"""In-process tracing of the program's public entry points.

`Tracer.install()` replaces each entry point where callers look it up
(module attribute or class attribute) with a wrapper that records a
span: name, start, end, parent span and run id.  Spans are kept in
memory in flat arrays and written to one CSV at the end.  Per-event
calls (`apply_event`, `draw`, blur listeners) are never wrapped; the
observers' `accumulate`/`on_event` are timed by summing perf_counter
deltas onto the enclosing span, without a span per call.

Self time of a span is its duration minus its child spans and minus
the observer time summed onto it; the layer of a span is the prefix of
its name, which is the program module it belongs to.
"""

import functools
import math
from array import array

import numpy as np

import workloads

LAYERS = ("cli", "lattice", "engine", "measure", "sampling", "blur", "ccsb",
          "coupling", "parallel")

# (module, attribute, span name) for functions, looked up where called.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "parse_manifest", "cli.parse_manifest"),
    ("cli", "validate_manifest", "cli.validate_manifest"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "build_topology", "lattice.build_topology"),
    ("cli", "read_edge_list", "lattice.read_edge_list"),
    ("cli", "estimate_marginal", "measure.estimate_marginal"),
    ("cli", "blur_decay_experiment", "blur.blur_decay_experiment"),
    ("cli", "ccsb_check", "ccsb.ccsb_check"),
    ("cli", "cluster_size_tail", "ccsb.cluster_size_tail"),
    ("cli", "lemma1_experiment", "coupling.lemma1_experiment"),
    ("lattice", "build_topology", "lattice.build_topology"),
    ("lattice", "cluster_of", "lattice.cluster_of"),
    ("lattice", "cluster_union", "lattice.cluster_union"),
    ("blur", "cluster_of", "lattice.cluster_of"),
    ("blur", "init_blur", "blur.init_blur"),
    ("ccsb", "cluster_of", "lattice.cluster_of"),
    ("ccsb", "cluster_union", "lattice.cluster_union"),
    ("coupling", "build_topology", "lattice.build_topology"),
    ("coupling", "init_blur", "blur.init_blur"),
    ("coupling", "total_variation_ci", "measure.total_variation_ci"),
    ("coupling", "lemma1_report", "coupling.report"),
    ("measure", "exact_stationary", "measure.exact_stationary"),
    ("measure", "estimate_marginal", "measure.estimate_marginal"),
    ("measure", "total_variation_ci", "measure.total_variation_ci"),
    ("parallel", "run_chunked", "parallel.run_chunked"),
]

# (module, class, method, span name)
METHODS = [
    ("coupling", "CoupledExperiment", "__init__", "coupling.experiment_init"),
    ("coupling", "CoupledExperiment", "run_one", "coupling.run_one"),
    ("measure", "MaximalCoupling", "sample", "measure.maximal_coupling_sample"),
    ("sampling", "SnapshotBank", "sample", "sampling.sample"),
    ("sampling", "SnapshotBank", "sample_with_pattern", "sampling.sample"),
    ("sampling", "ReplicaSampler", "sample", "sampling.sample"),
    ("sampling", "BernoulliSampler", "sample", "sampling.sample"),
    ("sampling", "VacantSampler", "sample", "sampling.sample"),
]

# Per-event observer calls, summed onto the enclosing span.
OBSERVERS = [("measure", "MarginalObserver"), ("measure", "SiteDensityObserver")]


class Tracer:
    def __init__(self):
        self.names = []                 # span name table
        self._name_id = {}
        self.name = array("i")
        self.run = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.agg = array("d")           # observer time summed onto the span
        self._stack = []
        self.current_run = -1
        self.observer_s = 0.0
        self.engines = []               # (counts, effective) of every engine
        self.run_until_attempted = 0
        self.bank_attempted = 0
        self._restore = []

    # ---- recording ----

    def open(self, name, now):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.run.append(self.current_run)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(now)
        self.end.append(math.nan)
        self.agg.append(0.0)
        self._stack.append(sid)
        return sid

    def close(self, sid, now):
        self.end[sid] = now
        self._stack.pop()

    def span(self, name, fn, clock):
        """Wrap fn so each call records a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid, clock())
        return wrapper

    def summed(self, fn, clock):
        """Wrap a per-event fn: add its time to the enclosing span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.observer_s += dt
                if self._stack:
                    self.agg[self._stack[-1]] += dt
        return wrapper

    # ---- installation ----

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package, clock):
        """Wrap the entry points of the imported package `ffp_lab`."""
        mods = {m: getattr(package, m) for m in LAYERS}
        for mod, attr, name in FUNCTIONS:
            owner = mods[mod]
            self._patch(owner, attr, self.span(name, owner.__dict__[attr], clock))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._patch(cls, attr, self.span(name, cls.__dict__[attr], clock))
        for mod, cls_name in OBSERVERS:
            cls = getattr(mods[mod], cls_name)
            for attr in ("accumulate", "on_event"):
                self._patch(cls, attr, self.summed(cls.__dict__[attr], clock))
        self._install_engine(mods["engine"].ForestFireEngine, clock)
        self._install_bank(mods["sampling"].SnapshotBank, clock)

    def _install_engine(self, cls, clock):
        init, run_until = cls.__dict__["__init__"], cls.__dict__["run_until"]
        tracer = self

        @functools.wraps(init)
        def construct(engine, *args, **kwargs):
            sid = tracer.open("engine.construct", clock())
            try:
                init(engine, *args, **kwargs)
            finally:
                tracer.close(sid, clock())
            # counts are read after the spans, through this registry
            tracer.engines.append((engine.counts, engine.effective))

        @functools.wraps(run_until)
        def traced_run_until(engine, *args, **kwargs):
            before = sum(engine.counts.values())
            sid = tracer.open("engine.run_until", clock())
            try:
                return run_until(engine, *args, **kwargs)
            finally:
                tracer.close(sid, clock())
                tracer.run_until_attempted += sum(engine.counts.values()) - before

        self._patch(cls, "__init__", construct)
        self._patch(cls, "run_until", traced_run_until)

    def _install_bank(self, cls, clock):
        init = cls.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def build(bank, *args, **kwargs):
            first = len(tracer.engines)
            sid = tracer.open("sampling.bank_build", clock())
            try:
                init(bank, *args, **kwargs)
            finally:
                tracer.close(sid, clock())
            tracer.bank_attempted += sum(sum(c.values())
                                         for c, _ in tracer.engines[first:])

        self._patch(cls, "__init__", build)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- analysis ----

    def arrays(self):
        """Span columns as numpy arrays: name, run, parent, duration."""
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return (np.array(self.name, dtype=np.int64),
                np.array(self.run, dtype=np.int64),
                np.array(self.parent, dtype=np.int64), dur)

    def self_times(self):
        """Span duration minus child spans and summed observer time."""
        _, _, parent, dur = self.arrays()
        own = dur - np.array(self.agg, dtype=float)
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return own

    def _mask(self, names):
        ids = [self._name_id[n] for n in names if n in self._name_id]
        return np.isin(self.arrays()[0], ids)

    def outermost(self, names, run=None):
        """Mask of spans named in `names` with no ancestor so named."""
        _, runs, parent, _ = self.arrays()
        named = self._mask(names)
        covered = np.zeros_like(named)
        anc = parent.copy()
        while (anc >= 0).any():            # parents precede their children
            up = anc >= 0
            covered[up] |= named[anc[up]]
            anc[up] = parent[anc[up]]
        mask = named & ~covered
        if run is not None:
            mask &= runs == run
        return mask

    def inclusive(self, names, run=None):
        """(calls, seconds) over the outermost spans named in `names`."""
        mask = self.outermost(names, run)
        return int(mask.sum()), float(self.arrays()[3][mask].sum())

    def self_of(self, names):
        """Self seconds of every span named in `names`, in span order."""
        return self.self_times()[self._mask(names)]

    def layer_self(self):
        """Self seconds per layer; observer time counts to `measure`."""
        name = self.arrays()[0]
        per_name = np.bincount(name, weights=self.self_times(),
                               minlength=len(self.names))
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, seconds in enumerate(per_name):
            out[self.names[nid].split(".", 1)[0]] += float(seconds)
        out["measure"] += float(sum(self.agg))
        return out

    def top_level_s(self):
        _, _, parent, dur = self.arrays()
        return float(dur[parent < 0].sum())

    def csv_rows(self, run_labels):
        """One CSV line per span, in CSV_HEADER order."""
        name, runs, parent, _ = self.arrays()
        own = self.self_times()
        for i in range(len(own)):
            yield (f"{i},{self.names[name[i]]},"
                   f"{run_labels.get(int(runs[i]), '')},{parent[i]},"
                   f"{self.start[i]!r},{self.end[i]!r},{float(own[i])!r}\n")


CSV_HEADER = "id,name,run,parent,start,end,self\n"


def percentile(values, q, min_beyond=10):
    """The q-quantile of values, or None unless at least `min_beyond`
    samples lie beyond it."""
    n = len(values)
    if n == 0 or (1.0 - q) * n < min_beyond:
        return None
    ordered = sorted(values)
    return ordered[min(n - 1, int(math.ceil(q * n)) - 1)]


GRAPHS = tuple(workloads.GRAPHS)

# name -> (unit, what it measures).  "self" is span time minus child
# spans; "incl" is the time of the outermost spans of that name.
PER_LAYER = {
    "cli.import_s": ("s", "import ffp_lab.cli in a fresh interpreter"),
    "cli.validate_s": ("s", "incl parse_manifest/validate_manifest"),
    "cli.write_csv_s": ("s", "incl write_csv"),
    "cli.self_s": ("s", "self of the cli layer"),
    "lattice.build_topology_s": ("s", "incl build_topology/read_edge_list"),
    "lattice.cluster_of_calls": ("count", "outermost cluster_of/cluster_union calls"),
    "lattice.cluster_of_s": ("s", "incl cluster_of/cluster_union"),
    "lattice.self_s": ("s", "self of the lattice layer"),
    "engine.run_until_s": ("s", "self of run_until, observer time excluded"),
    "engine.attempts_per_s": ("1/s", "attempts inside run_until / engine.run_until_s"),
    "engine.engines": ("count", "engines constructed"),
    "engine.construct_s": ("s", "incl ForestFireEngine.__init__"),
    "engine.attempted": ("count", "attempted events over all engines"),
    "engine.effective": ("count", "effective growths plus burns over all engines"),
    "engine.burns": ("count", "burned clusters over all engines"),
    "engine.effective_ratio": ("ratio", "engine.effective / engine.attempted"),
    "engine.events_per_engine": ("count", "engine.attempted / engine.engines"),
    "engine.self_s": ("s", "self of the engine layer"),
    "measure.observer_s": ("s", "summed time of observer accumulate/on_event"),
    **{f"measure.exact_stationary_s.{g}": ("s", f"incl exact_stationary on {g}")
       for g in GRAPHS},
    **{f"measure.exact_residual.{g}": ("prob/time", f"balance residual on {g}")
       for g in GRAPHS},
    "measure.total_variation_ci_s": ("s", "incl total_variation_ci"),
    "measure.maximal_coupling_sample_calls": ("count", "MaximalCoupling.sample calls"),
    "measure.maximal_coupling_sample_s": ("s", "incl MaximalCoupling.sample"),
    "measure.self_s": ("s", "self of the measure layer, observer time included"),
    "sampling.bank_build_s": ("s", "incl SnapshotBank construction"),
    "sampling.bank_attempted": ("count", "attempted events of bank chains"),
    "sampling.sample_calls": ("count", "sampler sample/sample_with_pattern calls"),
    "sampling.sample_s": ("s", "incl sampler sample calls"),
    "sampling.self_s": ("s", "self of the sampling layer"),
    "blur.init_blur_calls": ("count", "init_blur calls"),
    "blur.init_blur_s": ("s", "incl init_blur"),
    "blur.self_s": ("s", "self of the blur layer"),
    "ccsb.check_s": ("s", "self of ccsb_check + cluster_size_tail"),
    "ccsb.self_s": ("s", "self of the ccsb layer"),
    "coupling.run_one_calls": ("count", "coupled replicas run"),
    "coupling.run_one_us.p50": ("us", "median self time of one coupled replica"),
    "coupling.run_one_us.p99": ("us", "p99 self time of one coupled replica"),
    "coupling.report_s": ("s", "incl lemma1_report"),
    "coupling.self_s": ("s", "self of the coupling layer"),
    "parallel.run_chunked_s": ("s", "incl run_chunked"),
    "parallel.serial_frac": ("ratio", "traced time outside run_chunked / trace.wall_s"),
    "parallel.self_s": ("s", "self of the parallel layer"),
    "trace.wall_s": ("s", "wall of the traced pass"),
    "trace.other_s": ("s", "traced wall covered by no span"),
    "trace.other_frac": ("ratio", "trace.other_s / trace.wall_s"),
    "trace.overhead_frac": ("ratio", "traced pass / untraced pass - 1"),
}


def layer_metrics(tracer, labels, traced_s, untraced_s, import_s, residuals):
    """Per-layer metrics of one traced pass.  None marks a metric that
    is undefined on this workload (no samples, zero denominator)."""
    def incl(*names, run=None):
        return tracer.inclusive(names, run)[1]

    def calls(*names):
        return tracer.inclusive(names)[0]

    def ratio(a, b):
        return a / b if b else None

    layer = tracer.layer_self()
    other = traced_s - tracer.top_level_s()
    total = sum(layer.values()) + other
    if abs(total - traced_s) > 1e-6 * traced_s:
        raise AssertionError(f"self times sum to {total}, wall is {traced_s}")

    engines = tracer.engines
    attempted = sum(sum(c.values()) for c, _ in engines)
    effective = sum(e["growth"] + e["burn"] for _, e in engines)
    burns = sum(e["burn"] for _, e in engines)
    run_until_self = float(tracer.self_of(["engine.run_until"]).sum())
    run_one_us = list(tracer.self_of(["coupling.run_one"]) * 1e6)
    chunked = incl("parallel.run_chunked")
    by_label = {label: run for run, label in labels.items()}

    out = {
        "cli.import_s": import_s,
        "cli.validate_s": incl("cli.parse_manifest", "cli.validate_manifest"),
        "cli.write_csv_s": incl("cli.write_csv"),
        "lattice.build_topology_s": incl("lattice.build_topology",
                                         "lattice.read_edge_list"),
        "lattice.cluster_of_calls": calls("lattice.cluster_of",
                                          "lattice.cluster_union"),
        "lattice.cluster_of_s": incl("lattice.cluster_of", "lattice.cluster_union"),
        "engine.run_until_s": run_until_self,
        "engine.attempts_per_s": ratio(tracer.run_until_attempted, run_until_self),
        "engine.engines": len(engines),
        "engine.construct_s": incl("engine.construct"),
        "engine.attempted": attempted,
        "engine.effective": effective,
        "engine.burns": burns,
        "engine.effective_ratio": ratio(effective, attempted),
        "engine.events_per_engine": ratio(attempted, len(engines)),
        "measure.observer_s": tracer.observer_s,
        "measure.total_variation_ci_s": incl("measure.total_variation_ci"),
        "measure.maximal_coupling_sample_calls": calls("measure.maximal_coupling_sample"),
        "measure.maximal_coupling_sample_s": incl("measure.maximal_coupling_sample"),
        "sampling.bank_build_s": incl("sampling.bank_build"),
        "sampling.bank_attempted": tracer.bank_attempted,
        "sampling.sample_calls": calls("sampling.sample"),
        "sampling.sample_s": incl("sampling.sample"),
        "blur.init_blur_calls": calls("blur.init_blur"),
        "blur.init_blur_s": incl("blur.init_blur"),
        "ccsb.check_s": float(tracer.self_of(["ccsb.ccsb_check",
                                              "ccsb.cluster_size_tail"]).sum()),
        "coupling.run_one_calls": len(run_one_us),
        "coupling.run_one_us.p50": percentile(run_one_us, 0.50),
        "coupling.run_one_us.p99": percentile(run_one_us, 0.99),
        "coupling.report_s": incl("coupling.report"),
        "parallel.run_chunked_s": chunked,
        "parallel.serial_frac": ratio(traced_s - chunked, traced_s),
        "trace.wall_s": traced_s,
        "trace.other_s": other,
        "trace.other_frac": ratio(other, traced_s),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for name, seconds in layer.items():
        out[f"{name}.self_s"] = seconds
    for g in GRAPHS:
        run = by_label.get(g)
        out[f"measure.exact_stationary_s.{g}"] = (
            None if run is None else incl("measure.exact_stationary", run=run))
        out[f"measure.exact_residual.{g}"] = residuals.get(run)
    return {name: out[name] for name in PER_LAYER}
