"""Workload definitions: the CLI runs of each workload, built from a seed.

Every input the program sees (manifests, edge files) is generated here
from the workload seed, so one seed always gives the same bytes.  The
seed sets the program's random seed in every manifest; for `exact`,
whose solve is deterministic, it only shuffles the edge-file lines and
endpoint order, which leaves the graph and the solve unchanged.

Sizes are fixed and stated here, so two commits measured with the same
benchmark code run exactly the same work.
"""

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Criterion-8 time: half the epsilon of m = 1 on the square lattice (d_G = 6).
BLUR_T = 0.5 * -math.log1p(-1.0 / 24.0)

# 3x3 torus window: all nine sites, canonical (sorted) order.
WINDOW_3X3 = [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)]

SIM = {"kind": "simulate", "lambda": 0.1, "d": 2, "k": 10, "mode": "torus",
       "horizon": 160.0, "burn_in": 16.0, "init": {"kind": "vacant"}}
STAT = {"kind": "stationary", "lambda": 1.0, "d": 2, "k": 1, "mode": "torus",
        "window": WINDOW_3X3, "horizon": 28000.0, "burn_in": 560.0}
BLUR = {"kind": "blur-decay", "lambda": 1.0, "d": 2, "r_I": 0,
        "L_list": [1, 2, 3, 4], "t_list": [BLUR_T], "replicas": 2000,
        "init": {"kind": "stationary", "snapshots": 400, "spacing": 1.0,
                 "burn_in": 20.0}}
COUPLE = {"kind": "couple", "lambda": 1.0, "d": 2, "K": 12, "k": 6,
          "r_I": 0, "L": 1, "t": BLUR_T, "replicas": 2000}
CCSB = {"kind": "ccsb", "lambda": 1.0, "d": 2, "k": 4, "mode": "torus",
        "x": [0, 0], "B": [], "D": [], "m_list": [0, 2, 4, 8], "delta": 1.0,
        "replicas": 20000, "sampler": {"kind": "stationary"}}
EXACT = {"kind": "exact", "lambda": 1.0}


def ring_edges(n):
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def periodic_grid_edges(rows, cols):
    """Edges of the rows x cols grid with wrap in both directions; a
    length-2 axis gets a single edge between its two rows."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for j in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return sorted(edges)


GRAPHS = {
    "ring12": ring_edges(12),
    "grid3x4": periodic_grid_edges(3, 4),
    "grid2x5": periodic_grid_edges(2, 5),
}


@dataclass
class Run:
    """One CLI invocation: `ffp-lab <kind> --manifest <file> --jobs <jobs>`."""

    label: str
    manifest: dict
    jobs: int
    files: dict = field(default_factory=dict)   # extra input files: name -> text

    @property
    def kind(self):
        return self.manifest["kind"]

    def site_time(self):
        """Sites x simulated horizon of a single-trajectory run."""
        m = self.manifest
        return (2 * m["k"] + 1) ** m["d"] * m["horizon"]

    def samples(self):
        """Replicas or samples this run completes."""
        m = self.manifest
        if self.kind == "blur-decay":
            return m["replicas"] * len(m["L_list"])
        if self.kind == "ccsb":
            return m["replicas"] * (len(m["m_list"]) + 1)
        return m["replicas"]


def _seeded(base, seed):
    return dict(copy.deepcopy(base), seed=seed)


def edge_file_text(edges, rng):
    lines = [f"{j} {i}" if rng.random() < 0.5 else f"{i} {j}"
             for i, j in edges]
    rng.shuffle(lines)
    return "# periodic test graph\n" + "\n".join(lines) + "\n"


def build(workload, seed, jobs=None):
    """The CLI runs of a workload for a seed.  `jobs` overrides the
    workload's parallelism (the traced run uses 1).  `serial` is `chain`
    followed by `exact`: every single-process run in one workload."""
    rng = random.Random(seed)
    program_seed = rng.randrange(1 << 31)
    if workload == "chain":
        runs = [Run("simulate", _seeded(SIM, program_seed), 1),
                Run("stationary", _seeded(STAT, program_seed + 1), 1)]
    elif workload == "replicas":
        runs = [Run("blur-decay", _seeded(BLUR, program_seed), 2),
                Run("couple", _seeded(COUPLE, program_seed + 1), 2),
                Run("ccsb", _seeded(CCSB, program_seed + 2), 2)]
    elif workload == "exact":
        runs = []
        for name, edges in GRAPHS.items():
            m = dict(EXACT, seed=program_seed, edge_file=f"{name}.edges")
            runs.append(Run(name, m, 1,
                            {f"{name}.edges": edge_file_text(edges, rng)}))
    elif workload == "serial":
        runs = build("chain", seed) + build("exact", seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if jobs is not None:
        for run in runs:
            run.jobs = jobs
    return runs


def write_inputs(runs, work: Path):
    """Write each run's manifest and input files under `work`; returns
    the manifest paths.  Edge-file paths in manifests become absolute."""
    paths = []
    for run in runs:
        d = work / run.label
        d.mkdir(parents=True, exist_ok=True)
        manifest = dict(run.manifest)
        for name, text in run.files.items():
            (d / name).write_text(text)
        if "edge_file" in manifest:
            manifest["edge_file"] = str(d / manifest["edge_file"])
        path = d / "manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        paths.append(path)
    return paths
