"""Configuration samplers: stationary snapshot banks and replica runs.

A SnapshotBank runs one long chain and keeps spaced snapshots; spacing
of at least one expected relaxation interval keeps autocorrelation low.
Replica samplers run an independent chain to a fixed time for every
draw.  Every sampler draws a configuration as bytes, one 0/1 byte per
site in canonical order.  The samplers are consumed by the cluster-size
checks, the stationarity check and the coupled experiments.
"""

from collections import defaultdict

from .engine import ForestFireEngine
from .errors import InvalidParameterError
from .lattice import Topology, bernoulli_config, check_bank_cap
from .measure import canonical_window, window_pattern
from .rng import make_rng

DEFAULT_SNAPSHOTS = 1000


class SnapshotBank:
    """Spaced snapshots of one long stationary run, each held as bytes."""

    def __init__(self, topology: Topology, lam, n_snapshots, spacing, burn_in,
                 seed, stream=(0,)):
        if n_snapshots < 1:
            raise InvalidParameterError("need at least one snapshot")
        if spacing <= 0:
            raise InvalidParameterError("snapshot spacing must be positive")
        check_bank_cap(n_snapshots, topology.n_sites)
        self.topology = topology
        self.mode = "stationary-bank"
        engine = ForestFireEngine(topology, lam, make_rng(seed, *stream))
        engine.run_until(burn_in)
        self.configs = []
        for i in range(n_snapshots):
            engine.run_until(burn_in + (i + 1) * spacing)
            self.configs.append(engine.snapshot())

    def sample(self, rng):
        return self.configs[int(rng.integers(len(self.configs)))]

    def buckets(self, window):
        """Snapshot indices grouped by their window pattern."""
        window = canonical_window(self.topology, window)
        out = defaultdict(list)
        for i, cfg in enumerate(self.configs):
            out[window_pattern(cfg, self.topology, window)].append(i)
        return dict(out)

    def sample_with_pattern(self, window_buckets, code, rng):
        """Uniform snapshot among those showing the given window pattern."""
        idx = window_buckets[code]
        return self.configs[idx[int(rng.integers(len(idx)))]]


class VacantSampler:
    """Always returns the all-vacant configuration."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.mode = "vacant"

    def sample(self, rng):
        return bytes(self.topology.n_sites)


class BernoulliSampler:
    """Independent Bernoulli(p) occupancy per site."""

    def __init__(self, topology: Topology, p):
        self.topology = topology
        self.p = p
        self.mode = f"bernoulli({p})"

    def sample(self, rng):
        return bytes(bernoulli_config(self.topology, self.p, rng))


class ReplicaSampler:
    """Independent chains run to a fixed observation time.

    Each draw builds a fresh engine from the init sampler and runs it to
    time s; draws are independent across calls.
    """

    def __init__(self, topology: Topology, lam, s, init_sampler):
        if s < 0:
            raise InvalidParameterError("observation time must be nonnegative")
        self.topology = topology
        self.lam = lam
        self.s = s
        self.init_sampler = init_sampler
        self.mode = f"replica(s={s}, init={self.init_sampler.mode})"

    def sample(self, rng):
        init = self.init_sampler.sample(rng)
        if self.s == 0:
            return init
        engine = ForestFireEngine(self.topology, self.lam, rng, init)
        engine.run_until(self.s)
        return engine.snapshot()


def make_init_sampler(topology: Topology, lam, spec: dict, seed, stream):
    """Build an initial-configuration sampler from a config dict.

    Kinds: {"kind": "vacant"}, {"kind": "bernoulli", "p": ...},
    {"kind": "stationary", "snapshots": n, "spacing": dt, "burn_in": t},
    {"kind": "replica", "s": s, "init": spec}, its init on stream (6,).
    """
    kind = spec.get("kind", "vacant")
    if kind == "replica":
        init = make_init_sampler(topology, lam, spec.get("init", {}), seed,
                                 stream=(6,))
        return ReplicaSampler(topology, lam, float(spec.get("s", 0.0)), init)
    if kind == "vacant":
        return VacantSampler(topology)
    if kind == "bernoulli":
        return BernoulliSampler(topology, float(spec.get("p", 0.5)))
    if kind == "stationary":
        return SnapshotBank(topology, lam,
                            int(spec.get("snapshots", DEFAULT_SNAPSHOTS)),
                            float(spec.get("spacing", 2.0)),
                            float(spec.get("burn_in", 10.0 * topology.n_sites)),
                            seed, stream=stream)
    raise InvalidParameterError(f"unknown init kind {kind!r}")
