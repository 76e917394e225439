"""Configuration samplers: stationary snapshot banks and replica runs.

A SnapshotBank runs one long chain and keeps spaced snapshots; spacing
of at least one expected relaxation interval keeps autocorrelation low.
Replica samplers run an independent chain to a fixed time for every
draw.  Every sampler draws a configuration as bytes, one 0/1 byte per
site in canonical order; a bank holds its snapshots packed to one bit
per site and unpacks only the one it hands out.  The samplers are
consumed by the cluster-size checks, the stationarity check and the
coupled experiments.
"""

from collections import defaultdict

from .engine import ForestFireEngine
from .errors import InvalidParameterError
from .lattice import Topology, bernoulli_config, check_bank_cap
from .measure import canonical_window, window_pattern
from .rng import make_rng

DEFAULT_SNAPSHOTS = 1000

# a packed snapshot reads the 0/1 bytes, last site first, as a base-2
# numeral: bit i is site i, as np.packbits(..., bitorder="little") packs
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def pack_config(config: bytes) -> bytes:
    """A 0/1 byte per site packed to one bit per site, bit i = site i."""
    return int(config[::-1].translate(_TO_DIGITS), 2).to_bytes(
        (len(config) + 7) // 8, "little")


def unpack_config(packed: bytes, n_sites: int) -> bytes:
    """The inverse of pack_config: one 0/1 byte per site."""
    return format(int.from_bytes(packed, "little"),
                  f"0{n_sites}b")[::-1].encode().translate(_FROM_DIGITS)


class SnapshotBank:
    """Spaced snapshots of one long stationary run, each packed to one
    bit per site (pack_config) in one buffer."""

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
        # snapshot i is bytes i*width to (i + 1)*width of one buffer
        self._width = width = (topology.n_sites + 7) // 8
        self._packed = bytearray(n_snapshots * width)
        for i in range(n_snapshots):
            engine.run_until(burn_in + (i + 1) * spacing)
            self._packed[i * width:(i + 1) * width] = pack_config(
                engine.snapshot())

    def __len__(self):
        return len(self._packed) // self._width

    def _config(self, i) -> bytes:
        """Snapshot i (0 <= i < len(self)), one 0/1 byte per site."""
        width = self._width
        return unpack_config(self._packed[i * width:(i + 1) * width],
                             self.topology.n_sites)

    def configs(self):
        """Every snapshot in order, unpacked one at a time."""
        return map(self._config, range(len(self)))

    def sample(self, rng):
        return self._config(int(rng.integers(len(self))))

    def buckets(self, window):
        """Snapshot indices grouped by their window pattern."""
        window = canonical_window(self.topology, window)
        out = defaultdict(list)
        for i, cfg in enumerate(self.configs()):
            out[window_pattern(cfg, self.topology, window)].append(i)
        return dict(out)

    def sample_with_pattern(self, window_buckets, code, rng):
        """Uniform snapshot among those showing the given window pattern."""
        idx = window_buckets[code]
        return self._config(idx[int(rng.integers(len(idx)))])


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
        engine = ForestFireEngine(self.topology, self.lam, rng,
                                  self.init_sampler.sample(rng))
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
