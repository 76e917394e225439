"""Reproducible, splittable random streams.

Every stochastic component draws from a counter-based Philox generator
keyed by (seed, *stream).  Distinct stream tuples give statistically
independent streams, so parallel replicas never share randomness and the
merge order of their results cannot matter.  The stream keys in use:
(0,) engine; (1,), (2,) simulate init; (5,) ccsb sampler; (6,) replica
init; (10, k), (11,) mu-scan; (30, L), (31, L, r) blur-decay; (40,),
(41,) ccsb; (51, K), (52, k), (53, r), (54,) couple.  The tests' own
stationarity check (tests/oracles.py) keys (20, r).
"""

import numpy as np


def make_rng(seed: int, *stream: int) -> "np.random.Generator":
    """Return an independent generator keyed by (seed, *stream); the
    string annotation leaves numpy.random unloaded until a stream is
    made."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))
