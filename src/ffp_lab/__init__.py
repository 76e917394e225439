"""Exact continuous-time forest-fire simulation and experiment lab.

Finite-volume forest-fire dynamics on torus and open-window boxes, with
time-average and exact stationary measures, outside-influence marking
(blur), conditioned cluster-size checks, and coupled window/torus runs
bounding cylinder-probability differences.
"""

import os

# One BLAS thread, set before anything here loads numpy: the exact
# solve's norms and dot products then add their terms in one order, so
# exact.csv does not depend on the host's core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .blur import (BlurGeometry, BlurTracker, blur_decay_experiment,
                   blur_geometry, epsilon_for, init_blur)
from .ccsb import CcsbQuery, CcsbReport, ccsb_check, cluster_size_tail
from .coupling import (CoupledExperiment, CoupleParams, Lemma1Report,
                       lemma1_experiment, lemma1_report)
from .engine import GROWTH, IGNITION, ForestFireEngine, TrajectoryRecorder
from .errors import (CapacityError, FfpError, InvalidParameterError,
                     InvalidSiteError, WindowMismatchError)
from .lattice import (EXPLICIT, TORUS, WINDOW, Topology, box_coords,
                      build_topology, cluster_of, cluster_union,
                      explicit_topology, read_edge_list, site_boundary)
from .measure import (CylinderEvent, EmpiricalMeasure, ExactDistribution,
                      MarginalObserver, MaximalCoupling, SiteDensityObserver,
                      estimate_marginal, exact_stationary,
                      measure_from_snapshots, mu_convergence_scan,
                      total_variation, total_variation_ci)
from .parallel import run_chunked
from .rng import make_rng
from .sampling import (BernoulliSampler, ReplicaSampler, SnapshotBank,
                       VacantSampler, make_init_sampler)
