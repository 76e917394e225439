"""Finite lattice topologies, configurations and cluster computations.

Three kinds of topology are supported:

* ``torus``  -- the box of radius k with hypercubic edges plus one wrap
  edge per axis joining opposite boundary faces, i.e. a discrete torus
  with (2k+1)^d sites.
* ``window`` -- the box of radius k with only the hypercubic edges whose
  endpoints both lie inside the box; everything outside is implicitly
  and permanently vacant.
* ``explicit`` -- an arbitrary finite graph given as an edge list, used
  mainly for small hand-checkable oracles.

Sites are handled through dense integer indices; coordinates are stored
in lexicographic order so that index order is the canonical site order
used for every serialized output.
"""

from itertools import product

from .errors import CapacityError, InvalidParameterError, InvalidSiteError

Coord = tuple[int, ...]

TORUS = "torus"
WINDOW = "window"
EXPLICIT = "explicit"

# Largest lattice a run may build, as sites x dimension: a Topology holds
# about 300 B and takes about 30 us to build per site in d = 1-3.
MAX_SITE_COORDS = 10**6
# Largest snapshot bank, as snapshots x sites, summed over blur-decay's
# banks of every L: 1.0-1.1 B per site-snapshot, so about 35 MB.
MAX_BANK_SITES = 3 * 10**7
# Largest window of a pattern measure, which keys up to 2^sites codes.
MAX_WINDOW_SITES = 20
# Largest time-batch table of simulate or stationary, as batches x (2 +
# keys one row can hold: the sites, or the 2^sites window patterns).  A
# cell costs 8 B and up to 26 B more at the readout, and a row about 100
# B (tracemalloc, 40,401 sites x 20 batches).  The bound admits the default
# 20 batches on the largest lattice or window above: about 1 GB at most.
MAX_BATCH_CELLS = 3 * 10**7


def check_box_cap(d: int, side: int, cap: int = None) -> None:
    """Raise CapacityError when a box of side**d sites (an n-site graph is
    d = 1, side = n) exceeds cap sites, by default MAX_SITE_COORDS // d.
    The product stops once it passes the cap, so a huge d costs no time."""
    limit = MAX_SITE_COORDS // d if cap is None else cap
    n = 1
    for _ in range(d if side > 1 else 0):
        n *= side
        if n > limit:
            break
    if n > limit:
        raise CapacityError(f"{side}^{d} sites exceed " + (
            f"{MAX_SITE_COORDS} sites x dimension" if cap is None
            else f"the {cap}-site cap"))


def check_bank_cap(snapshots: int, sites: int) -> None:
    """Raise CapacityError over MAX_BANK_SITES site-snapshots."""
    if snapshots * sites > MAX_BANK_SITES:
        raise CapacityError(f"{snapshots} snapshots of {sites} sites exceed "
                            f"{MAX_BANK_SITES} site-snapshots")


def check_batch_cap(n_batches: int, keys: int) -> None:
    """Raise CapacityError over MAX_BATCH_CELLS batch cells."""
    if n_batches * (2 + keys) > MAX_BATCH_CELLS:
        raise CapacityError(f"{n_batches} time batches of {keys} keys exceed "
                            f"{MAX_BATCH_CELLS} batch cells")


def box_coords(d: int, k: int) -> list[Coord]:
    """All sites with sup-norm at most k, lexicographically sorted."""
    return [tuple(c) for c in product(range(-k, k + 1), repeat=d)]


class Topology:
    """Immutable finite graph with a canonical site ordering.

    Attributes
    ----------
    dimension : int
    radius : int or None
        Box radius for torus/window mode, None for explicit graphs.
    mode : str
        One of "torus", "window", "explicit".
    coords : list of tuple
        Site coordinates, lexicographically sorted; index order is the
        canonical order.
    adjacency : list of list of int
        Sorted neighbor indices per site; symmetric, no self loops.
    """

    def __init__(self, dimension, radius, mode, coords, adjacency):
        self.dimension = dimension
        self.radius = radius
        self.mode = mode
        self.coords = coords
        self.adjacency = adjacency
        self.index_of = {c: i for i, c in enumerate(coords)}
        if len(self.index_of) != len(coords):
            raise InvalidParameterError("duplicate site coordinates")

    @property
    def n_sites(self) -> int:
        return len(self.coords)

    def site_index(self, site) -> int:
        """Accept either a dense index or a coordinate tuple or list."""
        if isinstance(site, (tuple, list)):
            try:
                return self.index_of[tuple(site)]
            except KeyError:
                raise InvalidSiteError(f"unknown site {site!r}") from None
        i = int(site)
        if not 0 <= i < self.n_sites:
            raise InvalidSiteError(f"site index {i} out of range")
        return i

    def __repr__(self):
        return (f"Topology(mode={self.mode!r}, d={self.dimension}, "
                f"k={self.radius}, sites={self.n_sites})")


def build_topology(d: int, k: int, mode: str, cap: int = None) -> Topology:
    """Build a torus or window box topology of radius k in dimension d,
    refused over cap (see check_box_cap) before anything is allocated."""
    if d < 1:
        raise InvalidParameterError("dimension must be at least 1")
    if k < 0:
        raise InvalidParameterError("radius must be nonnegative")
    if mode not in (TORUS, WINDOW):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    check_box_cap(d, 2 * k + 1, cap)

    coords = box_coords(d, k)
    index_of = {c: i for i, c in enumerate(coords)}
    adjacency = [set() for _ in coords]

    def link(i, j):
        adjacency[i].add(j)
        adjacency[j].add(i)

    for i, c in enumerate(coords):
        for axis in range(d):
            if c[axis] + 1 <= k:
                nb = c[:axis] + (c[axis] + 1,) + c[axis + 1:]
                link(i, index_of[nb])

    if mode == TORUS and k > 0:
        # One wrap edge per axis joining the coordinate-k face to the
        # coordinate-(-k) face, other coordinates unchanged.
        for i, c in enumerate(coords):
            for axis in range(d):
                if c[axis] == k:
                    opp = c[:axis] + (-k,) + c[axis + 1:]
                    link(i, index_of[opp])

    return Topology(d, k, mode, coords, [sorted(s) for s in adjacency])


def explicit_topology(n_sites: int, edges) -> Topology:
    """Arbitrary graph on sites 0..n_sites-1; coordinates are (i,)."""
    if n_sites < 1:
        raise InvalidParameterError("explicit topology needs at least one site")
    adjacency = [set() for _ in range(n_sites)]
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise InvalidParameterError("self loops are not allowed")
        if not (0 <= i < n_sites and 0 <= j < n_sites):
            raise InvalidSiteError(f"edge ({i},{j}) out of range")
        adjacency[i].add(j)
        adjacency[j].add(i)
    coords = [(i,) for i in range(n_sites)]
    return Topology(1, None, EXPLICIT, coords, [sorted(s) for s in adjacency])


def read_edge_list(path, cap: int = None) -> Topology:
    """Read an explicit graph from an edge file, one "i j" pair per line,
    on sites 0 to the largest index; refused over cap (see
    check_box_cap) before it is built.

    An unreadable file or a malformed line raises InvalidParameterError
    naming the file (and the line).
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(
            f"cannot read edge file {path}: {exc}") from None
    edges = []
    n = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            i, j = (int(v) for v in line.split())
        except ValueError:
            raise InvalidParameterError(
                f"edge file {path}, line {lineno}: expected two integers, "
                f"got {line!r}") from None
        edges.append((i, j))
        n = max(n, i + 1, j + 1)
    check_box_cap(1, n, cap)
    return explicit_topology(n, edges)


def site_boundary(topology: Topology, sites) -> frozenset[int]:
    """Exterior neighbor set N(S) of a set of site indices."""
    s = {topology.site_index(x) for x in sites}
    out = set()
    for i in s:
        for j in topology.adjacency[i]:
            if j not in s:
                out.add(j)
    return frozenset(out)


def cluster_of(config, topology: Topology, site) -> frozenset[int]:
    """Maximal connected occupied set containing the site.

    A vacant site has no open path, so its cluster is empty.
    """
    x = topology.site_index(site)
    if not config[x]:
        return frozenset()
    adj = topology.adjacency
    seen = {x}
    stack = [x]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if config[j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return frozenset(seen)


def cluster_union(config, topology: Topology, sites) -> frozenset[int]:
    """Union of the clusters of the given sites; vacant sites add nothing."""
    out: set[int] = set()
    for x in sites:
        i = topology.site_index(x)
        if config[i] and i not in out:
            out |= cluster_of(config, topology, i)
    return frozenset(out)


def bernoulli_config(topology: Topology, p: float, rng) -> list[int]:
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("occupation probability must lie in [0, 1]")
    return [int(u < p) for u in rng.random(topology.n_sites)]


def config_to_string(config) -> str:
    """One 0/1 character per site in canonical order."""
    return "".join("1" if v else "0" for v in config)
