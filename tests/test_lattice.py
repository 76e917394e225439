import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffp_lab.errors import InvalidParameterError, InvalidSiteError
from ffp_lab.lattice import (TORUS, WINDOW, box_coords, build_topology,
                             cluster_of, cluster_union, config_to_string,
                             explicit_topology, read_edge_list, site_boundary)
from ffp_lab.rng import make_rng
from oracles import translate_permutation


def write_edge_list(topology, path):
    """One "i j" line per edge, i < j: the edge-file format read_edge_list reads."""
    with open(path, "w") as fh:
        for i, nbs in enumerate(topology.adjacency):
            for j in nbs:
                if i < j:
                    fh.write(f"{i} {j}\n")


def neighbor_coords(topology, site):
    return {topology.coords[j]
            for j in topology.adjacency[topology.site_index(site)]}


def closed_set(topology, sites):
    """S together with its boundary N(S)."""
    s = frozenset(topology.site_index(x) for x in sites)
    return s | site_boundary(topology, s)


def config_from_string(text):
    return [1 if ch == "1" else 0 for ch in text.strip()]


def edge_count(topology):
    return sum(len(nbs) for nbs in topology.adjacency) // 2


class TestBoxCoords:
    def test_lexicographic_order(self):
        assert box_coords(2, 1) == [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                                    (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]

    def test_size(self):
        for d in (1, 2, 3):
            for k in (0, 1, 2):
                assert len(box_coords(d, k)) == (2 * k + 1) ** d


class TestTorus:
    def test_interior_neighbors(self):
        topo = build_topology(2, 2, TORUS)
        assert neighbor_coords(topo, (0, 0)) == {(1, 0), (-1, 0), (0, 1),
                                                 (0, -1)}

    def test_face_wrap(self):
        topo = build_topology(2, 2, TORUS)
        assert neighbor_coords(topo, (2, 0)) == {(1, 0), (2, 1), (2, -1),
                                                 (-2, 0)}

    def test_corner_wrap(self):
        topo = build_topology(2, 2, TORUS)
        assert neighbor_coords(topo, (2, 2)) == {(1, 2), (2, 1), (-2, 2),
                                                 (2, -2)}

    def test_degree_exactly_2d(self):
        for d in (1, 2, 3):
            for k in (1, 2):
                topo = build_topology(d, k, TORUS)
                assert all(len(nbs) == 2 * d for nbs in topo.adjacency)

    def test_edge_count(self):
        for d in (1, 2):
            for k in (1, 2, 3):
                topo = build_topology(d, k, TORUS)
                assert edge_count(topo) == d * (2 * k + 1) ** d

    def test_single_site(self):
        topo = build_topology(2, 0, TORUS)
        assert topo.n_sites == 1
        assert topo.adjacency == [[]]


class TestWindow:
    def test_no_wrap(self):
        topo = build_topology(2, 2, WINDOW)
        assert neighbor_coords(topo, (2, 0)) == {(1, 0), (2, 1), (2, -1)}

    def test_corner_degree(self):
        topo = build_topology(2, 2, WINDOW)
        assert neighbor_coords(topo, (2, 2)) == {(1, 2), (2, 1)}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            build_topology(0, 1, TORUS)
        with pytest.raises(InvalidParameterError):
            build_topology(2, -1, TORUS)
        with pytest.raises(InvalidParameterError):
            build_topology(2, 1, "klein bottle")


class TestSymmetry:
    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_adjacency_symmetric(self, d, k):
        topo = build_topology(d, k, TORUS)
        for i, nbs in enumerate(topo.adjacency):
            for j in nbs:
                assert i in topo.adjacency[j]
                assert i != j

    @given(st.integers(1, 2), st.integers(1, 3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_translation_is_automorphism(self, d, k, data):
        topo = build_topology(d, k, TORUS)
        vec = tuple(data.draw(st.integers(-k, k)) for _ in range(d))
        perm = translate_permutation(topo, vec)
        assert sorted(perm) == list(range(topo.n_sites))
        for i, nbs in enumerate(topo.adjacency):
            assert sorted(perm[j] for j in nbs) == topo.adjacency[perm[i]]

    def test_translation_rejected_off_torus(self):
        with pytest.raises(InvalidParameterError):
            translate_permutation(build_topology(2, 1, WINDOW), (1, 0))


class TestExplicit:
    def test_pair(self):
        topo = explicit_topology(2, [(0, 1)])
        assert topo.adjacency == [[1], [0]]

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            explicit_topology(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSiteError):
            explicit_topology(2, [(0, 5)])

    def test_edge_list_roundtrip(self, tmp_path):
        topo = explicit_topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        path = tmp_path / "graph.txt"
        write_edge_list(topo, path)
        back = read_edge_list(path)
        assert back.adjacency == topo.adjacency

    def test_edge_list_skips_comments_and_blank_lines(self, tmp_path):
        """Kills `not line or line.startswith("#")` -> `and`, which reads
        both lines as edges and refuses the file."""
        path = tmp_path / "graph.txt"
        path.write_text("# a triangle\n0 1\n\n  \n1 2\n  # closing edge\n2 0\n")
        topo = read_edge_list(path)
        assert topo.adjacency == explicit_topology(
            3, [(0, 1), (1, 2), (2, 0)]).adjacency


class TestSets:
    def test_boundary_of_origin(self):
        topo = build_topology(2, 2, TORUS)
        b = site_boundary(topo, [(0, 0)])
        assert {topo.coords[i] for i in b} == {(1, 0), (-1, 0), (0, 1),
                                              (0, -1)}

    def test_closed_set(self):
        topo = build_topology(2, 2, TORUS)
        closed = closed_set(topo, [(0, 0)])
        assert {topo.coords[i] for i in closed} == {(0, 0), (1, 0), (-1, 0),
                                                   (0, 1), (0, -1)}

    def test_cluster_of_vacant_is_empty(self):
        topo = build_topology(2, 1, TORUS)
        cfg = [0] * topo.n_sites
        assert cluster_of(cfg, topo, (0, 0)) == frozenset()

    def test_cluster_bfs(self):
        topo = build_topology(2, 2, WINDOW)
        cfg = [0] * topo.n_sites
        for c in [(0, 0), (0, 1), (1, 1), (2, 2)]:
            cfg[topo.index_of[c]] = 1
        cl = cluster_of(cfg, topo, (0, 0))
        assert {topo.coords[i] for i in cl} == {(0, 0), (0, 1), (1, 1)}

    def test_cluster_union(self):
        topo = build_topology(2, 2, WINDOW)
        cfg = [0] * topo.n_sites
        for c in [(0, 0), (2, 2), (-2, -2)]:
            cfg[topo.index_of[c]] = 1
        u = cluster_union(cfg, topo, [(0, 0), (2, 2), (0, 1)])
        assert {topo.coords[i] for i in u} == {(0, 0), (2, 2)}


class TestConfigStrings:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_roundtrip(self, cfg):
        assert config_from_string(config_to_string(cfg)) == cfg


def test_bernoulli_config_density():
    from ffp_lab.lattice import bernoulli_config
    topo = build_topology(2, 5, TORUS)
    cfg = bernoulli_config(topo, 0.3, make_rng(0))
    assert 0.1 < sum(cfg) / len(cfg) < 0.5
