"""The brute-force coloring oracle and the bipartite construction."""

import random

import pytest

from heawood import (
    Bipartition,
    CubicGraph,
    EmbeddedCubicGraph,
    EnumerationLimitError,
    InvalidGraphError,
    NotBipartiteError,
    bipartite_tait_construct,
    circular_ladder,
    count_tait_oracle,
    edges,
    enumerate_tait_oracle,
    is_bipartite,
    is_proper_coloring,
    k4,
    mobius_ladder,
    petersen,
    relabel,
)

from heawood.graphs import _neighbor_triples
from heawood.oracle import _perfect_matching
from perfbench.graphgen import fresh_relabelling, random_planar_cubic

from conftest import CL3_PAPER


def _matching_graphs():
    """Ladders, bipartite relabellings of even ladders and random planar draws."""
    rng = random.Random("matching")
    graphs = [circular_ladder(n) for n in range(3, 31)]
    graphs += [mobius_ladder(n) for n in range(3, 16)]
    graphs += [fresh_relabelling(circular_ladder(n), rng)[0] for n in range(4, 31, 2)]
    return graphs + [random_planar_cubic(n, rng) for n in range(4, 61, 2)]


class TestCount:
    def test_golden_counts(self):
        assert count_tait_oracle(CL3_PAPER) == 6
        assert count_tait_oracle(k4()) == 6
        assert count_tait_oracle(circular_ladder(4)) == 24
        assert count_tait_oracle(mobius_ladder(3)) == 12  # 2**3 + 4

    def test_petersen_has_none(self):
        assert count_tait_oracle(petersen()) == 0

    @pytest.mark.parametrize(
        "g",
        [CL3_PAPER, k4(), circular_ladder(4), circular_ladder(5), mobius_ladder(3), mobius_ladder(4)],
    )
    def test_count_divisible_by_six_when_nonzero(self, g):
        count = count_tait_oracle(g)
        assert count % 3 == 0
        if count:
            assert count % 6 == 0

    def test_relabeling_invariance(self):
        base = CubicGraph(CL3_PAPER.rotations)
        for perm in [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0), (2, 0, 4, 1, 5, 3)]:
            assert count_tait_oracle(relabel(base, perm)) == 6

    def test_non_cubic_rejected(self):
        broken = CubicGraph(CL3_PAPER.rotations)
        bad = list(broken.adjacency)
        bad[0] = (1, 1, 2)
        with pytest.raises(InvalidGraphError):
            count_tait_oracle(type(broken)(tuple(bad)))

    @pytest.mark.parametrize(
        "call", [count_tait_oracle, lambda g: enumerate_tait_oracle(g, 1), bipartite_tait_construct]
    )
    def test_empty_graph_rejected(self, call):
        with pytest.raises(InvalidGraphError, match="^graph has no vertices$"):
            call(EmbeddedCubicGraph(()))


class TestEnumerate:
    def test_cl3_shift_class_structure(self):
        colorings = enumerate_tait_oracle(CL3_PAPER, limit=10)
        assert len(colorings) == 6
        assert all(is_proper_coloring(CL3_PAPER, t) for t in colorings)
        assert [t.colors for t in colorings] == sorted(t.colors for t in colorings)
        remaining = set(colorings)
        classes = 0
        while remaining:
            t = min(remaining, key=lambda t: t.colors)
            orbit = {t, t.shifted(1), t.shifted(2)}
            assert orbit <= remaining
            remaining -= orbit
            classes += 1
        assert classes == 2

    def test_k4_six_colorings(self):
        assert len(enumerate_tait_oracle(k4(), limit=6)) == 6

    def test_limit_zero_refused(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_tait_oracle(CL3_PAPER, limit=0)

    def test_limit_just_below_refused(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_tait_oracle(CL3_PAPER, limit=5)

    def test_deep_graph_reaches_the_limit_without_recursion(self):
        # The recursive search went one call deeper per edge: 1200 edges here.
        with pytest.raises(EnumerationLimitError, match="more than 3 colorings exist"):
            enumerate_tait_oracle(circular_ladder(400), limit=3)


class TestBipartiteConstruct:
    @pytest.mark.parametrize("n", [4, 6])
    def test_cl_even_construction(self, n):
        g = circular_ladder(n)
        coloring = bipartite_tait_construct(g)
        assert is_proper_coloring(g, coloring)
        # Color 0 must form a perfect matching.
        zero_edges = [e for e, c in zip(edges(g), coloring.colors) if c == 0]
        touched = [v for e in zero_edges for v in e]
        assert sorted(touched) == list(range(g.n_vertices))

    def test_mobius_odd_is_bipartite(self):
        g = mobius_ladder(3)
        coloring = bipartite_tait_construct(g)
        assert is_proper_coloring(g, coloring)

    def test_cl3_rejected(self):
        with pytest.raises(NotBipartiteError):
            bipartite_tait_construct(CL3_PAPER)

    @pytest.mark.parametrize("g", _matching_graphs())
    def test_matching_equals_the_recursive_search(self, g):
        # Named for the recursive search it was once checked against: on a
        # bipartite graph the augmenting-path search finds a perfect matching
        # and each colour class of the construction is one; any other graph
        # is refused.
        parts = is_bipartite(g)
        if parts is None:
            with pytest.raises(NotBipartiteError):
                bipartite_tait_construct(g)
            return
        adjacency = _neighbor_triples(g)
        partner = _perfect_matching(adjacency, sorted(parts.part_a), [-1] * g.n_vertices)
        assert all(partner[partner[v]] == v and partner[v] in adjacency[v] for v in range(g.n_vertices))
        coloring = bipartite_tait_construct(g)
        for color in range(3):
            ends = [v for e, c in zip(edges(g), coloring.colors) if c == color for v in e]
            assert sorted(ends) == list(range(g.n_vertices)), color

    def test_given_bipartition_is_checked(self):
        g = circular_ladder(4)
        parts = is_bipartite(g)
        for given in (parts, Bipartition(parts.part_b, parts.part_a)):
            assert is_proper_coloring(g, bipartite_tait_construct(g, given))
        swapped = {0, 1}  # their other edges now lie inside a part
        wrong = Bipartition(parts.part_a ^ swapped, parts.part_b ^ swapped)
        with pytest.raises(NotBipartiteError):
            bipartite_tait_construct(g, wrong)
        with pytest.raises(NotBipartiteError):
            bipartite_tait_construct(g, Bipartition(parts.part_a, parts.part_b - {1}))

    @pytest.mark.parametrize("g", [petersen(), CL3_PAPER, circular_ladder(5), circular_ladder(7)])
    def test_invented_bipartition_of_a_non_bipartite_graph_rejected(self, g):
        half = g.n_vertices // 2
        invented = Bipartition(frozenset(range(half)), frozenset(range(half, g.n_vertices)))
        with pytest.raises(NotBipartiteError):
            bipartite_tait_construct(g, invented)

    def test_relabelled_bipartite_ladders(self):
        rng = random.Random("bipartite construct")
        for n in range(4, 61, 2):
            g, _ = fresh_relabelling(circular_ladder(n), rng)
            assert is_proper_coloring(g, bipartite_tait_construct(g))

    def test_cl1000_needs_no_recursion(self):
        # The recursive search went one call deeper per matched pair, past
        # Python's default limit of 1000 frames on 2000 vertices.
        g = circular_ladder(1000)
        coloring = bipartite_tait_construct(g)
        assert is_proper_coloring(g, coloring)
        assert sorted(coloring.colors) == [0] * 1000 + [1] * 1000 + [2] * 1000


class TestProperChecker:
    def test_detects_improper(self):
        colorings = enumerate_tait_oracle(k4(), limit=6)
        good = colorings[0]
        assert is_proper_coloring(k4(), good)
        bad = list(good.colors)
        bad[0] = bad[1]
        from heawood import TaitColoring

        assert not is_proper_coloring(k4(), TaitColoring(tuple(bad)))

    def test_length_mismatch_is_improper(self):
        from heawood import TaitColoring

        assert not is_proper_coloring(k4(), TaitColoring((0, 1, 2)))
