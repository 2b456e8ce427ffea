import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bernoulli_spec,
    bfs_components,
    make_spec,
    oracle_branch_data,
    oracle_classify,
    oracle_support,
)
from treeshift.errors import InputError
from treeshift.graphs import (
    BranchData,
    TransitionGraph,
    branch_data,
    classify,
    is_special,
    special_sets,
    support_edges,
)
from treeshift.randspec import random_properly_ergodic_spec, random_spec

H = Fraction(1, 2)


def graph(n, edges):
    return TransitionGraph(n, frozenset(edges))


@pytest.mark.parametrize("make", [random_spec, random_properly_ergodic_spec])
@pytest.mark.parametrize(
    "size, rank, match",
    [pytest.param(size, 2, "alphabet size", id=repr(size)) for size in (0, -1, 2.0, True)]
    + [pytest.param(3, rank, "rank", id=f"rank-{rank!r}") for rank in (1.5, None, True)],
)
def test_random_specs_need_a_positive_int_size(make, size, rank, match):
    with pytest.raises(InputError, match=match):
        make(0, size, rank)


@pytest.mark.parametrize("rank", [2, 3])
def test_properly_ergodic_specs_need_two_symbols(rank):
    """On one symbol every restriction is the periodic loop, so no spec there
    is properly ergodic: random_properly_ergodic_spec refuses size 1."""
    assert not classify(random_spec(0, 1, rank)).properly_ergodic
    with pytest.raises(InputError, match="alphabet size"):
        random_properly_ergodic_spec(0, 1, rank)


@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(2, 4))
@settings(max_examples=50, deadline=None)
def test_properly_ergodic_specs_are_properly_ergodic(seed, size, rank):
    assert classify(random_properly_ergodic_spec(seed, size, rank)).properly_ergodic


@pytest.mark.parametrize("make", [random_spec, random_properly_ergodic_spec])
@pytest.mark.parametrize("seed", [None, 1.0, "1", True, False], ids=repr)
def test_random_specs_need_an_int_seed(make, seed):
    """random.Random(None) seeds from the OS, so None would give a new spec
    on every call; floats, strings and bools are not seeds either."""
    with pytest.raises(InputError, match="seed"):
        make(seed, 3, 2)


@pytest.mark.parametrize("style", ["nope", "Mixed", None])
def test_random_spec_style_must_be_known(style):
    with pytest.raises(InputError, match="style"):
        random_spec(0, 3, 2, style=style)


class TestSupportEdges:
    def test_m1(self, m1):
        assert support_edges(m1, 1).edges == {(0, 1), (1, 0)}
        assert support_edges(m1, 0).edges == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_bernoulli_complete(self):
        spec = bernoulli_spec([0, 1, 2], [H, Fraction(1, 4), Fraction(1, 4)])
        assert support_edges(spec, 0).edges == {
            (a, b) for a in range(3) for b in range(3)
        }

    def test_bool_generator_rejected(self, m1):
        """A bool is not a generator index here, as in with_kernel and build_slide_params."""
        with pytest.raises(InputError, match="generator index True"):
            support_edges(m1, True)

    def test_reverse_direction(self, m3):
        fwd = support_edges(m3, 0).edges
        rev = m3.letter_support[1].edges
        assert rev == {(b, a) for a, b in fwd}

    def test_served_once_per_direction(self):
        spec = random_spec(5, 4, 3, style="sparse")
        for gen in range(3):
            fwd = support_edges(spec, gen).edges
            assert fwd == oracle_support(spec, gen)
            assert support_edges(spec, gen).edges is fwd
            for code in (2 * gen, 2 * gen + 1):  # the graph and its answers are built once
                g = spec.letter_support[code]
                assert spec.letter_support[code] is g
                assert g.classes is g.classes
            assert spec.letter_support[2 * gen + 1].edges == {(b, a) for a, b in fwd}
        with pytest.raises(InputError):
            support_edges(spec, 3)


class TestTransitionGraph:
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40))
    @settings(max_examples=60)
    def test_adjacency_matches_edge_scan(self, edges):
        g = graph(8, edges)
        for v in range(-1, 9):
            outs = tuple(sorted(b for a, b in edges if a == v))
            ins = tuple(sorted(a for a, b in edges if b == v))
            assert (g.out_neighbors(v), g.in_neighbors(v)) == (outs, ins)


class TestClasses:
    def test_single_edge(self):
        g = graph(3, {(0, 1)})
        assert g.classes == (frozenset({0, 1}), frozenset({2}))
        assert g.class_of == (0, 0, 1)

    def test_complete(self):
        g = graph(3, {(a, b) for a in range(3) for b in range(3)})
        assert len(g.classes) == 1

    @given(st.sets(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=120))
    @settings(max_examples=40)
    def test_matches_bfs_oracle(self, edges):
        g = graph(50, edges)
        components = bfs_components(50, edges)
        assert sorted(g.classes, key=min) == sorted(components, key=min)
        # a class is periodic iff each of its vertices has one out- and one in-edge
        cycle_like = {
            v for v in range(50)
            if sum(a == v for a, _ in edges) == 1 == sum(b == v for _, b in edges)
        }
        assert g.periodic == tuple(c <= cycle_like for c in g.classes)
        assert all(g.aperiodic(v) == (not c <= cycle_like) for c in components for v in c)


class TestPeriodicity:
    def test_swap_cycle_periodic(self):
        g = graph(2, {(0, 1), (1, 0)})
        assert g.classes == (frozenset({0, 1}),) and g.periodic == (True,)

    def test_complete_with_loops_aperiodic(self):
        g = graph(2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        assert g.classes == (frozenset({0, 1}),) and g.periodic == (False,)

    def test_cycle_with_chord_aperiodic(self):
        g = graph(3, {(0, 1), (1, 2), (2, 0), (1, 0)})
        assert g.classes == (frozenset({0, 1, 2}),) and g.periodic == (False,)

    def test_degree_one_on_one_side_only_aperiodic(self):
        # out-degree 1 everywhere but in-degree 2 at vertex 1, then the reverse
        for edges in ({(0, 1), (1, 2), (2, 1)}, {(1, 0), (2, 1), (1, 2)}):
            g = graph(3, edges)
            assert g.classes == (frozenset({0, 1, 2}),) and g.periodic == (False,)

    def test_singleton_with_loop_periodic(self):
        # a loop gives in- and out-degree exactly 1
        g = graph(2, {(0, 0), (1, 1)})
        assert g.classes[0] == frozenset({0}) and g.periodic[0]


class TestClassify:
    def test_m1(self, m1):
        c = classify(m1)
        by_name = {r.name: r for r in c.per_generator}
        assert by_name["s1"].ergodic and by_name["s1"].free
        assert by_name["s2"].ergodic and not by_name["s2"].free
        assert c.ergodic and c.properly_ergodic
        assert not c.generator_ergodic

    def test_bernoulli_all_free_ergodic(self):
        spec = bernoulli_spec([0, 1, 2], [H, Fraction(1, 3), Fraction(1, 6)], rank=3)
        c = classify(spec)
        assert c.generator_ergodic and c.ergodic and c.properly_ergodic

    def test_identity_kernels_not_ergodic(self):
        spec = make_spec(
            ["s1", "s2"], [0, 1], [H, H], [[[1, 0], [0, 1]]] * 2
        )
        c = classify(spec)
        assert not c.ergodic
        assert not c.properly_ergodic

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_independent_oracle(self, seed):
        style = ["mixed", "sparse", "split"][seed % 3]
        spec = random_spec(seed, size=seed % 5 + 2, style=style)
        got = classify(spec).to_json(spec.alphabet)
        want = oracle_classify(spec)
        assert got["ergodic"] == want["ergodic"]
        assert got["properly_ergodic"] == want["properly_ergodic"]
        for name, rep in want["per_generator"].items():
            assert got["per_generator"][name]["ergodic"] == rep["ergodic"]
            assert got["per_generator"][name]["free"] == rep["free"]

    def test_global_flags_built_on_first_read(self, m1):
        """The union graph is built only when a global flag is read."""
        c = classify(m1)
        assert c.generator_ergodic is False
        assert not {"ergodic", "properly_ergodic"} & set(vars(c))
        assert c.properly_ergodic and "ergodic" in vars(c)

    def test_json_shape(self, m1):
        j = classify(m1).to_json(m1.alphabet)
        assert set(j) == {"per_generator", "ergodic", "properly_ergodic"}
        assert j["per_generator"]["s2"]["periodic_classes"] == [[0, 1]]


EXAMPLE_GRAPH = graph(3, {(0, 1), (1, 2), (2, 0), (1, 0)})


class TestBranchData:
    def test_from_zero(self):
        bd = branch_data(EXAMPLE_GRAPH, 0)
        assert bd == BranchData(n=2, path=(0, 1, 0), eta=2)

    def test_from_one(self):
        bd = branch_data(EXAMPLE_GRAPH, 1)
        assert bd == BranchData(n=1, path=(1, 0), eta=2)

    def test_complete_graph(self):
        g = graph(3, {(a, b) for a in range(3) for b in range(3)})
        for b in range(3):
            assert branch_data(g, b).n == 1

    def test_cycle_raises(self):
        g = graph(3, {(0, 1), (1, 2), (2, 0)})
        with pytest.raises(InputError):
            branch_data(g, 0)

    @pytest.mark.parametrize("b", ["a", 3, -1, True, 0.0], ids=repr)
    def test_bad_vertex_is_named(self, b):
        with pytest.raises(InputError, match=rf"vertex {b!r} is not an int in \[0, 3\)"):
            branch_data(EXAMPLE_GRAPH, b)

    def test_matches_exhaustive_search(self):
        for seed in range(8):
            spec = random_spec(seed, size=4, style="mixed")
            g = support_edges(spec, 0)
            for b in range(4):
                best = oracle_branch_data(g, b)
                assert best is not None
                assert branch_data(g, b) == best

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.lists(st.frozensets(st.integers(0, n - 1), max_size=n), min_size=n, max_size=n),
                st.integers(0, n - 1),
            )
        )
    )
    def test_arbitrary_graphs_match_oracle(self, outs_and_start):
        """Arbitrary edge sets, drawn as each vertex's out-neighbours, reach
        branch distances n > 1, which the support graphs of random specs do not."""
        outs, b = outs_and_start
        g = graph(len(outs), {(a, w) for a, ws in enumerate(outs) for w in ws})
        best = oracle_branch_data(g, b)
        if best is None:
            with pytest.raises(InputError):
                branch_data(g, b)
        else:
            assert branch_data(g, b) == best

    def test_bound_on_n(self):
        for seed in range(10):
            spec = random_spec(seed, size=5, style="sparse")
            g = support_edges(spec, 1)
            for b in range(5):
                if not g.aperiodic(b):
                    continue
                assert branch_data(g, b).n <= 5


class TestIsSpecial:
    def test_single_edge_special(self):
        assert is_special(EXAMPLE_GRAPH, {(0, 1)})

    def test_chained_edges_not_special(self):
        assert not is_special(EXAMPLE_GRAPH, {(0, 1), (1, 2)})

    def test_periodic_endpoint_not_special(self):
        g = graph(4, {(0, 1), (1, 0), (0, 0), (2, 3), (3, 2)})
        # class {2,3} is a two-cycle, hence periodic
        assert not is_special(g, {(2, 3)})

    def test_non_subset_rejected(self):
        with pytest.raises(InputError):
            is_special(EXAMPLE_GRAPH, {(0, 2)})


def sides(out) -> tuple[set, set]:
    """The 2-coloring the halves carry: e1 runs from side 0 to side 1, e2 back."""
    e1, e2 = out
    return {a for a, _ in e1} | {b for _, b in e2}, {b for _, b in e1} | {a for a, _ in e2}


def spanning_tree_of(n: int, edges, cls) -> bool:
    """Whether the edges, directions ignored, are a spanning tree of the class:
    |class| - 1 of them, connecting every vertex of it."""
    touched = {v for e in edges for v in e}
    if len(edges) != len(cls) - 1 or not touched <= cls:
        return False
    return any(comp == cls for comp in bfs_components(n, edges))


class TestSpecialSets:
    def test_two_vertex_class(self):
        spec = make_spec(
            ["s1", "s2"],
            [0, 1],
            [H, H],
            [[[H, H], [H, H]], [[H, H], [H, H]]],
        )
        out = e1, e2 = special_sets(spec, 0, 0)
        assert e1 | e2 == {(0, 1)}
        assert e1 == {(0, 1)} and e2 == frozenset()
        assert sides(out) == ({0}, {1})

    def test_periodic_class_rejected(self, m1):
        with pytest.raises(InputError):
            special_sets(m1, 1, 0)

    @pytest.mark.parametrize("a", [-1, 9])
    def test_symbol_out_of_range_rejected(self, a):
        with pytest.raises(InputError):
            special_sets(random_properly_ergodic_spec(1, 4, 2), 0, a)

    def test_four_vertex_tree_size(self):
        spec = bernoulli_spec([0, 1, 2, 3], [Fraction(1, 4)] * 4)
        out = e1, e2 = special_sets(spec, 0, 0)
        assert len(e1 | e2) == 3 and not e1 & e2
        assert spanning_tree_of(4, e1 | e2, {0, 1, 2, 3})
        # 2-coloring: every tree edge crosses the bipartition
        side0, side1 = sides(out)
        assert not side0 & side1 and side0 | side1 == {0, 1, 2, 3}
        for a, b in e1 | e2:
            assert (a in side0) != (b in side0)

    @pytest.mark.parametrize("seed", range(12))
    def test_halves_are_special(self, seed):
        spec = random_spec(seed, size=seed % 5 + 2, style="mixed")
        g = support_edges(spec, 0)
        for a in range(spec.size):
            if not g.aperiodic(a):
                continue
            cls = g.classes[g.class_of[a]]
            e1, e2 = special_sets(spec, 0, a)
            assert is_special(g, e1)
            assert is_special(g, e2)
            assert spanning_tree_of(spec.size, e1 | e2, cls)
            assert len(e1 | e2) == len(cls) - 1
