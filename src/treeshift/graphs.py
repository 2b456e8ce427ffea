"""Support graphs of generator restrictions and what they decide.

For each direction s^{+-1} the directed graph on the alphabet with an edge
(a, b) whenever the two-point cylinder {x_e = a, x_s = b} has positive
measure controls the restriction's dynamics: the restriction is ergodic
exactly when the graph is connected (as an undirected graph) across the whole
alphabet, and essentially free exactly when no class is a single directed
cycle.  Each spec builds this graph once per direction (MarkovSpec.
letter_support) from its scaled ints, and the graph derives its adjacency,
periodic flags and one breadth-first traversal (classes, 2-coloring and
spanning trees) once each, on first use.  This module also extracts the
combinatorial data consumed by the edge-slide construction: branch points
(reached by the forced walk along single out-edges) and the two special
halves of a spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import chains
from .errors import InputError
from .words import _is_index

if TYPE_CHECKING:
    from .chains import MarkovSpec


@dataclass(frozen=True)
class TransitionGraph:
    size: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def _adjacency(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """Sorted out- and in-neighbours of every vertex, built on the first query."""
        outs: dict[int, list[int]] = {}
        ins: dict[int, list[int]] = {}
        for a, b in sorted(self.edges):
            outs.setdefault(a, []).append(b)
            ins.setdefault(b, []).append(a)
        return tuple({v: tuple(ws) for v, ws in adj.items()} for adj in (outs, ins))

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[0].get(v, ())

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[1].get(v, ())

    @cached_property
    def _traversal(self) -> tuple[tuple, tuple[int, ...], tuple[int, ...], tuple]:
        """One breadth-first walk of the graph, edge directions ignored:
        (classes, class_of, color, trees).  Each vertex not yet reached, in
        increasing order, roots a class; the walk goes level by level, through
        each level's vertices and their neighbours in increasing order.  A
        vertex's color is its level's parity, and its class's tree holds
        (v, w) for every w first reached from v."""
        outs, ins = self._adjacency
        class_of, color, classes, trees = [-1] * self.size, [0] * self.size, [], []
        for root in range(self.size):
            if class_of[root] >= 0:
                continue
            class_of[root] = ci = len(classes)
            pairs, frontier = [], [root]
            while frontier:
                nxt = []
                for v in sorted(frontier):
                    for w in sorted({*outs.get(v, ()), *ins.get(v, ())}):
                        if class_of[w] < 0:
                            class_of[w], color[w] = ci, 1 - color[v]
                            pairs.append((v, w))
                            nxt.append(w)
                frontier = nxt
            classes.append(frozenset([root, *(w for _, w in pairs)]))
            trees.append(tuple(pairs))
        return tuple(classes), tuple(class_of), tuple(color), tuple(trees)

    @cached_property
    def classes(self) -> tuple[frozenset[int], ...]:
        """Connected components ignoring edge direction, ordered by smallest
        vertex: the classes of the one traversal."""
        return self._traversal[0]

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Index in classes of every vertex's class."""
        return self._traversal[1]

    @cached_property
    def periodic(self) -> tuple[bool, ...]:
        """Per class: every vertex has in- and out-degree exactly 1, i.e. the
        class is a single deterministic cycle."""
        return tuple(
            all(len(self.out_neighbors(v)) == 1 == len(self.in_neighbors(v)) for v in cls)
            for cls in self.classes
        )

    def aperiodic(self, v: int) -> bool:
        """Whether v's class is not a single deterministic cycle."""
        return not self.periodic[self.class_of[v]]


def support_edges(spec: MarkovSpec, gen: int) -> TransitionGraph:
    """The support graph along generator gen: edges (a, b) with positive
    two-point mass pi(a) K(a, b).  The graph is the spec's table entry at
    code 2 gen, built once per spec and direction (the reversed direction is
    the entry at the next code).  The spec must pass chains.require_form, not
    require_valid, so a candidate's graph is read."""
    return chains.require_form(spec).letter_support[2 * chains._generator(spec, gen)]


@dataclass(frozen=True)
class GeneratorReport:
    name: str
    ergodic: bool
    free: bool
    classes: tuple[frozenset[int], ...]
    periodic: tuple[bool, ...]


@dataclass(frozen=True)
class Classification:
    per_generator: tuple[GeneratorReport, ...]
    supports: tuple[TransitionGraph, ...]  # the forward support graph of each generator

    @property
    def generator_ergodic(self) -> bool:
        """Every restriction both ergodic and essentially free."""
        return all(r.ergodic and r.free for r in self.per_generator)

    @cached_property
    def ergodic(self) -> bool:
        """Whether the union of the supports is one class: at once when some
        restriction is ergodic, as the union holds its one class over the
        whole alphabet, else from the union, built on first read."""
        if any(r.ergodic for r in self.per_generator):
            return True
        edges = frozenset().union(*(g.edges for g in self.supports))
        return len(TransitionGraph(self.supports[0].size, edges).classes) == 1

    @cached_property
    def properly_ergodic(self) -> bool:
        return self.ergodic and not all(all(r.periodic) for r in self.per_generator)

    def to_json(self, alphabet) -> dict:
        return {
            "per_generator": {
                r.name: {
                    "ergodic": r.ergodic,
                    "free": r.free,
                    "classes": [sorted(alphabet[v] for v in c) for c in r.classes],
                    "periodic_classes": [
                        sorted(alphabet[v] for v in c)
                        for c, p in zip(r.classes, r.periodic)
                        if p
                    ],
                }
                for r in self.per_generator
            },
            "ergodic": self.ergodic,
            "properly_ergodic": self.properly_ergodic,
        }


def classify(spec: MarkovSpec) -> Classification:
    """Ergodicity and freeness of every restriction, plus the global flags.

    The global relation is generated by the union of all generator supports;
    edges along inverse directions are the reverses of forward edges, so the
    union over forward directions generates the same relation.  The union is
    built only when a global flag is read.  The spec must pass require_valid.
    """
    chains.require_valid(spec)
    supports = tuple(support_edges(spec, gi) for gi in range(spec.rank))
    reports = tuple(
        GeneratorReport(name, len(g.classes) == 1, not any(g.periodic), g.classes, g.periodic)
        for name, g in zip(spec.generators, supports)
    )
    return Classification(reports, supports)


@dataclass(frozen=True)
class BranchData:
    """The forced route from a vertex to its first branching alternative.

    path is (b_0, ..., b_n) with b_0 the start vertex, every step a support
    edge, and b_{n-1} the first vertex along the way with out-degree >= 2;
    eta is an out-neighbor of b_{n-1} different from b_n.
    """

    n: int
    path: tuple[int, ...]
    eta: int


def branch_data(g: TransitionGraph, b: int) -> BranchData:
    """Branch data from b: the walk that follows the single out-edge of each
    vertex until it reaches one with two or more, whose two smallest
    out-neighbors are b_n and eta.  Every vertex before the branch vertex has
    exactly one out-edge, so the route is forced.  A walk that stops at a vertex
    without out-edges, or that closes a deterministic cycle, raises InputError,
    as do a g that is not a TransitionGraph and a b that is not its vertex."""
    size = _graph(g).size
    if type(b) is not int or not 0 <= b < size:
        raise InputError(f"vertex {b!r} is not an int in [0, {size})")
    path = [b]
    while len(outs := g.out_neighbors(path[-1])) == 1:
        if outs[0] in path:
            raise InputError(
                f"no branch vertex reachable from {b}: its class is a deterministic cycle"
            )
        path.append(outs[0])
    if not outs:
        raise InputError(f"vertex {path[-1]} has no outgoing support edge")
    return BranchData(len(path), (*path, outs[0]), outs[1])


def _graph(g) -> TransitionGraph:
    if not isinstance(g, TransitionGraph):
        raise InputError(f"not a TransitionGraph: {g!r}")
    return g


def _edge_set(edges) -> frozenset[tuple[int, int]]:
    """The one rule for an edge set: an iterable of (int, int) tuples, as a
    frozenset, or InputError.  Each element is checked before the set is
    built, since a set merges (0, 1.0) into (0, 1)."""
    try:
        pairs = list(edges)
    except TypeError:  # not iterable: fails the check below
        pairs = [None]
    if not all(type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in pairs):
        raise InputError(f"edge set must be (int, int) tuples, got {edges!r}")
    return frozenset(pairs)


def is_special(g: TransitionGraph, edge_set) -> bool:
    """Whether an edge subset can drive an edge slide: no vertex carries both
    an incoming and an outgoing edge of the subset, and every endpoint lies
    in an aperiodic class.  A g that is not a TransitionGraph, and anything
    but a subset of g's edges that passes _edge_set, raise InputError."""
    edges = _graph(g).edges
    edge_set = _edge_set(edge_set)
    if not edge_set <= edges:
        raise InputError("edge set is not a subset of the support edges")
    sources = {a for a, _ in edge_set}
    targets = {b for _, b in edge_set}
    if sources & targets:
        return False
    return all(g.aperiodic(v) for v in sources | targets)


def special_sets(spec: MarkovSpec, gen: int, a: int) -> tuple[frozenset, frozenset]:
    """The two halves (e1, e2) of a spanning tree of a's class in the given
    direction: split by a 2-coloring into two one-way edge sets, each of
    which is special, whose union is the tree; e1 leaves side 0, e2 side 1.

    The tree and the coloring are those of the graph's one traversal
    (TransitionGraph._traversal), from the smallest vertex of the class,
    scanning undirected edges in vertex order; each tree edge is then
    oriented in a direction the support graph actually carries (smallest
    endpoint first when both directions exist).  Coloring the BFS tree makes
    every tree edge cross the two sides, so each oriented half, the edges
    leaving one side, has disjoint sources and targets.  The spec must pass
    require_valid.
    """
    chains.require_valid(spec)
    if not _is_index(a, spec.size):
        raise InputError(f"symbol index {a!r} outside alphabet of size {spec.size}")
    g = support_edges(spec, gen)
    if not g.aperiodic(a):
        raise InputError(f"class of {a} along {spec.generators[gen]} is periodic")
    _, class_of, color, trees = g._traversal
    # a pair carried both ways is oriented smallest endpoint first
    tree = frozenset(
        (v, w) if (v, w) in g.edges and (v < w or (w, v) not in g.edges) else (w, v)
        for v, w in trees[class_of[a]]
    )
    return tuple(frozenset(e for e in tree if color[e[0]] == side) for side in (0, 1))
