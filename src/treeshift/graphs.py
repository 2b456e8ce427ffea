"""Support graphs of generator restrictions and what they decide.

For each direction s^{+-1} the directed graph on the alphabet with an edge
(a, b) whenever the two-point cylinder {x_e = a, x_s = b} has positive
measure controls the restriction's dynamics: the restriction is ergodic
exactly when the graph is connected (as an undirected graph) across the whole
alphabet, and essentially free exactly when no class is a single directed
cycle.  Each spec builds this graph once per direction (MarkovSpec.
letter_support), and the graph derives its adjacency, classes and periodic
flags once each, on first use.  This module also extracts the combinatorial
data consumed by the edge-slide construction: branch points (reached by the
forced walk along single out-edges), spanning trees and their bipartitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import chains
from .errors import InputError
from .words import Letter

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
    def classes(self) -> tuple[frozenset[int], ...]:
        """Connected components ignoring edge direction (union-find), ordered
        by smallest vertex."""
        uf = list(range(self.size))

        def find(i: int) -> int:
            while uf[i] != i:
                uf[i] = uf[uf[i]]
                i = uf[i]
            return i

        for a, b in self.edges:
            uf[find(a)] = find(b)
        roots: dict[int, list[int]] = {}
        for v in range(self.size):
            roots.setdefault(find(v), []).append(v)
        return tuple(frozenset(vs) for vs in sorted(roots.values(), key=lambda vs: vs[0]))

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Index in classes of every vertex's class."""
        class_of = [0] * self.size
        for ci, cls in enumerate(self.classes):
            for v in cls:
                class_of[v] = ci
        return tuple(class_of)

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
    two-point mass pi(a) K(a, b).  The graph is the spec's table entry,
    built once per spec and direction (the reversed direction is
    spec.letter_support at the inverse letter).  InputError for a non-spec;
    the spec is not validated, so a candidate's graph can be read."""
    if not isinstance(spec, chains.MarkovSpec):
        raise InputError(f"chain spec must be a MarkovSpec, got {spec!r}")
    return spec.letter_support[Letter(gen, 1)]


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
    ergodic: bool
    properly_ergodic: bool

    @property
    def generator_ergodic(self) -> bool:
        """Every restriction both ergodic and essentially free."""
        return all(r.ergodic and r.free for r in self.per_generator)

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
    union over forward directions generates the same relation.  The spec
    must pass require_valid.
    """
    chains.require_valid(spec)
    supports = [support_edges(spec, gi) for gi in range(spec.rank)]
    reports = tuple(
        GeneratorReport(name, len(g.classes) == 1, not any(g.periodic), g.classes, g.periodic)
        for name, g in zip(spec.generators, supports)
    )
    union = TransitionGraph(spec.size, frozenset().union(*(g.edges for g in supports)))
    ergodic = len(union.classes) == 1
    return Classification(reports, ergodic, ergodic and not all(all(g.periodic) for g in supports))


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
    without out-edges, or that closes a deterministic cycle, raises."""
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


def is_special(g: TransitionGraph, edge_set) -> bool:
    """Whether an edge subset can drive an edge slide: no vertex carries both
    an incoming and an outgoing edge of the subset, and every endpoint lies
    in an aperiodic class."""
    edge_set = frozenset(edge_set)
    if not edge_set <= g.edges:
        raise InputError("edge set is not a subset of the support edges")
    sources = {a for a, _ in edge_set}
    targets = {b for _, b in edge_set}
    if sources & targets:
        return False
    return all(g.aperiodic(v) for v in sources | targets)


@dataclass(frozen=True)
class SpecialSets:
    tree: frozenset[tuple[int, int]]
    e1: frozenset[tuple[int, int]]
    e2: frozenset[tuple[int, int]]
    side0: frozenset[int]
    side1: frozenset[int]


def special_sets(spec: MarkovSpec, gen: int, a: int) -> SpecialSets:
    """Spanning tree of a's class in the given direction, split by a
    2-coloring into two one-way edge sets, each of which is special.

    The tree is grown by BFS from the smallest vertex of the class, scanning
    undirected edges in vertex order; each tree edge is then oriented in a
    direction the support graph actually carries (smallest endpoint first
    when both directions exist).  Coloring the BFS tree makes every tree
    edge cross the two sides, so each oriented half has disjoint sources and
    targets.  The spec must pass require_valid.
    """
    chains.require_valid(spec)
    if isinstance(a, bool) or not (isinstance(a, int) and 0 <= a < spec.size):
        raise InputError(f"symbol index {a!r} outside alphabet of size {spec.size}")
    g = support_edges(spec, gen)
    if not g.aperiodic(a):
        raise InputError(f"class of {a} along {spec.generators[gen]} is periodic")
    cls = g.classes[g.class_of[a]]
    root = min(cls)
    color = {root: 0}
    tree_pairs = []
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for w in sorted({*g.out_neighbors(v), *g.in_neighbors(v)}):
                if w not in color:
                    color[w] = 1 - color[v]
                    tree_pairs.append((v, w))
                    nxt.append(w)
        frontier = nxt
    # a pair carried both ways is oriented smallest endpoint first
    tree = frozenset(
        (v, w) if (v, w) in g.edges and (v < w or (w, v) not in g.edges) else (w, v)
        for v, w in tree_pairs
    )
    halves = (frozenset(e for e in tree if color[e[0]] == side) for side in (0, 1))
    sides = (frozenset(v for v in cls if color[v] == side) for side in (0, 1))
    return SpecialSets(tree, *halves, *sides)

