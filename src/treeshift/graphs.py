"""Support graphs of generator restrictions and what they decide.

For each generator s the directed graph on the alphabet with an edge (a, b)
whenever the two-point cylinder {x_e = a, x_s = b} has positive measure
controls the restriction's dynamics: the restriction is ergodic exactly when
the graph is connected (as an undirected graph) across the whole alphabet,
and essentially free exactly when no component is a single directed cycle.
This module also extracts the combinatorial data consumed by the edge-slide
construction: branch points, spanning trees and their bipartitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .chains import MarkovSpec
from .words import Letter


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

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors(v))

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors(v))


@dataclass(frozen=True)
class ClassPartition:
    """Partition of the alphabet into components of the undirected support."""

    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]


def support_edges(spec: MarkovSpec, gen: int, sign: int = 1) -> TransitionGraph:
    """Edges (a, b) with positive two-point mass pi(a) K(a, b) along the
    given direction; sign -1 uses the reversed kernel.  The edge set is the
    spec's table entry, computed once per spec and direction."""
    return TransitionGraph(spec.size, spec.letter_support[Letter(gen, sign)])


def classes(g: TransitionGraph) -> ClassPartition:
    """Connected components, ignoring edge direction (union-find)."""
    uf = list(range(g.size))

    def find(i: int) -> int:
        while uf[i] != i:
            uf[i] = uf[uf[i]]
            i = uf[i]
        return i

    for a, b in g.edges:
        uf[find(a)] = find(b)
    roots: dict[int, list[int]] = {}
    for v in range(g.size):
        roots.setdefault(find(v), []).append(v)
    ordered = sorted(roots.values(), key=lambda vs: vs[0])
    class_of = [0] * g.size
    for ci, vs in enumerate(ordered):
        for v in vs:
            class_of[v] = ci
    return ClassPartition(tuple(frozenset(vs) for vs in ordered), tuple(class_of))


def is_periodic_class(g: TransitionGraph, cls: frozenset[int]) -> bool:
    """True iff every vertex of the class has in- and out-degree exactly 1,
    i.e. the class is a single deterministic cycle."""
    return all(g.out_degree(v) == 1 and g.in_degree(v) == 1 for v in cls)


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
    union over forward directions generates the same relation.
    """
    reports = []
    union_edges: set[tuple[int, int]] = set()
    some_aperiodic = False
    for gi, name in enumerate(spec.generators):
        g = support_edges(spec, gi)
        union_edges |= g.edges
        part = classes(g)
        periodic = tuple(is_periodic_class(g, c) for c in part.classes)
        ergodic = len(part.classes) == 1
        free = not any(periodic)
        if not all(periodic):
            some_aperiodic = True
        reports.append(GeneratorReport(name, ergodic, free, part.classes, periodic))
    union = TransitionGraph(spec.size, frozenset(union_edges))
    globally_ergodic = len(classes(union).classes) == 1
    return Classification(
        tuple(reports),
        globally_ergodic,
        globally_ergodic and some_aperiodic,
    )


@dataclass(frozen=True)
class BranchData:
    """The shortest route from a vertex to a branching alternative.

    path is (b_0, ..., b_n) with b_0 the start vertex, every step a support
    edge, and b_{n-1} the first vertex along the way with out-degree >= 2;
    eta is an out-neighbor of b_{n-1} different from b_n.
    """

    n: int
    path: tuple[int, ...]
    eta: int


def branch_data(g: TransitionGraph, b: int) -> BranchData:
    """Minimal branch data from b, with deterministic tie-breaking.

    Among the minimal-length configurations the path (b_1, ..., b_n) is the
    lexicographically smallest, then eta is the smallest remaining
    out-neighbor.  Exists whenever b's class is aperiodic in a graph whose
    vertices all have positive in- and out-degree; misuse raises.
    """
    if g.out_degree(b) == 0:
        raise InputError(f"vertex {b} has no outgoing support edge")
    # BFS over lex-minimal paths: level k holds the lex-smallest path of
    # length k to each reachable vertex.
    best: dict[int, tuple[int, ...]] = {b: ()}
    frontier = [b]
    for _ in range(g.size + 1):
        # n = len(path to branch vertex) + 1; scan frontier in path order
        candidates = [
            (best[v], v) for v in frontier if g.out_degree(v) >= 2
        ]
        if candidates:
            prefix, branch_vertex = min(candidates)
            outs = g.out_neighbors(branch_vertex)
            b_n = outs[0]
            eta_choices = [w for w in outs if w != b_n]
            return BranchData(
                n=len(prefix) + 1,
                path=(b,) + prefix + (b_n,),
                eta=min(eta_choices),
            )
        nxt: dict[int, tuple[int, ...]] = {}
        for v in sorted(frontier, key=lambda v: best[v]):
            for w in g.out_neighbors(v):
                cand = best[v] + (w,)
                if w not in best and (w not in nxt or cand < nxt[w]):
                    nxt[w] = cand
        if not nxt:
            break
        best.update(nxt)
        frontier = list(nxt)
    raise InputError(
        f"no branch vertex reachable from {b}: its class is a deterministic cycle"
    )


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
    part = classes(g)
    for v in sources | targets:
        cls = part.classes[part.class_of[v]]
        if is_periodic_class(g, cls):
            return False
    return True


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
    targets.
    """
    g = support_edges(spec, gen)
    part = classes(g)
    cls = sorted(part.classes[part.class_of[a]])
    if is_periodic_class(g, frozenset(cls)):
        raise InputError(f"class of {a} along {spec.generators[gen]} is periodic")
    undirected = {v: set() for v in cls}
    for x, y in g.edges:
        if x in undirected and y in undirected and x != y:
            undirected[x].add(y)
            undirected[y].add(x)
    root = cls[0]
    color = {root: 0}
    tree_pairs = []
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for w in sorted(undirected[v]):
                if w not in color:
                    color[w] = 1 - color[v]
                    tree_pairs.append((v, w))
                    nxt.append(w)
        frontier = nxt
    oriented = set()
    for v, w in tree_pairs:
        if (v, w) in g.edges and (w, v) in g.edges:
            oriented.add((min(v, w), max(v, w)))
        elif (v, w) in g.edges:
            oriented.add((v, w))
        else:
            oriented.add((w, v))
    e1 = frozenset(e for e in oriented if color[e[0]] == 0)
    e2 = frozenset(e for e in oriented if color[e[0]] == 1)
    return SpecialSets(
        tree=frozenset(oriented),
        e1=e1,
        e2=e2,
        side0=frozenset(v for v in cls if color[v] == 0),
        side1=frozenset(v for v in cls if color[v] == 1),
    )

