"""Support graphs of generator restrictions and what they decide.

For each direction s^{+-1} the directed graph on the alphabet with an edge
(a, b) whenever the two-point cylinder {x_e = a, x_s = b} has positive
measure controls the restriction's dynamics: the restriction is ergodic
exactly when the graph is connected (as an undirected graph) across the whole
alphabet, and essentially free exactly when no class is a single directed
cycle.  Each spec builds this graph once per direction (MarkovSpec.
letter_support), and the graph derives its adjacency, classes and periodic
flags once each, on first use.  This module also extracts the combinatorial
data consumed by the edge-slide construction: branch points, spanning trees
and their bipartitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

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


def support_edges(spec: MarkovSpec, gen: int, sign: int = 1) -> TransitionGraph:
    """The support graph along the given direction: edges (a, b) with
    positive two-point mass pi(a) K(a, b); sign -1 uses the reversed kernel.
    The graph is the spec's table entry, built once per spec and direction."""
    return spec.letter_support[Letter(gen, sign)]


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
        ergodic = len(g.classes) == 1
        free = not any(g.periodic)
        if not all(g.periodic):
            some_aperiodic = True
        reports.append(GeneratorReport(name, ergodic, free, g.classes, g.periodic))
    union = TransitionGraph(spec.size, frozenset(union_edges))
    globally_ergodic = len(union.classes) == 1
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
    if not g.out_neighbors(b):
        raise InputError(f"vertex {b} has no outgoing support edge")
    # BFS over lex-minimal paths: level k holds the lex-smallest path of
    # length k to each reachable vertex.
    best: dict[int, tuple[int, ...]] = {b: ()}
    frontier = [b]
    for _ in range(g.size + 1):
        # n = len(path to branch vertex) + 1; scan frontier in path order
        candidates = [
            (best[v], v) for v in frontier if len(g.out_neighbors(v)) >= 2
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
    targets.
    """
    if not 0 <= a < spec.size:
        raise InputError(f"symbol index {a} outside alphabet of size {spec.size}")
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

