"""Labeled graphs, rooted trees, Artin presentations, and the endomorphisms
induced by label-preserving graph self-maps.

A labeled graph stands for the group with one relator per edge equating the
two alternating words of the edge's length.  Trees whose labels all sit at 4
or above ("extra large") split at a degree-2 root into two disjoint sides;
self-maps touching only one side induce group endomorphisms that commute
with those of the other side, which is what the key exchange runs on.
Each such endomorphism sends every generator to a generator, so it is held
as its vertex map and applied by renaming letters: it needs the alphabet,
never the relators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Optional

from . import words
from .presentations import Presentation, alternating_word
from .words import Alphabet, Word, from_codes, read_records

__all__ = [
    "LabeledGraph",
    "RootedTree",
    "GraphMorphism",
    "GroupEndomorphism",
    "SplitPlatform",
    "ElementaryMove",
    "artin_from_graph",
    "is_extra_large",
    "random_tree",
    "split_at_root",
    "validate_morphism",
    "induced_subgraph",
    "induce_endomorphism",
    "identity_endo",
    "apply_endo",
    "compose",
    "endos_commute",
    "enumerate_side_moves",
    "move_endomorphism",
    "random_endo",
    "format_tree",
    "parse_tree",
]


@dataclass(frozen=True)
class LabeledGraph:
    """Vertices are generator names; an edge (i, j, m) relates them with
    alternating words of length m >= 2.  No loops, no multiple edges."""

    vertices: tuple[str, ...]
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex names")
        seen_pairs = set()
        for i, j, m in self.edges:
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            if m < 2:
                raise ValueError(f"edge label {m} below 2")
            if (i, j) in seen_pairs:
                raise ValueError(f"multiple edges between {i} and {j}")
            seen_pairs.add((i, j))

    @cached_property
    def _labels(self) -> dict:
        return {(i, j): m for i, j, m in self.edges}

    def label(self, a: int, b: int) -> Optional[int]:
        return self._labels.get((min(a, b), max(a, b)))

    @cached_property
    def _adjacency(self) -> tuple:
        adj = [[] for _ in self.vertices]
        for i, j, _ in sorted(self.edges):
            adj[i].append(j)
            adj[j].append(i)
        return tuple([tuple(sorted(x)) for x in adj])

    def neighbors(self, v: int) -> tuple:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def alphabet(self) -> Alphabet:
        return Alphabet(self.vertices)


def artin_from_graph(g: LabeledGraph) -> Presentation:
    """One relator per edge: the alternating word a_i a_j a_i ... of length m
    times the inverse of its mirror a_j a_i a_j ...; length 2m, cyclically
    reduced.  Labels implying more than ``MAX_WORD_LETTERS`` letters in all
    are refused before any word is built."""
    if sum(2 * m for _, _, m in g.edges) > words.MAX_WORD_LETTERS:
        raise ValueError(f"relators longer than {words.MAX_WORD_LETTERS} letters in total")
    alphabet = g.alphabet()
    # a graph has one edge per vertex pair, so the relators are distinct
    return Presentation(alphabet, tuple([
        alternating_word(alphabet, i, j, m) * alternating_word(alphabet, j, i, m).inverse()
        for i, j, m in sorted(g.edges)]))


def is_extra_large(g: LabeledGraph) -> bool:
    return all(m >= 4 for _, _, m in g.edges)


def _children_lists(parent) -> list:
    """Each vertex's children, in index order."""
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return kids


def _breadth_first(kids, v: int) -> list:
    """v and the vertices below it, parents before children."""
    out = [v]
    for u in out:  # the loop reaches what it appends
        out.extend(kids[u])
    return out


@dataclass(frozen=True)
class RootedTree:
    """A tree whose root has degree exactly 2 and whose labels are all >= 4.

    ``parent[v]`` is v's parent index, -1 for the root.  ``levels`` counts
    vertex levels, the root being level 1.
    """

    graph: LabeledGraph
    root: int
    parent: tuple[int, ...]
    levels: int

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(self.parent))
        g = self.graph
        n = len(g.vertices)
        if not (0 <= self.root < n) or len(self.parent) != n:
            raise ValueError("root or parent table out of shape")
        if self.parent[self.root] != -1:
            raise ValueError("root must have parent -1")
        if len(g.edges) != n - 1:
            raise ValueError("edge count does not match a tree")
        parent_edges = set()
        for v in range(n):
            if v == self.root:
                continue
            p = self.parent[v]
            if not (0 <= p < n):
                raise ValueError(f"vertex {v} has no parent")
            parent_edges.add((min(v, p), max(v, p)))
        if parent_edges != {(i, j) for i, j, _ in g.edges}:
            raise ValueError("parent table disagrees with the edge set")
        kids = tuple([tuple(k) for k in _children_lists(self.parent)])
        object.__setattr__(self, "_children", kids)
        # parent chains reach the root exactly when a walk down from it meets every vertex
        order = _breadth_first(kids, self.root)
        if len(order) != n:
            raise ValueError("parent chains do not reach the root")
        if g.degree(self.root) != 2:
            raise ValueError("root degree must be exactly 2")
        if not is_extra_large(g):
            raise ValueError("tree labels must all be >= 4")
        level = [1] * n
        for v in order[1:]:
            level[v] = level[self.parent[v]] + 1
        deepest = max(level)
        if deepest != self.levels:
            raise ValueError(f"levels field says {self.levels} but depth is {deepest}")

    def children(self, v: int) -> tuple:
        return self._children[v]

    @cached_property
    def _shapes(self) -> tuple:
        """Every vertex's parent-edge label and shape, as two lists, for the move rule."""
        labels = [0] * len(self.parent)
        for v, p in enumerate(self.parent):
            if p >= 0:
                labels[v] = self.graph.label(v, p)
        return labels, _shape_ids(self._children, labels, self.root)

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def subtree(self, v: int) -> tuple:
        return tuple(sorted(_breadth_first(self._children, v)))

    def edge_label(self, a: int, b: int) -> int:
        m = self.graph.label(a, b)
        if m is None:
            raise ValueError(f"no edge between {a} and {b}")
        return m


def sample_tree(levels: int, max_degree: int, label_hi: int, seed: int) -> tuple[list, list]:
    """The raw arrays of ``random_tree``'s tree, drawn in its order: the
    parent array (root 0, its children 1 and 2, then breadth-first) and the
    label of each vertex's parent edge (0 for the root).

    A tree with more than ``MAX_WORD_LETTERS // 8`` edges would have a
    presentation longer than ``MAX_WORD_LETTERS`` letters, since every edge's
    relator has at least 8; the level that would pass that is refused before
    it is built.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    if label_hi < 4:
        raise ValueError("label_hi must be at least 4")
    max_vertices = words.MAX_WORD_LETTERS // 8 + 1
    rng = Random(seed)
    parent = [-1, 0, 0]  # root degree exactly 2
    current = range(1, 3)
    for _ in range(2, levels):
        cap = max_degree - 1  # one slot is taken by the parent edge
        for _ in range(1000):
            counts = [rng.randint(0, cap) for _ in current]
            if any(counts):
                break
        else:
            raise ValueError("could not extend the tree to the requested depth")
        n = len(parent)
        if n + sum(counts) > max_vertices:
            raise ValueError(f"tree would have more than {max_vertices} vertices")
        for v, k in zip(current, counts):
            parent += [v] * k
        current = range(n, len(parent))
    labels = [rng.randint(4, label_hi) if p >= 0 else 0 for p in parent]
    return parent, labels


def build_tree(parent: list, labels: list, levels: int) -> RootedTree:
    """The validated tree of ``sample_tree``'s arrays, vertices named a1, a2, ..."""
    names = tuple([f"a{i + 1}" for i in range(len(parent))])
    edges = frozenset([(p, v, labels[v]) for v, p in enumerate(parent) if p >= 0])
    return RootedTree(LabeledGraph(names, edges), 0, tuple(parent), levels)


def random_tree(levels: int, max_degree: int, label_hi: int = 7, seed: int = 0) -> RootedTree:
    """Seed-deterministic rooted tree: root degree 2, internal degrees at most
    max_degree, vertex levels exactly ``levels``, labels uniform in [4, label_hi].
    Vertices are named a1, a2, ... in breadth-first order."""
    return build_tree(*sample_tree(levels, max_degree, label_hi, seed), levels)


@dataclass(frozen=True)
class SplitPlatform:
    """A rooted tree split at its root into two connected sides.  The tree's
    alphabet, its Artin presentation and both sides' moves with their
    endomorphisms (a move is legal when a side lists it) are built on first
    read.  Only ``cake run``'s printout reads the presentation."""

    tree: RootedTree
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        t = self.tree
        all_verts = set(range(len(t.graph.vertices)))
        a, b = set(self.side_a), set(self.side_b)
        if a & b or a | b | {t.root} != all_verts or t.root in a | b:
            raise ValueError("sides must partition the non-root vertices")

    def side(self, which: str) -> tuple[int, ...]:
        if which == "A":
            return self.side_a
        if which == "B":
            return self.side_b
        raise ValueError(f"side must be 'A' or 'B', not {which!r}")

    @cached_property
    def alphabet(self) -> Alphabet:
        return self.tree.graph.alphabet()

    @cached_property
    def presentation(self) -> Presentation:
        return artin_from_graph(self.tree.graph)

    @cached_property
    def _listed(self) -> tuple[dict, dict]:
        """Both sides' moves and endomorphisms, built in one step: (moves,
        endomorphisms) by the side's vertices, and each move's endomorphism."""
        by_side, by_move = {}, {}
        for which in ("A", "B"):
            moves = enumerate_side_moves(self, which)
            endos = tuple([_move_endo(self, m) for m in moves])
            by_side[self.side(which)] = moves, endos
            by_move.update(zip(moves, endos))
        return by_side, by_move

    def moves(self, which: str) -> tuple[ElementaryMove, ...]:
        """The side's elementary moves."""
        return self._listed[0][self.side(which)][0]

    def move_endos(self, which: str) -> tuple[GroupEndomorphism, ...]:
        """The endomorphisms of ``moves(which)``, in the same order."""
        return self._listed[0][self.side(which)][1]


def split_at_root(t: RootedTree) -> SplitPlatform:
    c1, c2 = t.children(t.root)
    return SplitPlatform(t, t.subtree(c1), t.subtree(c2))


@dataclass(frozen=True)
class GraphMorphism:
    """A total vertex self-map of ``domain`` meant to preserve edges and labels."""

    domain: LabeledGraph
    vertex_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(self.vertex_map))
        n = len(self.domain.vertices)
        if len(self.vertex_map) != n or not all(0 <= v < n for v in self.vertex_map):
            raise ValueError("vertex map must be total on the domain")


def validate_morphism(g: LabeledGraph, vertex_map) -> bool:
    """True iff every edge maps to an edge with the same label and no edge
    collapses to a loop."""
    vm = tuple(vertex_map)
    for i, j, m in g.edges:
        a, b = vm[i], vm[j]
        if a == b:
            return False
        if g.label(a, b) != m:
            return False
    return True


def induced_subgraph(g: LabeledGraph, verts: tuple[int, ...]) -> LabeledGraph:
    """Subgraph on ``verts`` (names kept, indices compacted in given order)."""
    index = {v: k for k, v in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("duplicate vertices")
    edges = frozenset(
        (min(index[i], index[j]), max(index[i], index[j]), m)
        for i, j, m in g.edges
        if i in index and j in index
    )
    return LabeledGraph(tuple(g.vertices[v] for v in verts), edges)


@dataclass(frozen=True)
class GroupEndomorphism:
    """The endomorphism induced by a vertex map: generator g goes to
    generator ``vertex_map[g]``, indices as in the alphabet."""

    alphabet: Alphabet
    vertex_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(self.vertex_map))
        n = len(self.alphabet.names)
        if len(self.vertex_map) != n or not all(0 <= v < n for v in self.vertex_map):
            raise ValueError("vertex map must send each generator to a generator")

    @property
    def moved(self) -> frozenset:
        """Generators whose image is not themselves."""
        return frozenset(g for g, v in enumerate(self.vertex_map) if v != g)


def identity_endo(alphabet: Alphabet) -> GroupEndomorphism:
    return GroupEndomorphism(alphabet, tuple(range(len(alphabet.names))))


def apply_endo(w: Word, e: GroupEndomorphism) -> Word:
    """Rename every letter, then reduce: merged generators can cancel."""
    if w.alphabet != e.alphabet:
        raise ValueError("alphabet mismatch")
    vm = e.vertex_map
    return from_codes(e.alphabet, [2 * vm[c >> 1] + (c & 1) for c in w.codes])


def compose(e1: GroupEndomorphism, e2: GroupEndomorphism) -> GroupEndomorphism:
    """e1 after e2: apply_endo(w, compose(e1, e2)) = apply_endo(apply_endo(w, e2), e1)."""
    if e1.alphabet != e2.alphabet:
        raise ValueError("alphabet mismatch")
    vm1 = e1.vertex_map
    return GroupEndomorphism(e1.alphabet, tuple([vm1[v] for v in e2.vertex_map]))


def endos_commute(e1: GroupEndomorphism, e2: GroupEndomorphism) -> bool:
    """Distinct generators are distinct elements, so two vertex-map
    endomorphisms commute exactly when their composites are equal maps."""
    return compose(e1, e2) == compose(e2, e1)


def induce_endomorphism(platform: SplitPlatform, side: str, morphism: GraphMorphism) -> GroupEndomorphism:
    """Extend a side-subtree self-map to the whole group: the chosen side's
    generators move per the morphism, the root and the other side stay fixed.

    Certification: the extended map must keep every tree edge and its label.
    The only edge beyond the side's own is the root edge; a map that moves
    the side's top vertex sends its relator to a non-trivial element of a
    free parabolic subgroup (van der Lek 1983), so no endomorphism is lost.
    """
    side_verts = platform.side(side)
    expected = induced_subgraph(platform.tree.graph, side_verts)
    if morphism.domain != expected:
        raise ValueError("morphism domain must be the chosen side's subtree")
    full_map = list(range(len(platform.tree.graph.vertices)))
    for local, v in enumerate(side_verts):
        full_map[v] = side_verts[morphism.vertex_map[local]]
    if not validate_morphism(platform.tree.graph, full_map):
        raise ValueError("vertex map is not label- and edge-preserving")
    return GroupEndomorphism(platform.alphabet, full_map)


@dataclass(frozen=True)
class ElementaryMove:
    """Either merge leaf a onto leaf b (same parent, equal edge labels) or
    swap the label-isomorphic sibling subtrees rooted at a and b."""

    kind: str  # "merge" | "swap"
    a: int
    b: int

    def __post_init__(self):
        if self.kind not in ("merge", "swap"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.a == self.b:
            raise ValueError("move endpoints must differ")
        if self.kind == "swap":  # an unordered pair: swap 4 3 is swap 3 4
            lo, hi = sorted((self.a, self.b))
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)


def _shape_ids(kids, labels: list, root: int) -> list:
    """Every vertex's shape, computed bottom-up: two vertices share a shape
    exactly when their subtrees are isomorphic by a map that keeps edge
    labels.  Leaves have shape 0; an inner vertex's shape numbers the sorted
    list of its children's (parent-edge label, shape) pairs, each pair coded
    as label * n + shape for n vertices (there are fewer than n shapes)."""
    n = len(labels)
    shape = [0] * n
    ids: dict = {}
    for v in reversed(_breadth_first(kids, root)):
        if kids[v]:
            key = tuple(sorted([labels[c] * n + shape[c] for c in kids[v]]))
            shape[v] = ids.setdefault(key, len(ids) + 1)
    return shape


def _sibling_pairs(kids, labels: list, shape: list, parents):
    """The move rule: children x < y of one of ``parents`` whose parent edges
    carry one label and whose subtrees have one shape.  Each pair is a swap,
    and two merges when x and y are leaves; a side whose vertices have no
    such pair admits no elementary move."""
    for p in parents:
        ks = kids[p]
        for i in range(1, len(ks)):
            y = ks[i]
            for x in ks[:i]:
                if labels[x] == labels[y] and shape[x] == shape[y]:
                    yield x, y


def both_sides_move(parent: list, labels: list) -> bool:
    """Whether each side of ``sample_tree``'s arrays admits an elementary
    move, decided by the move rule before any tree is built."""
    kids = _children_lists(parent)
    shape = _shape_ids(kids, labels, 0)
    return all(next(_sibling_pairs(kids, labels, shape, _breadth_first(kids, top)), None)
               for top in (1, 2))


def enumerate_side_moves(platform: SplitPlatform, side: str) -> tuple[ElementaryMove, ...]:
    """Every legal elementary move whose support lies in the chosen side."""
    t = platform.tree
    labels, shape = t._shapes
    moves = []
    for x, y in _sibling_pairs(t._children, labels, shape, platform.side(side)):
        moves.append(ElementaryMove("swap", x, y))
        if not shape[x]:
            moves += [ElementaryMove("merge", x, y), ElementaryMove("merge", y, x)]
    return tuple(sorted(moves, key=lambda m: (m.kind, m.a, m.b)))


def _pair_subtrees(tree: RootedTree, a: int, b: int, out: list) -> None:
    out[a], out[b] = b, a
    labels, shape = tree._shapes
    key = lambda c: (labels[c], shape[c], tree.graph.vertices[c])
    for ca, cb in zip(sorted(tree.children(a), key=key), sorted(tree.children(b), key=key)):
        _pair_subtrees(tree, ca, cb, out)


def _move_endo(platform: SplitPlatform, move: ElementaryMove) -> GroupEndomorphism:
    """The vertex map of a listed move: a merge sends a to b, and a swap
    exchanges the two subtrees vertex for vertex."""
    vmap = list(range(len(platform.tree.parent)))
    if move.kind == "merge":
        vmap[move.a] = move.b
    else:
        _pair_subtrees(platform.tree, move.a, move.b, vmap)
    return GroupEndomorphism(platform.alphabet, vmap)


def move_endomorphism(platform: SplitPlatform, move: ElementaryMove) -> GroupEndomorphism:
    """The endomorphism a side of the platform lists for the move; a move no
    side lists (out of range, across the root, against the rule) is refused."""
    endo = platform._listed[1].get(move)
    if endo is None:
        raise ValueError(f"{move.kind} {move.a} {move.b} is not an elementary move of either side")
    return endo


def random_endo(platform: SplitPlatform, side: str, seed: int) -> GroupEndomorphism:
    """Compose one to three of the side's listed move endomorphisms at random;
    guaranteed to move some side generator whenever the side has any legal
    move.  With no legal moves it warns and returns the identity."""
    endos = platform.move_endos(side)
    alphabet = platform.alphabet
    if not endos:
        warnings.warn(f"side {side} has no legal elementary moves; returning identity")
        return identity_endo(alphabet)
    rng = Random(seed)
    side_set = frozenset(platform.side(side))
    for _ in range(64):
        k = rng.randint(1, 3)
        endo = identity_endo(alphabet)
        for _ in range(k):
            endo = compose(rng.choice(endos), endo)
        if endo.moved & side_set:
            return endo
    return endos[0]  # single moves never fix the whole side


# -- tree text format ------------------------------------------------------

def format_tree(t: RootedTree) -> str:
    names = t.graph.vertices
    lines = [f"root: {names[t.root]}"]
    for v in _breadth_first(t._children, t.root):
        lines.extend([f"edge: {names[v]} {names[c]} {t.edge_label(v, c)}" for c in t.children(v)])
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> RootedTree:
    root_name = None
    index: dict[str, int] = {}  # vertex name -> index, in order of appearance
    edges = set()

    def root_line(rest: str) -> None:
        nonlocal root_name
        if root_name is not None:
            raise ValueError("duplicate root line")
        root_name = rest
        index.setdefault(rest, len(index))

    def edge_line(rest: str) -> None:
        parts = rest.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line {rest!r}")
        a = index.setdefault(parts[0], len(index))
        b = index.setdefault(parts[1], len(index))
        edges.add((min(a, b), max(a, b), int(parts[2])))

    read_records(text, {"root": root_line, "edge": edge_line})
    if root_name is None:
        raise ValueError("missing root line")
    graph = LabeledGraph(tuple(index), frozenset(edges))
    root = index[root_name]
    parent = [-1] * len(index)
    level = [0] * len(index)
    level[root] = 1
    queue = [root]
    for v in queue:  # breadth-first; the loop reaches what it appends
        for u in graph.neighbors(v):
            if not level[u]:
                parent[u] = v
                level[u] = level[v] + 1
                queue.append(u)
    if not all(level):
        raise ValueError("tree file is not connected")
    return RootedTree(graph, root, tuple(parent), max(level))
