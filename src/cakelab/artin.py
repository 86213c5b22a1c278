"""Labeled graphs, rooted trees, Artin presentations, and the endomorphisms
of the elementary moves on each side of a split tree.

A labeled graph stands for the group with one relator per edge equating the
two alternating words of the edge's length.  Trees whose labels all sit at 4
or above ("extra large") split at a degree-2 root into two disjoint sides;
the moves of one side induce group endomorphisms that commute with those of
the other side, which is what the key exchange runs on.
Each such endomorphism sends every generator to a generator, so it is held
as its vertex map and applied by renaming letters: it needs the alphabet,
never the relators.
"""

from __future__ import annotations

import warnings
from functools import cached_property, lru_cache
from random import Random
from typing import Iterable, Optional

from . import words
from .presentations import Presentation, alternating_word
from .words import Alphabet, Records, Word, _alphabet, _below, _below_each, _Record, from_codes

__all__ = [
    "LabeledGraph",
    "RootedTree",
    "GroupEndomorphism",
    "SplitPlatform",
    "ElementaryMove",
    "artin_from_graph",
    "braid_presentation",
    "is_extra_large",
    "random_tree",
    "split_at_root",
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


class LabeledGraph(_Record):
    """Vertices are generator names; an edge (i, j, m) relates them with
    alternating words of length m >= 2.  No loops, no multiple edges: the
    edges are checked when the graph is built, and ``RootedTree``'s walk is
    the one reader of their adjacency."""

    vertices: tuple[str, ...]
    edges: frozenset

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple]):
        vertices, edges = tuple(vertices), frozenset(edges)
        n = len(vertices)
        if len(set(vertices)) != n:
            raise ValueError("duplicate vertex names")
        labels: dict[tuple, int] = {}
        for i, j, m in edges:
            _add_edge(labels, i, j, m, n)
        vars(self).update(vertices=vertices, edges=edges)

    @cached_property
    def alphabet(self) -> Alphabet:  # its names are checked on first read
        return Alphabet(self.vertices)


def _add_edge(labels: dict, i: int, j: int, m: int, n: int, shown=None) -> None:
    """Label ``(i, j)`` with ``m``, refusing a loop, endpoints out of order or
    outside ``range(n)``, a label below 2, and a second edge on one pair.
    Errors name the endpoints as ``shown``, by default their indices."""
    a, b = shown or (i, j)
    if not (0 <= i < j < n):
        raise ValueError(f"bad edge endpoints ({a}, {b})")
    if m < 2:
        raise ValueError(f"edge label {m} below 2")
    if (i, j) in labels:
        raise ValueError(f"multiple edges between {a} and {b}")
    labels[i, j] = m


def artin_from_graph(g: LabeledGraph) -> Presentation:
    """One relator per edge: the alternating word a_i a_j a_i ... of length m
    times the inverse of its mirror a_j a_i a_j ...; length 2m, cyclically
    reduced.  Labels implying more than ``MAX_WORD_LETTERS`` letters in all
    are refused before any word is built."""
    if sum(2 * m for _, _, m in g.edges) > words.MAX_WORD_LETTERS:
        raise ValueError(f"relators longer than {words.MAX_WORD_LETTERS} letters in total")
    alphabet = g.alphabet
    # a graph has one edge per vertex pair, so the relators are distinct
    return Presentation(alphabet, tuple([
        alternating_word(alphabet, i, j, m) * alternating_word(alphabet, j, i, m).inverse()
        for i, j, m in sorted(g.edges)]))


def braid_presentation(n: int) -> Presentation:
    """The braid group on n strands: the Artin group of the complete graph
    on s1..s(n-1), label 3 on adjacent generators (s_i s_j s_i = s_j s_i s_j)
    and 2 on distant ones, which commute."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    return artin_from_graph(LabeledGraph(
        tuple(f"s{i}" for i in range(1, n)),
        [(i, j, 3 if j - i == 1 else 2) for i in range(n - 1) for j in range(i + 1, n - 1)]))


def is_extra_large(g: LabeledGraph) -> bool:
    return all(m >= 4 for _, _, m in g.edges)


def _children_lists(parent) -> tuple:
    """Each vertex's children, in index order."""
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return tuple([tuple(k) for k in kids])


def _breadth_first(kids, v: int) -> list:
    """v and the vertices below it, parents before children."""
    out = [v]
    for u in out:  # the loop reaches what it appends
        out.extend(kids[u])
    return out


class RootedTree(_Record):
    """A tree whose root has degree exactly 2 and whose labels are all >= 4.
    Built from a graph and a root, it is checked, and one breadth-first walk
    from the root derives ``parent`` (-1 at the root), the children in index
    order, every vertex's parent-edge label (0 at the root) and its shape,
    for the move rule; ``build_tree`` sets the same fields from the sampler's
    arrays, which need no check and no walk."""

    graph: LabeledGraph
    root: int

    def __init__(self, graph: LabeledGraph, root: int):
        n = len(graph.vertices)
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        if len(graph.edges) != n - 1:
            raise ValueError("edge count does not match a tree")
        adjacent = [[] for _ in range(n)]  # (neighbour, label), neighbours ascending
        for i, j, m in sorted(graph.edges):
            adjacent[i].append((j, m))
            adjacent[j].append((i, m))
        parent, level, label = [-1] * n, [0] * n, [0] * n  # a vertex's level marks it visited
        level[root] = 1
        order = [root]
        for v in order:  # the loop reaches what it appends
            for u, m in adjacent[v]:
                if not level[u]:  # each vertex is met once, so a cycle cannot loop the walk
                    parent[u], level[u], label[u] = v, level[v] + 1, m
                    order.append(u)
        if len(order) != n:  # n - 1 edges that reach every vertex make a tree
            raise ValueError("tree is not connected")
        if len(adjacent[root]) != 2:
            raise ValueError("root degree must be exactly 2")
        if not is_extra_large(graph):
            raise ValueError("tree labels must all be >= 4")
        # order is the walk over the children in index order, parents first
        vars(self).update(graph=graph, root=root, parent=tuple(parent),
                          _children=_children_lists(parent), _edge_labels=tuple(label),
                          _shapes=_shape_ids(parent, label, order)[0])

    def children(self, v: int) -> tuple:
        return self._children[v]


def sample_tree(levels: int, max_degree: int, label_hi: int, seed: int) -> tuple[list, list]:
    """The raw arrays of ``random_tree``'s tree, drawn from one seeded stream
    in two stages: ``draw_counts`` gives the parent array (root 0, its
    children 1 and 2, then breadth-first), and ``draw_labels`` the label of
    each vertex's parent edge (0 for the root).

    A tree with more than ``MAX_WORD_LETTERS // 8`` edges would have a
    presentation longer than ``MAX_WORD_LETTERS`` letters, since every edge's
    relator has at least 8; the level that would pass that is refused before
    it is built.
    """
    _check_sample(levels, max_degree, label_hi)
    bits = Random(seed).getrandbits
    parent = draw_counts(bits, levels, max_degree)
    return parent, draw_labels(bits, len(parent), label_hi)


def _check_sample(levels: int, max_degree: int, label_hi: int) -> None:
    """Refuse what ``sample_tree`` cannot draw, before any draw."""
    if levels < 2:
        raise ValueError("need at least 2 levels")
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    if label_hi < 4:  # an empty label range would redraw forever
        raise ValueError("label_hi must be at least 4")


def draw_counts(bits, levels: int, max_degree: int) -> list:
    """``sample_tree``'s first stage: each level's child counts, drawn from
    ``bits`` (a ``getrandbits``) in one call per try until the level is not
    empty, as the parent array.  A vertex's children stand next to each
    other in it, after their parent."""
    max_vertices = words.MAX_WORD_LETTERS // 8 + 1
    parent = [-1, 0, 0]  # root degree exactly 2
    current = range(1, 3)
    for _ in range(2, levels):
        for _ in range(1000):
            # 0 to max_degree - 1 children: one slot is taken by the parent edge
            counts = _below_each(bits, max_degree, len(current))
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
    return parent


def draw_labels(bits, size: int, label_hi: int) -> list:
    """``sample_tree``'s second stage: the parent-edge label of each of
    ``size`` vertices, uniform in [4, label_hi], and 0 for the root."""
    return [0, *map((4).__add__, _below_each(bits, label_hi - 3, size - 1))]


@lru_cache(maxsize=256)
def _tree_alphabet(n: int) -> Alphabet:
    """The alphabet a1, a2, ..., an, one shared per vertex count: its names
    are valid and distinct by construction, so none is checked."""
    return _alphabet(tuple([f"a{i}" for i in range(1, n + 1)]))


def build_tree(parent: list, labels: list, shapes: list) -> RootedTree:
    """The tree of ``sample_tree``'s arrays, rooted at vertex 0 and with
    vertices named a1, a2, ...  The arrays are a tree by construction, in
    breadth-first order, with a root of degree 2 and labels of 4 or more, so
    the tree is built from them with no edge check, walk or name check.  It
    keeps the label array and ``shapes``, every vertex's shape as
    ``_shape_ids`` numbers it up the arrays (``both_sides_move`` returns
    them), and sets every field the checked constructor sets."""
    n, alphabet = len(parent), _tree_alphabet(len(parent))
    graph = object.__new__(LabeledGraph)
    vars(graph).update(vertices=alphabet.names, alphabet=alphabet,
                       edges=frozenset(zip(parent[1:], range(1, n), labels[1:])))
    t = object.__new__(RootedTree)
    vars(t).update(graph=graph, root=0, parent=tuple(parent),
                   _children=_children_lists(parent), _edge_labels=tuple(labels), _shapes=shapes)
    return t


def random_tree(levels: int, max_degree: int, label_hi: int = 7, seed: int = 0) -> RootedTree:
    """Seed-deterministic rooted tree: root degree 2, internal degrees at most
    max_degree, vertex levels exactly ``levels``, labels uniform in [4, label_hi].
    Vertices are named a1, a2, ... in breadth-first order.  It is built from
    ``sample_tree``'s arrays and their shapes by ``build_tree``."""
    parent, labels = sample_tree(levels, max_degree, label_hi, seed)
    return build_tree(parent, labels, _shape_ids(parent, labels, range(len(parent)))[0])


class SplitPlatform(_Record):
    """A rooted tree split at its root into two connected sides: ``side_a``
    and ``side_b`` are the subtrees of the root's two children.  The tree's
    alphabet, its Artin presentation and both sides' moves with their
    endomorphisms (a move is legal when a side lists it) are built on first
    read.  Only ``cake run``'s printout reads the presentation."""

    tree: RootedTree

    def __init__(self, tree: RootedTree):
        side_a, side_b = [tuple(sorted(_breadth_first(tree._children, c))) for c in tree.children(tree.root)]
        vars(self).update(tree=tree, side_a=side_a, side_b=side_b)

    def side(self, which: str) -> tuple[int, ...]:
        if which == "A":
            return self.side_a
        if which == "B":
            return self.side_b
        raise ValueError(f"side must be 'A' or 'B', not {which!r}")

    @cached_property
    def alphabet(self) -> Alphabet:
        return self.tree.graph.alphabet

    @cached_property
    def presentation(self) -> Presentation:
        return artin_from_graph(self.tree.graph)

    @cached_property
    def _listed(self) -> dict[str, tuple]:
        """Both sides' (moves, endomorphisms), built in one step, by side letter."""
        listed = {}
        for which in ("A", "B"):
            moves = enumerate_side_moves(self, which)
            listed[which] = moves, tuple([_move_endo(self, m) for m in moves])
        return listed

    def moves(self, which: str) -> tuple[ElementaryMove, ...]:
        """The side's elementary moves."""
        self.side(which)  # refuses a letter other than A or B
        return self._listed[which][0]

    def move_endos(self, which: str) -> tuple[GroupEndomorphism, ...]:
        """The endomorphisms of ``moves(which)``, in the same order."""
        self.side(which)
        return self._listed[which][1]


def split_at_root(t: RootedTree) -> SplitPlatform:
    return SplitPlatform(t)


class GroupEndomorphism(_Record):
    """The endomorphism induced by a vertex map: generator g goes to
    generator ``vertex_map[g]``, a tuple of indices into the alphabet.  Every
    map is made in this module, from a listed move or by composing such
    maps, so the map is not checked again."""

    alphabet: Alphabet
    vertex_map: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, vertex_map: tuple[int, ...]):
        vars(self).update(alphabet=alphabet, vertex_map=vertex_map)

    @property
    def moved(self) -> frozenset:
        """Generators whose image is not themselves."""
        return frozenset([g for g, v in enumerate(self.vertex_map) if v != g])


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


class ElementaryMove(_Record):
    """Either merge leaf a onto leaf b (same parent, equal edge labels) or
    swap the label-isomorphic sibling subtrees rooted at a and b."""

    kind: str  # "merge" | "swap"
    a: int
    b: int

    def __init__(self, kind: str, a: int, b: int):
        if kind not in ("merge", "swap"):
            raise ValueError(f"unknown move kind {kind!r}")
        if a == b:
            raise ValueError("move endpoints must differ")
        if kind == "swap" and a > b:  # an unordered pair: swap 4 3 is swap 3 4
            a, b = b, a
        vars(self).update(kind=kind, a=a, b=b)


def _shape_ids(parent, labels, order) -> tuple[list, list]:
    """Every vertex's shape, and whether the move rule pairs two children of
    some vertex in its subtree, computed in one pass up ``order``, which
    lists every parent before its children.  Two vertices share a shape
    exactly when their subtrees are isomorphic by a map that keeps edge
    labels.  Leaves have shape 0; an inner vertex's shape numbers the sorted
    list of its children's (parent-edge label, shape) pairs, each pair coded
    as label * n + shape for n vertices (there are fewer than n shapes), so
    two children carry one label and one shape when their codes are equal."""
    n = len(parent)
    codes = [[] for _ in parent]
    shape, paired = [0] * n, [False] * n
    ids: dict = {}
    for v in reversed(order):
        below = codes[v]
        if below:
            below.sort()
            shape[v] = ids.setdefault(tuple(below), len(ids) + 1)
            if len(set(below)) < len(below):
                paired[v] = True
        p = parent[v]
        if p >= 0:
            codes[p].append(labels[v] * n + shape[v])
            if paired[v]:
                paired[p] = True
    return shape, paired


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


def branching_sides(parent: list) -> set:
    """The tops (1 and 2) of the sides of a ``draw_counts`` parent array that
    hold a vertex with two children, found before any label is drawn.  The
    array lists a vertex's children next to each other, so such a vertex is
    the parent of two neighbouring entries.  The move rule pairs only
    siblings, so a side that is missing here admits no elementary move."""
    side = [0, 1, 2]
    found = set()
    for v in range(3, len(parent)):
        p = parent[v]
        side.append(side[p])
        if p == parent[v - 1]:  # parent[2] is the root, which no v >= 3 has
            found.add(side[p])
    return found


def both_sides_move(parent: list, labels: list) -> Optional[list]:
    """Whether each side of ``sample_tree``'s arrays admits an elementary
    move, decided by the move rule before any tree is built, in one pass up
    the arrays: None when a side does not, and otherwise every vertex's
    shape, for ``build_tree`` to keep.  The arrays list every parent before
    its children, and the sides are the subtrees of vertices 1 and 2.
    ``setup`` sends only the draws that ``branching_sides`` passed, so most
    of what it refuses never draws its labels."""
    shape, paired = _shape_ids(parent, labels, range(len(parent)))
    return shape if paired[1] and paired[2] else None


def enumerate_side_moves(platform: SplitPlatform, side: str) -> tuple[ElementaryMove, ...]:
    """Every legal elementary move whose support lies in the chosen side,
    ordered by kind, then endpoints: each sibling pair x < y is a swap, and
    two merges when x and y are leaves."""
    t = platform.tree
    shape = t._shapes
    pairs = sorted(_sibling_pairs(t._children, t._edge_labels, shape, platform.side(side)))
    merges = sorted([m for x, y in pairs if not shape[x] for m in ((x, y), (y, x))])
    return tuple([ElementaryMove("merge", a, b) for a, b in merges]
                 + [ElementaryMove("swap", x, y) for x, y in pairs])


def _pair_subtrees(kids, key, a: int, b: int, out: list) -> None:
    out[a], out[b] = b, a
    for ca, cb in zip(sorted(kids[a], key=key), sorted(kids[b], key=key)):
        _pair_subtrees(kids, key, ca, cb, out)


def _move_endo(platform: SplitPlatform, move: ElementaryMove) -> GroupEndomorphism:
    """The vertex map of a listed move: a merge sends a to b, and a swap
    exchanges the two subtrees vertex for vertex, pairing children by label,
    shape and name."""
    t = platform.tree
    vmap = list(range(len(t.parent)))
    if move.kind == "merge":
        vmap[move.a] = move.b
    else:
        labels, shape, names = t._edge_labels, t._shapes, t.graph.vertices
        _pair_subtrees(t._children, lambda c: (labels[c], shape[c], names[c]), move.a, move.b, vmap)
    return GroupEndomorphism(platform.alphabet, tuple(vmap))


def move_endomorphism(platform: SplitPlatform, move: ElementaryMove) -> GroupEndomorphism:
    """The endomorphism a side of the platform lists for the move; a move no
    side lists (out of range, across the root, against the rule) is refused."""
    for moves, endos in platform._listed.values():
        if move in moves:
            return endos[moves.index(move)]
    raise ValueError(f"{move.kind} {move.a} {move.b} is not an elementary move of either side")


def random_endo(platform: SplitPlatform, side: str, seed: int) -> GroupEndomorphism:
    """Compose one to three of the side's listed move endomorphisms at random;
    guaranteed to move some side generator whenever the side has any legal
    move.  With no legal moves it warns and returns the identity."""
    endos = platform.move_endos(side)
    if not endos:
        warnings.warn(f"side {side} has no legal elementary moves; returning identity")
        return identity_endo(platform.alphabet)
    bits = Random(seed).getrandbits
    for _ in range(64):
        k = 1 + _below(bits, 3)
        endo = endos[_below(bits, len(endos))]
        for _ in range(k - 1):
            endo = compose(endos[_below(bits, len(endos))], endo)
        if endo.moved:  # listed moves and their composites move only the side's generators
            return endo
    return endos[0]  # single moves never fix the whole side


# -- tree text format ------------------------------------------------------

def format_tree(t: RootedTree) -> str:
    names, labels, kids = t.graph.vertices, t._edge_labels, t._children
    lines = [f"root: {names[t.root]}"]
    for v in _breadth_first(kids, t.root):
        lines += [f"edge: {names[v]} {names[c]} {labels[c]}" for c in kids[v]]
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> RootedTree:
    """Inverse of format_tree.  Vertices are numbered in order of appearance,
    and each edge is checked on its line."""
    rec = Records(text)
    index: dict[str, int] = {}  # vertex name -> index
    labels: dict[tuple, int] = {}  # (i, j) with i < j -> label

    def edge_line(rest: str) -> None:
        parts = rest.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line {rest!r}")
        if "root" in rec.once:  # the root is numbered where its line stands
            index.setdefault(rec.once["root"], len(index))
        (i, a), (j, b) = sorted((index.setdefault(name, len(index)), name) for name in parts[:2])
        _add_edge(labels, i, j, int(parts[2]), len(index), (a, b))

    rec.read({"root": None, "edge": edge_line})
    if "root" not in rec.once:
        raise ValueError("missing root line")
    root = index.setdefault(rec.once["root"], len(index))
    graph = LabeledGraph(tuple(index), frozenset((i, j, m) for (i, j), m in labels.items()))
    return RootedTree(graph, root)
