"""Labeled trees, elementary moves and their endomorphisms."""

import random
import warnings

import pytest

import cakelab.artin
import cakelab.words
from cakelab.artin import (
    ElementaryMove,
    GroupEndomorphism,
    LabeledGraph,
    RootedTree,
    apply_endo,
    artin_from_graph,
    both_sides_move,
    build_tree,
    compose,
    endos_commute,
    enumerate_side_moves,
    format_tree,
    identity_endo,
    is_extra_large,
    move_endomorphism,
    parse_tree,
    random_endo,
    random_tree,
    sample_tree,
    split_at_root,
)
from cakelab.cake import setup
from cakelab.presentations import alternating_word, symmetrize
from cakelab.words import Alphabet, Letter, Word, from_codes, parse_word


def small_tree():
    """Fixed 5-vertex tree: root r with children u, v; u has leaves p, q
    whose parent edges carry the same label so p/q can merge or swap."""
    g = LabeledGraph(("r", "u", "v", "p", "q"),
                     frozenset({(0, 1, 4), (0, 2, 5), (1, 3, 6), (1, 4, 6)}))
    return RootedTree(g, 0)


# ----------------------------------------------------------------- graphs

def test_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph(("a", "a"), frozenset())
    with pytest.raises(ValueError):
        LabeledGraph(("a", "b"), frozenset({(1, 0, 4)}))
    with pytest.raises(ValueError):
        LabeledGraph(("a", "b"), frozenset({(0, 1, 1)}))


def test_artin_relators_are_alternating():
    g = LabeledGraph(("a", "b", "c"), frozenset({(0, 1, 3), (1, 2, 2)}))
    p = artin_from_graph(g)
    assert p.alphabet.names == ("a", "b", "c")
    alpha = p.alphabet
    expect = {
        str(alternating_word(alpha, 0, 1, 3) * ~alternating_word(alpha, 1, 0, 3)),
        str(alternating_word(alpha, 1, 2, 2) * ~alternating_word(alpha, 2, 1, 2)),
    }
    assert {str(r) for r in p.relators} == expect
    for r in p.relators:
        assert r.is_cyclically_reduced


def test_is_extra_large():
    assert is_extra_large(LabeledGraph(("a", "b"), frozenset({(0, 1, 4)})))
    assert not is_extra_large(LabeledGraph(("a", "b"), frozenset({(0, 1, 3)})))


# ------------------------------------------------------------------ trees

def depth(t):
    """t's number of levels, the root being level 1, from its parent table:
    each vertex's chain is walked up only to the first vertex with a level."""
    level = [0] * len(t.parent)
    level[t.root] = 1
    for v in range(len(level)):
        chain = []
        while not level[v]:
            chain.append(v)
            v = t.parent[v]
        for u in reversed(chain):
            level[u] = level[v] + 1
            v = u
    return max(level)


def labels_at(graph):
    """Each vertex's neighbours, mapped to the labels of their edges, read
    from ``graph.edges`` alone, so the references here stay independent of
    the tree's own walk."""
    at = [{} for _ in graph.vertices]
    for i, j, m in graph.edges:
        at[i][j] = at[j][i] = m
    return at


def test_tree_validation_rejects_bad_root_degree():
    g = LabeledGraph(("r", "u", "v", "w"),
                     frozenset({(0, 1, 4), (0, 2, 4), (0, 3, 4)}))
    with pytest.raises(ValueError):
        RootedTree(g, 0)


def test_tree_validation_rejects_small_labels():
    g = LabeledGraph(("r", "u", "v"), frozenset({(0, 1, 3), (0, 2, 4)}))
    with pytest.raises(ValueError):
        RootedTree(g, 0)


def test_tree_validation_rejects_wrong_levels():
    g = LabeledGraph(("r", "u", "v"), frozenset({(0, 1, 4), (0, 2, 4)}))
    t = RootedTree(g, 0)
    assert depth(t) == 2


def test_tree_validation_rejects_cyclic_parent_table():
    # n - 1 edges, but a triangle apart from the root: the walk from r never
    # meets w, x or y, and a walk from the triangle closes on what it has met
    g = LabeledGraph(("r", "u", "v", "w", "x", "y"),
                     frozenset({(0, 1, 4), (0, 2, 4), (3, 4, 4), (4, 5, 4), (3, 5, 4)}))
    for root in (0, 3):
        with pytest.raises(ValueError, match="^tree is not connected$"):
            RootedTree(g, root)
    with pytest.raises(ValueError, match="^tree is not connected$"):
        parse_tree("root: r\nedge: r u 4\nedge: r v 4\nedge: w x 4\nedge: x y 4\nedge: w y 4\n")


def test_tree_rejects_a_root_out_of_range():
    g = LabeledGraph(("r", "u", "v"), frozenset({(0, 1, 4), (0, 2, 4)}))
    for root in (-1, 3):
        with pytest.raises(ValueError, match=f"^root {root} out of range$"):
            RootedTree(g, root)


def test_build_tree_derives_the_sampled_parent_and_levels():
    # the sampler's arrays are the reference, over 200 seeds and a deep thin tree
    cases = [(2 + seed % 6, 2 + seed % 3, seed) for seed in range(200)] + [(5_000, 2, 1)]
    for levels, max_degree, seed in cases:
        parent, labels = sample_tree(levels, max_degree, 7, seed)
        t = random_tree(levels, max_degree, 7, seed)
        assert t.parent == tuple(parent) and depth(t) == levels, seed
        # children in ascending index order
        kids = [[] for _ in parent]
        for v, p in enumerate(parent[1:], 1):
            kids[p].append(v)
        assert all(t.children(v) == tuple(k) for v, k in enumerate(kids)), seed


def checked_tree(parent, labels):
    """The tree of the sampler's arrays through the checked constructor."""
    names = tuple(f"a{v + 1}" for v in range(len(parent)))
    edges = frozenset((p, v, labels[v]) for v, p in enumerate(parent) if p >= 0)
    return RootedTree(LabeledGraph(names, edges), 0)


@pytest.mark.parametrize("levels", [3, 4, 5, 6])
def test_array_built_trees_equal_checked_trees(levels):
    # build_tree sets from the arrays what the checked constructor derives
    # by its walk, and setup's tree keeps the shapes both_sides_move computed:
    # each must equal the checked tree and list the same moves and maps
    kept = 0
    for seed in range(200):
        max_degree, label_hi = 3 + seed % 3, 4 + seed % 5
        parent, labels = sample_tree(levels, max_degree, label_hi, seed)
        reference = checked_tree(parent, labels)
        ref_plat = split_at_root(reference)
        shapes = both_sides_move(parent, labels)
        moves_both = all(side_moves_reference(ref_plat, side) for side in ("A", "B"))
        assert (shapes is not None) == moves_both, seed
        kept += moves_both
        built = [random_tree(levels, max_degree, label_hi, seed)] + \
            ([build_tree(parent, labels, shapes)] if shapes else [])
        for t in built:
            assert t == reference, seed
            assert (t.parent, depth(t)) == (reference.parent, depth(reference)), seed
            assert [t.children(v) for v in range(len(parent))] == \
                [reference.children(v) for v in range(len(parent))], seed
            assert t._edge_labels == reference._edge_labels == tuple(labels), seed
            assert t._shapes == reference._shapes, seed
            assert format_tree(t) == format_tree(reference), seed
            plat = split_at_root(t)
            assert (plat.side_a, plat.side_b) == (ref_plat.side_a, ref_plat.side_b), seed
            for side in ("A", "B"):
                assert plat.moves(side) == ref_plat.moves(side) == side_moves_reference(ref_plat, side)
                assert plat.move_endos(side) == ref_plat.move_endos(side), seed
    assert 10 < kept < 190


@pytest.mark.parametrize("levels", [3, 4, 5, 6])
def test_checked_trees_under_any_numbering_equal_array_built_trees(levels):
    # the sampler's tree with its vertices renumbered at random, the root
    # away from 0, must be the array-built tree under that renumbering;
    # shape ids follow the walk order, so shapes compare as partitions
    rng, listed = random.Random(levels), 0
    for seed in range(200):
        max_degree, label_hi = 3 + seed % 3, 4 + seed % 5
        parent, labels = sample_tree(levels, max_degree, label_hi, seed)
        n = len(parent)
        to = list(range(n))
        while to[0] == 0:
            rng.shuffle(to)
        names = [""] * n
        for v in range(n):
            names[to[v]] = f"a{v + 1}"  # each vertex keeps its name, which breaks swap ties
        edges = frozenset((min(to[p], to[v]), max(to[p], to[v]), labels[v])
                          for v, p in enumerate(parent) if p >= 0)
        t = RootedTree(LabeledGraph(tuple(names), edges), to[0])
        built = random_tree(levels, max_degree, label_hi, seed)
        assert [t.parent[to[v]] for v in range(n)] == [-1] + [to[p] for p in parent[1:]], seed
        assert depth(t) == depth(built) == levels, seed
        assert [t._edge_labels[to[v]] for v in range(n)] == labels, seed
        same = {(built._shapes[v], t._shapes[to[v]]) for v in range(n)}
        assert len(same) == len(set(built._shapes)) == len(set(t._shapes)), seed

        def mapped(e):
            out = [0] * n
            for v, w in enumerate(e.vertex_map):
                out[to[v]] = to[w]
            return tuple(out)

        plat, ref_plat = split_at_root(t), split_at_root(built)
        for side, ref_side in zip(("A", "B"), ("A", "B") if to[1] < to[2] else ("B", "A")):
            assert plat.side(side) == tuple(sorted(to[v] for v in ref_plat.side(ref_side))), seed
            moves = dict(zip(plat.moves(side), plat.move_endos(side)))
            ref_moves = {ElementaryMove(m.kind, to[m.a], to[m.b]): mapped(e)
                         for m, e in zip(ref_plat.moves(ref_side), ref_plat.move_endos(ref_side))}
            assert {m: e.vertex_map for m, e in moves.items()} == ref_moves, seed
            listed += len(moves)
    assert listed > 600


def test_deep_thin_tree_builds_and_formats_in_linear_time():
    # 20,000 levels on 20,001 vertices, well under the vertex cap: walking
    # each vertex's parent chain would take about 2 * 10^8 steps
    t = random_tree(20_000, 2, 7, seed=1)
    assert depth(t) == 20_000 and len(t.parent) == 20_001
    text = format_tree(t)
    assert text.count("\n") == 20_001
    assert format_tree(parse_tree(text)) == text


def test_random_tree_invariants():
    for seed in range(25):
        levels = 2 + seed % 4
        t = random_tree(levels, 4, 7, seed=seed)
        g = t.graph
        assert depth(t) == levels
        assert len(labels_at(g)[t.root]) == 2
        assert is_extra_large(g)
        assert all(4 <= m <= 7 for _, _, m in g.edges)
        assert len(g.edges) == len(g.vertices) - 1
        # names follow breadth-first discovery order
        assert g.vertices == tuple(f"a{i+1}" for i in range(len(g.vertices)))


def test_random_tree_deterministic():
    assert random_tree(3, 4, 7, seed=2) == random_tree(3, 4, 7, seed=2)


def test_random_tree_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_tree(1, 4)
    with pytest.raises(ValueError):
        random_tree(3, 1)
    with pytest.raises(ValueError):
        random_tree(3, 4, label_hi=3)


def test_random_tree_caps_vertices_before_building(monkeypatch):
    # every edge's relator has at least 8 letters, so n vertices need a cap
    # of 8 (n - 1) letters; the level that passes it is refused unbuilt
    t = random_tree(4, 4, 7, seed=3)
    n = len(t.parent)
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 8 * (n - 1))
    assert random_tree(4, 4, 7, seed=3) == t
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 8 * (n - 1) - 1)
    with pytest.raises(ValueError, match=f"more than {n - 1} vertices"):
        random_tree(4, 4, 7, seed=3)


def test_artin_from_graph_caps_letters_before_building(monkeypatch):
    g = random_tree(3, 4, 7, seed=3).graph
    letters = sum(2 * m for _, _, m in g.edges)
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", letters)
    assert len(artin_from_graph(g).relators) == len(g.edges)
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", letters - 1)
    with pytest.raises(ValueError, match=f"longer than {letters - 1} letters"):
        artin_from_graph(g)


def test_tree_file_round_trip():
    for seed in (0, 5, 9):
        t = random_tree(3, 4, 7, seed=seed)
        text = format_tree(t)
        back = parse_tree(text)
        assert back == t
        assert format_tree(back) == text


def test_parse_tree_rejects_forests():
    with pytest.raises(ValueError):
        parse_tree("root: a\nedge: b c 4\nedge: b d 4\n")


@pytest.mark.parametrize("edge, error", [
    ("edge: a1 a1 4", r"bad edge endpoints \(a1, a1\)"),
    ("edge: a1 c1 1", "edge label 1 below 2"),
    ("edge: b1 a1 5", "multiple edges between a1 and b1"),
    ("edge: a1 b1 4", "multiple edges between a1 and b1"),
], ids=["loop", "label", "relabeled-pair", "copied-edge"])
def test_parse_tree_checks_each_edge_on_its_line(edge, error):
    with pytest.raises(ValueError, match=f"^line 3: {error}$"):
        parse_tree(f"root: a1\nedge: a1 b1 4\n{edge}\nedge: a1 d1 4\n")


def test_parse_tree_numbers_vertices_in_order_of_appearance():
    # the root line numbers the root where it stands, not where it is read back
    t = parse_tree("edge: b c 4\nroot: a\nedge: c d 4\nedge: a b 4\nedge: a e 4\n")
    assert t.graph.vertices == ("b", "c", "a", "d", "e")
    assert t.graph.vertices[t.root] == "a"


# ------------------------------------------------------------ morphisms

def test_split_at_root_partitions_vertices():
    t = small_tree()
    plat = split_at_root(t)
    assert set(plat.side_a) | {t.root} | set(plat.side_b) == set(range(5))
    assert not set(plat.side_a) & set(plat.side_b)
    # each side is one child's whole subtree
    assert sorted(plat.side_a) == [1, 3, 4]
    assert sorted(plat.side_b) == [2]


def test_split_platform_builds_its_presentation_on_first_read():
    t = random_tree(4, 4, 7, seed=11)
    plat = split_at_root(t)
    assert "presentation" not in vars(plat)
    p = plat.presentation
    assert p == artin_from_graph(t.graph)
    assert plat.presentation is p
    # equality and hashing read the tree alone, the presentation built or not
    fresh = split_at_root(t)
    assert fresh == plat and hash(fresh) == hash(plat)
    assert "presentation" not in vars(fresh)


# ------------------------------------------------------ elementary moves

def test_enumerate_side_moves_small_tree():
    plat = split_at_root(small_tree())
    moves = enumerate_side_moves(plat, "A")
    kinds = {(m.kind, m.a, m.b) for m in moves}
    assert kinds == {("merge", 3, 4), ("merge", 4, 3), ("swap", 3, 4)}
    assert enumerate_side_moves(plat, "B") == ()


def test_merge_endomorphism_identifies_leaves():
    plat = split_at_root(small_tree())
    e = move_endomorphism(plat, ElementaryMove("merge", 3, 4))
    a = plat.presentation.alphabet
    assert apply_endo(parse_word(a, "p"), e) == parse_word(a, "q")
    assert apply_endo(parse_word(a, "q"), e) == parse_word(a, "q")


def test_swap_endomorphism_exchanges_subtrees():
    plat = split_at_root(small_tree())
    e = move_endomorphism(plat, ElementaryMove("swap", 3, 4))
    a = plat.presentation.alphabet
    assert apply_endo(parse_word(a, "p"), e) == parse_word(a, "q")
    assert apply_endo(parse_word(a, "q"), e) == parse_word(a, "p")
    # involution
    assert compose(e, e) == identity_endo(a)


def test_move_endomorphism_rejects_illegal_move():
    plat = split_at_root(small_tree())
    with pytest.raises(ValueError):
        move_endomorphism(plat, ElementaryMove("merge", 1, 2))


def test_move_endomorphism_rejects_vertices_out_of_range():
    plat = split_at_root(small_tree())  # vertices 0 to 4
    for kind, a, b in [("merge", 9, 3), ("swap", 3, 9), ("merge", -1, 3)]:
        with pytest.raises(ValueError, match=f"^{kind} {a} {b} is not an elementary move of either side$"):
            move_endomorphism(plat, ElementaryMove(kind, a, b))


def test_move_endomorphism_refuses_the_swap_of_the_roots_children():
    # sides (1, 3, 4) and (2, 5, 6): 1 and 2 are siblings of one shape under
    # the root, but no side lists their swap, which would move both sides
    plat = split_at_root(random_tree(3, 4, 7, seed=13))
    assert (plat.side_a, plat.side_b) == ((1, 3, 4), (2, 5, 6))
    with pytest.raises(ValueError, match="^swap 1 2 is not an elementary move of either side$"):
        move_endomorphism(plat, ElementaryMove("swap", 1, 2))


def test_a_reversed_swap_is_the_listed_swap():
    plat = split_at_root(small_tree())
    listed = dict(zip(plat.moves("A"), plat.move_endos("A")))
    e = move_endomorphism(plat, ElementaryMove("swap", 4, 3))
    assert e is listed[ElementaryMove("swap", 3, 4)]
    assert e.vertex_map == (0, 1, 2, 4, 3)
    assert ElementaryMove("merge", 4, 3) != ElementaryMove("merge", 3, 4)  # a merge is ordered


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_move_endomorphism_returns_the_listed_endomorphism(levels):
    for seed in range(20):
        plat = setup(seed, levels=levels).platform
        for side in ("A", "B"):
            for m, e in zip(plat.moves(side), plat.move_endos(side), strict=True):
                assert move_endomorphism(plat, m) is e


def test_swap_requires_matching_shapes():
    # p and q hang on labels 6 and 7: merge and swap both impossible
    g = LabeledGraph(("r", "u", "v", "p", "q"),
                     frozenset({(0, 1, 4), (0, 2, 5), (1, 3, 6), (1, 4, 7)}))
    t = RootedTree(g, 0)
    plat = split_at_root(t)
    assert enumerate_side_moves(plat, "A") == ()


def test_deeper_swap_pairs_whole_subtrees():
    # two label-isomorphic depth-2 branches under the root's first child
    g = LabeledGraph(
        ("r", "u", "v", "s1", "s2", "l1", "l2"),
        frozenset({(0, 1, 4), (0, 2, 5), (1, 3, 6), (1, 4, 6), (3, 5, 4), (4, 6, 4)}),
    )
    t = RootedTree(g, 0)
    plat = split_at_root(t)
    moves = enumerate_side_moves(plat, "A")
    swaps = [m for m in moves if m.kind == "swap"]
    assert [(m.a, m.b) for m in swaps] == [(3, 4)]
    e = move_endomorphism(plat, swaps[0])
    a = plat.presentation.alphabet
    assert apply_endo(parse_word(a, "s1"), e) == parse_word(a, "s2")
    assert apply_endo(parse_word(a, "l1"), e) == parse_word(a, "l2")
    # merges of non-leaf vertices are not offered
    assert all(m.kind == "swap" or {m.a, m.b} != {3, 4} for m in moves)


def _shape_reference(t, at, v):
    return tuple(sorted((at[v][c], _shape_reference(t, at, c)) for c in t.children(v)))


def side_moves_reference(platform, side):
    """The enumeration the array move rule replaced: a recursive nested-tuple
    shape, recomputed for every sibling pair."""
    t = platform.tree
    at = labels_at(t.graph)
    moves = []
    for p in platform.side(side):
        kids = t.children(p)
        for x in kids:
            for y in kids:
                if x != y and not t.children(x) and not t.children(y) \
                        and at[p][x] == at[p][y]:
                    moves.append(ElementaryMove("merge", x, y))
        for ix, x in enumerate(kids):
            for y in kids[ix + 1:]:
                if at[p][x] == at[p][y] \
                        and _shape_reference(t, at, x) == _shape_reference(t, at, y):
                    moves.append(ElementaryMove("swap", x, y))
    return tuple(sorted(moves, key=lambda m: (m.kind, m.a, m.b)))


def swap_map_reference(t, a, b):
    """The vertex map of swapping a and b, children paired by label, nested
    shape and name."""
    out = list(range(len(t.graph.vertices)))
    at = labels_at(t.graph)

    def pair(a, b):
        out[a], out[b] = b, a
        key = lambda c: (at[c][t.parent[c]], _shape_reference(t, at, c), t.graph.vertices[c])
        for ca, cb in zip(sorted(t.children(a), key=key), sorted(t.children(b), key=key)):
            pair(ca, cb)

    pair(a, b)
    return tuple(out)


def renumbered(t, rng):
    """``t`` re-read from its file with shuffled edge lines and fresh names,
    so parse_tree numbers the vertices in an order that is not breadth-first."""
    names = [f"v{k}" for k in rng.sample(range(100, 1000), len(t.graph.vertices))]
    rename = dict(zip(t.graph.vertices, names))
    lines = format_tree(t).splitlines()
    edges = lines[1:]
    rng.shuffle(edges)
    out = [f"root: {rename[lines[0].split()[1]]}"]
    for line in edges:
        _, a, b, m = line.split()
        out.append(f"edge: {rename[a]} {rename[b]} {m}")
    return parse_tree("\n".join(out) + "\n")


def move_rule_corpus():
    rng = random.Random(21)
    for levels in range(2, 7):
        for max_degree in range(2, 6):
            for label_hi in range(4, 9):
                seed = rng.getrandbits(32)
                t = random_tree(levels, max_degree, label_hi, seed=seed)
                yield t, sample_tree(levels, max_degree, label_hi, seed)
                yield renumbered(t, rng), None


def _relator_images(plat, e):
    """Each relator's image under e: empty (its edge collapsed), a
    symmetrized relator, or something else."""
    p = plat.presentation
    s = symmetrize(p)
    return {"empty" if not img else "relator" if img in s else "other"
            for img in (apply_endo(r, e) for r in p.relators)}


def test_listed_endomorphisms_send_relators_to_relators():
    # each endomorphism a side lists sends every relator to the empty word or
    # to a symmetrized relator, so it is well defined on the group
    images = 0
    for t, _ in move_rule_corpus():
        plat = split_at_root(t)
        for side in ("A", "B"):
            for e in plat.move_endos(side):
                assert _relator_images(plat, e) <= {"empty", "relator"}, (t, side, e.vertex_map)
                images += len(plat.presentation.relators)
    assert images == 62352


def test_move_rule_matches_recursive_shapes():
    corpus = list(move_rule_corpus())
    assert any(p > v for t, _ in corpus for v, p in enumerate(t.parent))  # not breadth-first
    swaps = viable = 0
    for t, arrays in corpus:
        plat = split_at_root(t)
        if arrays is not None:
            both = bool(side_moves_reference(plat, "A") and side_moves_reference(plat, "B"))
            assert (both_sides_move(*arrays) is not None) == both
            viable += both
        for side in ("A", "B"):
            moves = enumerate_side_moves(plat, side)
            assert moves == side_moves_reference(plat, side)
            for m in moves:
                if m.kind == "swap":
                    swaps += 1
                    e = move_endomorphism(plat, m)
                    assert e.vertex_map == swap_map_reference(t, m.a, m.b)
    assert swaps > 100 and 10 < viable < 90


def test_count_stage_never_rejects_a_side_that_moves():
    # setup refuses a draw on its child counts when a side has no vertex
    # with two children; the refusal must never meet a side with a move, and
    # it must name exactly the sides whose tree has such a vertex
    refused = 0
    for t, arrays in move_rule_corpus():
        if arrays is None:  # renumbered, so not a sampler's parent array
            continue
        plat = split_at_root(t)
        branching = cakelab.artin.branching_sides(arrays[0])
        for top, side in ((1, "A"), (2, "B")):
            forked = any(len(t.children(v)) > 1 for v in plat.side(side))
            assert (top in branching) == forked
            if not forked:
                assert side_moves_reference(plat, side) == ()
                refused += 1
    assert refused > 50


def sample_tree_reference(levels, max_degree, label_hi, rng):
    """The sampler in one pass through ``rng.randint``: each level's child
    counts until one is not zero, then every parent-edge label."""
    parent, current = [-1, 0, 0], [1, 2]
    for _ in range(2, levels):
        counts = [0]
        while not any(counts):
            counts = [rng.randint(0, max_degree - 1) for _ in current]
        n = len(parent)
        for v, k in zip(current, counts):
            parent += [v] * k
        current = list(range(n, len(parent)))
    return parent, [0] + [rng.randint(4, label_hi) for _ in parent[1:]]


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_the_two_stages_draw_sample_trees_arrays(levels):
    # setup draws the counts, tests them, then draws the labels from the
    # same stream; together they must be sample_tree's draw, number for number
    for seed in range(200):
        max_degree, label_hi = 2 + seed % 4, 4 + seed % 5
        rng = random.Random(seed)
        parent = cakelab.artin.draw_counts(rng.getrandbits, levels, max_degree)
        labels = cakelab.artin.draw_labels(rng.getrandbits, len(parent), label_hi)
        reference = random.Random(seed)
        assert (parent, labels) == sample_tree(levels, max_degree, label_hi, seed) == \
            sample_tree_reference(levels, max_degree, label_hi, reference), seed
        assert rng.getstate() == reference.getstate(), seed


@pytest.mark.parametrize("seed", [0, 1, 7, 2**48 - 1])
def test_below_draws_as_randrange_does(seed):
    # powers of two and their neighbours set where the redraw loop runs;
    # _below_each takes the same draws in one call
    for n in range(1, 71):
        ours, each, theirs = random.Random(seed), random.Random(seed), random.Random(seed)
        draws = [cakelab.words._below(ours.getrandbits, n) for _ in range(50)]
        assert draws == cakelab.words._below_each(each.getrandbits, n, 50), n
        assert draws == [theirs.randrange(n) for _ in range(50)], n
        assert ours.getstate() == each.getstate() == theirs.getstate(), n


def test_platform_lists_each_sides_moves_once(monkeypatch):
    plat = split_at_root(small_tree())
    calls = []

    def spy(platform, side):
        calls.append(side)
        return enumerate_side_moves(platform, side)

    monkeypatch.setattr(cakelab.artin, "enumerate_side_moves", spy)
    for seed in range(5):
        random_endo(plat, "A", seed=seed)
    assert plat.moves("A") == enumerate_side_moves(plat, "A")
    assert plat.moves("B") == ()
    assert calls == ["A", "B"]
    for read in (plat.moves, plat.move_endos):
        with pytest.raises(ValueError, match="^side must be 'A' or 'B', not 'C'$"):
            read("C")


def test_platform_builds_each_sides_endomorphisms_once(monkeypatch):
    plat = split_at_root(random_tree(4, 4, 7, seed=16))  # both sides move
    built = []

    def spy(platform, move, _real=cakelab.artin._move_endo):
        built.append(move)
        return _real(platform, move)

    monkeypatch.setattr(cakelab.artin, "_move_endo", spy)
    for seed in range(5):
        random_endo(plat, "A", seed=seed)
        random_endo(plat, "B", seed=seed)
    endos = plat.move_endos("A")
    assert plat.move_endos("A") is endos
    assert built == list(plat.moves("A") + plat.moves("B"))
    assert endos == tuple(move_endomorphism(plat, m) for m in plat.moves("A"))


# ----------------------------------------------------------- commutation

def test_apply_endo_is_homomorphism():
    plat = split_at_root(small_tree())
    a = plat.presentation.alphabet
    e = move_endomorphism(plat, ElementaryMove("swap", 3, 4))
    rng = random.Random(4)
    from cakelab.words import random_reduced_word

    for _ in range(30):
        x = random_reduced_word(a, rng.randint(0, 6), rng)
        y = random_reduced_word(a, rng.randint(0, 6), rng)
        assert apply_endo(x * y, e) == apply_endo(x, e) * apply_endo(y, e)


def test_opposite_side_endos_commute_fuzz():
    checked = 0
    seed = 0
    while checked < 60:
        t = random_tree(3 + seed % 3, 4, 7, seed=seed)
        plat = split_at_root(t)
        ma = enumerate_side_moves(plat, "A")
        mb = enumerate_side_moves(plat, "B")
        seed += 1
        if not ma or not mb:
            continue
        rng = random.Random(seed)
        ea = move_endomorphism(plat, rng.choice(ma))
        eb = move_endomorphism(plat, rng.choice(mb))
        assert endos_commute(ea, eb)
        assert endos_commute(compose(ea, ea), eb)
        checked += 1


def _substitution(e):
    """The endomorphism as a generator-wise substitution: one one-letter
    image word per generator."""
    return [Word(e.alphabet, (Letter(v, 1),)) for v in e.vertex_map]


def _substitute(w, images):
    """Reference substitution: inverse letters get inverted images, then the
    result is freely reduced."""
    out = []
    for lt in w:
        img = images[lt.gen]
        out.extend(img if lt.sign > 0 else img.inverse())
    return from_codes(w.alphabet, [2 * lt.gen + (lt.sign < 0) for lt in out])


def test_vertex_maps_agree_with_word_substitution():
    from cakelab.words import random_reduced_word

    rng = random.Random(17)
    seen_commute = set()
    pairs = 0
    for seed in range(30):
        plat = split_at_root(random_tree(3 + seed % 3, 4, 7, seed=seed))
        endos = [move_endomorphism(plat, m)
                 for side in "AB" for m in enumerate_side_moves(plat, side)]
        if not endos:
            continue
        a = plat.alphabet
        for _ in range(12):
            e1, e2 = rng.choice(endos), rng.choice(endos)
            if rng.random() < 0.5:
                e1 = compose(rng.choice(endos), e1)
            s1, s2 = _substitution(e1), _substitution(e2)
            w = random_reduced_word(a, rng.randint(0, 24), rng)
            assert apply_endo(w, e1) == _substitute(w, s1)
            assert _substitution(compose(e1, e2)) == [_substitute(img, s1) for img in s2]
            assert apply_endo(w, compose(e1, e2)) == _substitute(_substitute(w, s2), s1)
            commute = all(_substitute(s1[g], s2) == _substitute(s2[g], s1) for g in range(len(a)))
            assert endos_commute(e1, e2) == commute
            seen_commute.add(commute)
            pairs += 1
    assert pairs >= 200 and seen_commute == {True, False}
    # a merge can cancel letters: p q^-1 goes to q q^-1 = 1
    plat = split_at_root(small_tree())
    merge = move_endomorphism(plat, ElementaryMove("merge", 3, 4))
    w = parse_word(plat.alphabet, "p q^-1")
    assert apply_endo(w, merge) == _substitute(w, _substitution(merge)) == Word(plat.alphabet)


def test_endomorphism_rejects_malformed_vertex_map():
    a = Alphabet(("x", "y", "z"))
    assert GroupEndomorphism(a, (1, 1, 2)).moved == frozenset({0})


def test_same_side_composition_stays_on_side():
    plat = split_at_root(small_tree())
    a = plat.presentation.alphabet
    moves = enumerate_side_moves(plat, "A")
    e = move_endomorphism(plat, moves[0])
    for m in moves[1:]:
        e = compose(move_endomorphism(plat, m), e)
    for v in (0, 2):  # root and side B never move
        assert apply_endo(parse_word(a, a.names[v]), e) == parse_word(a, a.names[v])


def test_random_endo_deterministic_and_nontrivial():
    plat = split_at_root(small_tree())
    e1 = random_endo(plat, "A", seed=13)
    e2 = random_endo(plat, "A", seed=13)
    assert e1 == e2
    assert e1 != identity_endo(plat.presentation.alphabet)


def test_random_endo_warns_when_side_is_rigid():
    plat = split_at_root(small_tree())
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        e = random_endo(plat, "B", seed=1)
    assert e == identity_endo(plat.presentation.alphabet)
    assert any("no" in str(w.message).lower() for w in log)


def test_endo_certification_against_relators():
    # every move endo must send every relator to a trivial word; spot check
    plat = split_at_root(small_tree())
    p = plat.presentation
    from cakelab.smallcancel import bounded_wp_oracle

    e = move_endomorphism(plat, ElementaryMove("merge", 3, 4))
    for r in p.relators:
        img = apply_endo(r, e)
        if len(img) == 0:
            continue
        assert bounded_wp_oracle(img, p, 3) is not None
