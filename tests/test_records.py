"""The record classes: construction with defaults, validation messages,
value equality, hashes, ``repr`` text and immutability, for every one of
them.  A record compares and hashes as the tuple of its compared fields,
only against a record of its own class; ``SymmetrizedSet`` compares by
identity."""

import itertools

import pytest

from cakelab import (
    Alphabet,
    CancellationReport,
    DisguiseBudget,
    ElementaryMove,
    GroupEndomorphism,
    LabeledGraph,
    Letter,
    Presentation,
    PresentationHistory,
    ProtocolConfig,
    RewriteMove,
    RootedTree,
    SessionKey,
    SplitPlatform,
    SymmetrizedSet,
    Transcript,
    Word,
    WspWitness,
    parse_word,
    random_tree,
    setup,
    shorten_all,
)

X = Alphabet(("a", "b"))
COMM = "a b a^-1 b^-1"


def w(text):
    return parse_word(X, text)


def p(*relators):
    return Presentation(X, tuple(map(w, relators)))


def graph():
    return LabeledGraph(("a", "b", "c"), [(0, 1, 4), (0, 2, 5)])


TREE = random_tree(3, 3, seed=1)
CONFIG = setup(9000)


# name -> (class, compared fields, positional args, keyword args, a different record's args);
# the positional and keyword args build equal records
RECORDS = {
    "Alphabet": (Alphabet, ("names",), (["a", "b"],), dict(names=("a", "b")), (("b", "a"),)),
    "Word": (Word, ("alphabet", "codes"), (X, [Letter(0, 1), Letter(1, -1)]),
             dict(alphabet=X, letters=(Letter(0, 1), Letter(1, -1))), (X, [Letter(0, 1)])),
    "Presentation": (Presentation, ("alphabet", "relators"), (X, [w(COMM)]),
                     dict(alphabet=X, relators=(w(COMM),)), (X,)),
    "PresentationHistory": (PresentationHistory, ("start", "steps"),
                            (p(COMM), shorten_all(p(COMM)).steps),
                            dict(start=p(COMM), steps=shorten_all(p(COMM)).steps), (p(COMM), ())),
    "CancellationReport": (CancellationReport,
                           ("piece_count", "min_piece_decomposition", "c_verdicts", "cprime_sup", "t4"),
                           (4, (4,), {4: True}, None, True),
                           dict(piece_count=4, min_piece_decomposition=(4,), c_verdicts={4: True},
                                cprime_sup=None, t4=True),
                           (4, (4,), {4: False}, None, True)),
    "WspWitness": (WspWitness, ("factors",), (((w("a"), w(COMM), 1),),),
                   dict(factors=((w("a"), w(COMM), 1),)), ((),)),
    "LabeledGraph": (LabeledGraph, ("vertices", "edges"), (["a", "b"], [(0, 1, 4)]),
                     dict(vertices=("a", "b"), edges=frozenset({(0, 1, 4)})), (("a", "b"), [(0, 1, 5)])),
    "RootedTree": (RootedTree, ("graph", "root"), (graph(), 0), dict(graph=graph(), root=0),
                   (TREE.graph, 0)),
    "SplitPlatform": (SplitPlatform, ("tree",), (TREE,), dict(tree=RootedTree(TREE.graph, 0)),
                      (RootedTree(graph(), 0),)),
    "GroupEndomorphism": (GroupEndomorphism, ("alphabet", "vertex_map"), (X, (1, 1)),
                          dict(alphabet=X, vertex_map=(1, 1)), (X, (0, 0))),
    "ElementaryMove": (ElementaryMove, ("kind", "a", "b"), ("swap", 4, 3), dict(kind="swap", a=3, b=4),
                       ("merge", 4, 3)),
    "DisguiseBudget": (DisguiseBudget, ("moves", "max_conjugator_len", "max_word_len"), (3,),
                       dict(moves=3, max_conjugator_len=2, max_word_len=256), (3, 2, 255)),
    "RewriteMove": (RewriteMove, ("kind", "position", "relator", "exponent", "conjugator", "pre_word",
                                  "post_word"),
                    ("insert-conjugate", 1, w(COMM), 1, w("b"), w("a b")),
                    dict(kind="insert-conjugate", position=1, relator=w(COMM), exponent=1,
                         conjugator=w("b"), pre_word=w("a b")),
                    ("insert-conjugate", 0, w(COMM), 1, w("b"), w("a b"))),
    "SessionKey": (SessionKey, ("key_word", "key_bytes"), (w("a"), bytes(32)),
                   dict(key_word=w("a"), key_bytes=bytes(32)), (w("b"), bytes(32))),
    "Transcript": (Transcript, ("messages", "config_digest"), ((("A", w("a")),), b"d"),
                   dict(messages=(("A", w("a")),), config_digest=b"d"), ((), b"d")),
    "ProtocolConfig": (ProtocolConfig, ("platform", "public_word"), (CONFIG.platform, CONFIG.public_word),
                       dict(platform=SplitPlatform(CONFIG.platform.tree), public_word=CONFIG.public_word),
                       (CONFIG.platform, CONFIG.public_word.inverse())),
}

NAMES = sorted(RECORDS)


def build(name):
    cls, fields, args, kwargs, other = RECORDS[name]
    return cls(*args), cls(**kwargs), cls(*other)


def test_the_table_holds_every_record_class():
    assert len(RECORDS) == 16  # and SymmetrizedSet, which compares by identity


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    x, y, other = build(name)
    assert x is not y
    assert x == y and not x != y
    assert x != other and not x == other
    fields = RECORDS[name][1]
    assert [getattr(x, f) for f in fields] == [getattr(y, f) for f in fields]


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_compared_fields(name):
    x, y, _ = build(name)
    key = tuple(getattr(x, f) for f in RECORDS[name][1])
    if name == "CancellationReport":  # its verdict dict is unhashable
        with pytest.raises(TypeError):
            hash(x)
        return
    if name == "Alphabet":  # hashed once, as its names: every Word hash reads it
        key = x.names
    assert hash(x) == hash(y) == hash(key)
    assert x != key and key != x


def test_records_of_different_classes_never_compare_equal():
    samples = [build(name)[0] for name in NAMES]
    for x, y in itertools.permutations(samples, 2):
        assert x != y and not x == y
        assert x.__eq__(y) is NotImplemented


def test_records_differing_in_one_field_differ():
    Y = Alphabet(("a", "c"))
    assert parse_word(Y, "a") != w("a") and Word(Y) != Word(X)
    assert GroupEndomorphism(Y, (0, 1)) != GroupEndomorphism(X, (0, 1))
    assert DisguiseBudget(3, 1) != DisguiseBudget(3, 2) != DisguiseBudget(4, 2)
    assert SessionKey(w("a"), bytes(32)) != SessionKey(w("a"), b"\1" * 32)


def test_defaults_and_normalised_fields():
    assert DisguiseBudget(3) == DisguiseBudget(3, 2, 256) == DisguiseBudget(moves=3, max_word_len=256)
    assert DisguiseBudget(3, max_word_len=9) == DisguiseBudget(3, 2, 9)
    assert Presentation(X) == Presentation(X, ())
    assert Presentation(X, [w(COMM)]).relators == (w(COMM),)
    assert Word(X) == w("1") and Word(X).codes == ()
    assert Alphabet(["a", "b"]).names == ("a", "b")
    g = LabeledGraph(["a", "b"], [(0, 1, 4)])
    assert g.vertices == ("a", "b") and g.edges == frozenset({(0, 1, 4)})
    assert ElementaryMove("swap", 4, 3) == ElementaryMove("swap", 3, 4)
    assert (ElementaryMove("merge", 4, 3).a, ElementaryMove("merge", 4, 3).b) == (4, 3)
    move = RewriteMove("insert-conjugate", 1, w(COMM), 1, w("b"), w("a b"))
    assert move.post_word == w("a b a b a^-1 b^-1")
    h = shorten_all(p(COMM))
    assert h.end == PresentationHistory(h.start, h.steps).end
    with pytest.raises(TypeError):
        RewriteMove(*RECORDS["RewriteMove"][2], post_word=w("a"))
    with pytest.raises(TypeError):
        PresentationHistory(h.start, h.steps, end=h.end)


def test_derived_fields_compare_as_declared():
    # RewriteMove's post_word is compared and shown; a history's end is neither
    move = RewriteMove("insert-conjugate", 1, w(COMM), 1, w("b"), w("a b"))
    assert "post_word=Word('a b a b a^-1 b^-1')" in repr(move)
    h = shorten_all(p(COMM))
    assert "end=" not in repr(h)
    forged = PresentationHistory(h.start, h.steps)
    object.__setattr__(forged, "end", p("a"))
    assert forged == h and hash(forged) == hash(h)


def test_repr_text():
    assert repr(DisguiseBudget(3)) == "DisguiseBudget(moves=3, max_conjugator_len=2, max_word_len=256)"
    assert repr(ElementaryMove("swap", 4, 3)) == "ElementaryMove(kind='swap', a=3, b=4)"
    assert repr(GroupEndomorphism(X, (1, 0))) == \
        "GroupEndomorphism(alphabet=Alphabet('a b'), vertex_map=(1, 0))"
    assert repr(WspWitness(())) == "WspWitness(factors=())"
    assert repr(shorten_all(p(COMM))) == (
        "PresentationHistory(start=Presentation(alphabet=Alphabet('a b'), "
        "relators=(Word('a b a^-1 b^-1'),)), "
        "steps=(TietzeStep(new_gen='t1', defined_as=(0, 2), replaced_relator_index=0),))")
    assert repr(SymmetrizedSet(p(COMM))) == \
        "SymmetrizedSet(alphabet=Alphabet('a b'), relators=(Word('a b a^-1 b^-1'),))"
    assert repr(SessionKey(w("a"), bytes(32))) == f"SessionKey(key_word=Word('a'), key_bytes={bytes(32)!r})"
    assert repr(Word(X)) == "Word('1')" and repr(X) == "Alphabet('a b')"


@pytest.mark.parametrize("name", [*NAMES, "SymmetrizedSet"])
def test_records_refuse_assignment_and_deletion(name):
    if name == "SymmetrizedSet":
        x, field = SymmetrizedSet(p(COMM)), "alphabet"
    else:
        x, field = build(name)[0], RECORDS[name][1][0]
    before = getattr(x, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(x, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        x.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(x, field)
    assert getattr(x, field) is before and not hasattr(x, "extra")


def test_symmetrized_sets_compare_by_identity():
    s, t = SymmetrizedSet(p(COMM)), SymmetrizedSet(p(COMM))
    assert s == s and s != t and not s == t
    assert hash(s) == object.__hash__(s)
    assert len({s, t}) == 2


VALIDATION = [
    (lambda: Alphabet(("a", "")), "generator names must be non-empty"),
    (lambda: Alphabet(("1",)), "'1' is reserved for the empty word"),
    (lambda: Alphabet(("a b",)), "illegal character in generator name 'a b'"),
    (lambda: Alphabet(("a", "a")), "duplicate generator name 'a'"),
    (lambda: Word(X, [Letter(2, 1)]), "generator index 2 out of range"),
    (lambda: Word(X, [Letter(0, 0)]), "letter sign must be +1 or -1, got 0"),
    (lambda: Word(X, [Letter(0, 1), Letter(0, -1)]), "letter sequence is not freely reduced"),
    (lambda: Word(X, [Letter(2, 0), Letter(0, 0)]), "generator index 2 out of range"),
    (lambda: Presentation(X, [parse_word(Alphabet(("a", "c")), "a")]), "relator uses a different alphabet"),
    (lambda: Presentation(X, [w("1")]), "empty relator"),
    (lambda: Presentation(X, [w("a b a^-1")]), "relator 'a b a^-1' is not cyclically reduced"),
    (lambda: Presentation(X, [w("a b"), w("a b")]), "duplicate relator 'a b'"),
    (lambda: SymmetrizedSet(p("a b " * 355)), "symmetrized set longer than 1000000 letters"),
    (lambda: PresentationHistory(p(COMM), (shorten_all(p(COMM)).steps[0]._replace(defined_as=(0, 1)),)),
     "step for 't1' does not match its presentation"),
    (lambda: PresentationHistory(p(COMM), (shorten_all(p(COMM)).steps[0]._replace(replaced_relator_index=1),)),
     "relator index 1 out of range"),
    (lambda: LabeledGraph(("a", "a"), [(0, 1, 4)]), "duplicate vertex names"),
    (lambda: LabeledGraph(("a", "b"), [(1, 0, 4)]), "bad edge endpoints (1, 0)"),
    (lambda: LabeledGraph(("a", "b"), [(0, 1, 1)]), "edge label 1 below 2"),
    (lambda: LabeledGraph(("a", "b"), [(0, 1, 4), (0, 1, 5)]), "multiple edges between 0 and 1"),
    (lambda: RootedTree(graph(), 3), "root 3 out of range"),
    (lambda: RootedTree(LabeledGraph(("a", "b", "c"), [(0, 1, 4)]), 0), "edge count does not match a tree"),
    (lambda: RootedTree(LabeledGraph("abcd", [(0, 1, 4), (0, 2, 4), (1, 2, 4)]), 0),
     "tree is not connected"),
    (lambda: RootedTree(graph(), 1), "root degree must be exactly 2"),
    (lambda: RootedTree(LabeledGraph("abc", [(0, 1, 4), (0, 2, 3)]), 0), "tree labels must all be >= 4"),
    (lambda: RootedTree(LabeledGraph("abc", [(0, 1, 4)]), 5), "root 5 out of range"),
    (lambda: ElementaryMove("slide", 1, 2), "unknown move kind 'slide'"),
    (lambda: ElementaryMove("merge", 1, 1), "move endpoints must differ"),
    (lambda: ElementaryMove("slide", 1, 1), "unknown move kind 'slide'"),
    (lambda: DisguiseBudget(-1), "budget fields must be non-negative"),
    (lambda: DisguiseBudget(1, 2, 10**6 + 1), "budget lengths must be at most 1000000 letters"),
    (lambda: DisguiseBudget(-1, 2, 10**6 + 1), "budget fields must be non-negative"),
    (lambda: RewriteMove("grow", 0, w(COMM), 1, w("1"), w("a")), "unknown move kind 'grow'"),
    (lambda: RewriteMove("grow", 9, w(COMM), 2, w("1"), w("a")), "unknown move kind 'grow'"),
    (lambda: RewriteMove("insert-conjugate", 0, w(COMM), 2, w("1"), w("a")), "exponent must be 1 or -1"),
    (lambda: RewriteMove("insert-conjugate", 2, w(COMM), 1, w("1"), w("a")), "move position out of range"),
    (lambda: RewriteMove("subword-swap", 0, w(COMM), -1, w("b"), w("a")), "swaps carry no conjugator"),
    (lambda: RewriteMove("subword-swap", 0, w(COMM), 1, w("1"), w("a")), "swaps have exponent -1"),
    (lambda: RewriteMove("subword-swap", 0, w(COMM), -1, w("1"), w("b")),
     "word does not match the relator prefix at 0"),
    (lambda: SessionKey(w("a"), b""), "key_bytes must be 32 bytes"),
    (lambda: ProtocolConfig(CONFIG.platform, Word(CONFIG.public_word.alphabet)),
     "public word must touch both sides"),
]


@pytest.mark.parametrize("make, message", VALIDATION, ids=[m for _, m in VALIDATION])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message

