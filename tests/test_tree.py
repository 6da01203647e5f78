from __future__ import annotations

import hashlib
import json
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptree.tree import (
    ParseError,
    Tree,
    gen_complete_binary,
    gen_hpd_family,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
    serialize_tree,
    tree_from_json,
    tree_to_json,
)

from test_layout import frozen_corpus


def test_parse_single_node():
    t = parse_tree("()")
    assert t.n == 1
    assert t.root == 0
    assert t.is_leaf(0)


def test_parse_two_leaves():
    t = parse_tree("(()())")
    assert t.n == 3
    assert t.children(0) == (1, 2)
    assert t.is_leaf(1) and t.is_leaf(2)


def test_parse_path_of_three():
    t = parse_tree("((()))")
    assert t.n == 3
    assert t.children(0) == (1,)
    assert t.children(1) == (2,)


def test_parse_ignores_whitespace():
    t = parse_tree("  ( ()\n\t() )  ")
    assert serialize_tree(t) == "(()())"


def test_parse_labels():
    t = parse_tree("a(b()c())")
    assert t.label(0) == "a"
    assert t.label(1) == "b"
    assert t.label(2) == "c"
    # labels are ignored structurally
    assert t == parse_tree("(()())")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("   ", 0),
        ("(()", 3),
        ("((())", 5),
        ("())", 2),
        ("()()", 2),
        ("() x", 3),
        ("abc", 3),
        (")", 0),
    ],
)
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    assert err.value.offset == offset


def test_serialize_examples():
    assert serialize_tree(parse_tree("()")) == "()"
    assert serialize_tree(parse_tree("(()())")) == "(()())"
    assert serialize_tree(gen_quintary_family(2)) == "(()()(()())()())"


class Id(IntEnum):
    ONE = 1


# rows that number no tree rooted at 0 in preorder, and labels that tree JSON refuses
BAD_ROWS = {
    "bool": ([[True], []], None),
    "int-subclass": ([[Id.ONE], []], None),
    "float": ([[1.0], []], None),
    "str": ([["1"], []], None),
    "out-of-range": ([[5], []], None),
    "negative": ([[-1], []], None),
    "two-parents": ([[1, 2], [2], []], None),
    "own-child": ([[1], [1]], None),
    "cycle": ([[1], [0]], None),
    "not-preorder": ([[2, 1], [], []], None),
    "unreachable": ([[1], [], []], None),
    "empty": ([], None),
    "label-int": ([[1], []], {0: 5}),
    "label-key-out-of-range": ([[1], []], {3: "x"}),
}
# JSON ids are free and renumbered, so only rows out of preorder make a tree there
ROW_CASES = [k for k, (rows, labels) in BAD_ROWS.items() if labels is None and k != "not-preorder"]


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_tree_rejects_non_preorder_numbering(case):
    rows, labels = BAD_ROWS[case]
    with pytest.raises(ValueError) as err:
        Tree(rows, labels)
    # a caller's rows are no tree text or JSON: no InputError, no TypeError
    assert type(err.value) is ValueError


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_tree_json_refuses_the_same_rows(case):
    rows, _ = BAD_ROWS[case]
    nodes = [{"id": v, "children": list(row)} for v, row in enumerate(rows)]
    with pytest.raises(ParseError):
        tree_from_json({"root": 0, "nodes": nodes})


def test_tree_from_rows_keeps_tree_and_labels():
    for t in frozen_corpus():
        assert Tree(t._children, t._labels) == t
        labels = {v: f"n{v}" for v in range(0, t.n, 3)}
        u = Tree([list(r) for r in t._children], labels)
        assert u == t and u._parent == t._parent and u._labels == labels
    # None means no label, as in tree JSON
    assert Tree([[1], []], {0: None, 1: "b"})._labels == {1: "b"}


def test_node_accessors():
    t = parse_tree("(()x(()))")
    assert t.parent(2) == 0
    assert t.children(2) == (3,)
    assert t.label(2) == "x"
    assert t.label(1) is None
    assert t.parent(0) is None
    with pytest.raises(IndexError):
        t.parent(99)
    with pytest.raises(IndexError):
        t.children(99)
    assert t.__eq__(serialize_tree(t)) is NotImplemented and t != serialize_tree(t)
    assert hash(t) == hash(parse_tree("(()(()))"))
    assert repr(t) == "Tree(n=4, '(()(()))')"


def test_bottom_up_children_first():
    t = gen_quintary_family(3)
    seen = set()
    for v in t.bottom_up():
        for c in t.children(v):
            assert c in seen
        seen.add(v)
    assert len(seen) == t.n


def test_json_round_trip():
    t = parse_tree("(()()(()()))")
    obj = tree_to_json(t)
    assert obj["root"] == 0
    t2 = tree_from_json(json.loads(json.dumps(obj)))
    assert t2 == t


def test_json_round_trip_keeps_labels():
    t = parse_tree("root(a() (b()))")
    obj = json.loads(json.dumps(tree_to_json(t)))
    assert [rec.get("label") for rec in obj["nodes"]] == ["root", "a", None, "b"]
    t2 = tree_from_json(obj)
    assert [t2.label(v) for v in range(t2.n)] == ["root", "a", None, "b"]


def test_json_accepts_arbitrary_ids_and_renumbers():
    obj = {
        "root": 10,
        "nodes": [
            {"id": 30, "children": []},
            {"id": 10, "children": [20, 30]},
            {"id": 20, "children": [], "label": "left"},
        ],
    }
    t = tree_from_json(obj)
    assert t.n == 3
    assert t.children(0) == (1, 2)
    assert t.label(1) == "left"


@pytest.mark.parametrize(
    "obj",
    [
        {"nodes": [{"id": 0, "children": []}]},
        {"root": 0, "nodes": []},
        {"root": 0, "nodes": [{"id": 0, "children": [1]}]},
        {"root": 0, "nodes": [{"id": 0, "children": []}, {"id": 0, "children": []}]},
        {"root": 0, "nodes": [{"id": 0, "children": [1, 1]}, {"id": 1, "children": []}]},
        {"root": 0, "nodes": [{"id": 0, "children": []}, {"id": 1, "children": []}]},
        {"root": 0, "nodes": [{"id": 0, "children": [1]}, {"id": 1, "children": [0]}]},
        # ids that are not integers; true, false and 1.0 must not alias nodes
        {"root": 0, "nodes": [{"id": 0, "children": [True, 2]}, {"id": 1}, {"id": 2}]},
        {"root": 0, "nodes": [{"id": 0, "children": [1.0, 2]}, {"id": 1}, {"id": 2}]},
        {"root": 0, "nodes": [{"id": 0, "children": [[1], 2]}, {"id": 1}, {"id": 2}]},
        {"root": True, "nodes": [{"id": 1, "children": [2]}, {"id": 2}]},
        {"root": False, "nodes": [{"id": 0, "children": [1]}, {"id": 1}]},
        {"root": 0.0, "nodes": [{"id": 0, "children": [1]}, {"id": 1}]},
        {"root": [0], "nodes": [{"id": 0, "children": [1]}, {"id": 1}]},
        # a label is a string or null, never another JSON value
        {"root": 0, "nodes": [{"id": 0, "label": [[1], {"a": 2}]}]},
        {"root": 0, "nodes": [{"id": 0, "children": [1]}, {"id": 1, "label": 7}]},
        {"root": 0, "nodes": [{"id": 0, "label": False}]},
    ],
)
def test_json_structural_errors(obj):
    with pytest.raises(ParseError):
        tree_from_json(obj)


def test_gen_path():
    assert serialize_tree(gen_path(1)) == "()"
    assert serialize_tree(gen_path(2)) == "(())"
    assert serialize_tree(gen_path(3)) == "((()))"
    with pytest.raises(ValueError):
        gen_path(0)


def test_gen_complete_binary():
    assert serialize_tree(gen_complete_binary(1)) == "()"
    assert serialize_tree(gen_complete_binary(2)) == "(()())"
    assert serialize_tree(gen_complete_binary(3)) == "((()())(()()))"
    for h in range(1, 11):
        assert gen_complete_binary(h).n == 2**h - 1
    with pytest.raises(ValueError):
        gen_complete_binary(0)


def test_gen_quintary_family():
    assert serialize_tree(gen_quintary_family(1)) == "()"
    assert serialize_tree(gen_quintary_family(2)) == "(()()(()())()())"
    assert gen_quintary_family(3).n == 50
    prev = 1
    for i in range(2, 7):
        n = gen_quintary_family(i).n
        assert n == 6 * prev + 2
        prev = n
    with pytest.raises(ValueError):
        gen_quintary_family(0)
    with pytest.raises(ValueError):
        gen_quintary_family(13)


def test_gen_hpd_family():
    assert gen_hpd_family(1).n == 1
    assert gen_hpd_family(2).n == 4
    assert gen_hpd_family(4).n == 22
    for i in range(1, 13):
        assert gen_hpd_family(i).n == 3 * 2 ** (i - 1) - 2
    # right child heads a rooted path
    t = gen_hpd_family(3)
    left, right = t.children(0)
    v = right
    length = 0
    while True:
        length += 1
        kids = t.children(v)
        if not kids:
            break
        assert len(kids) == 1
        v = kids[0]
    assert length == gen_hpd_family(2).n + 1
    with pytest.raises(ValueError):
        gen_hpd_family(0)
    with pytest.raises(ValueError):
        gen_hpd_family(21)


def test_gen_random_tree_basics():
    assert serialize_tree(gen_random_tree(1, 12345)) == "()"
    a = gen_random_tree(40, seed=7)
    b = gen_random_tree(40, seed=7)
    assert a == b
    assert a.n == 40


def test_gen_random_tree_max_degree():
    t = gen_random_tree(30, seed=3, max_degree=2)
    assert max(t.degree(v) for v in range(t.n)) <= 2
    with pytest.raises(ValueError):
        gen_random_tree(5, seed=0, max_degree=0)


def test_gen_random_tree_uniform_at_n4():
    # Catalan(3) = 5 shapes; each should appear with frequency 0.2 +- 0.01.
    counts: dict[str, int] = {}
    samples = 100000
    for k in range(samples):
        s = serialize_tree(gen_random_tree(4, seed=k))
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 5
    for c in counts.values():
        assert abs(c / samples - 0.2) <= 0.01


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**64 - 1))
def test_parse_serialize_round_trip(n, seed):
    t = gen_random_tree(n, seed)
    assert parse_tree(serialize_tree(t)) == t


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**64 - 1))
def test_json_round_trip_random(n, seed):
    t = gen_random_tree(n, seed)
    assert tree_from_json(tree_to_json(t)) == t


def _labelled_text(t, labels):
    """serialize_tree(t) with labels[v] before the '(' of node v."""
    rest = serialize_tree(t).split("(")[1:]  # rest[v] follows the '(' of node v
    return "".join(labels.get(v, "") + "(" + r for v, r in enumerate(rest))


@pytest.mark.parametrize("make", [lambda: gen_path(10**5), lambda: gen_random_tree(10**5, seed=0)],
                         ids=["path", "random"])
def test_loaders_round_trip_at_1e5(make):
    # 10^5 nesting levels on the path: the loaders must not recurse
    t = make()
    labels = {v: f"n{v}" for v in range(0, t.n, 7)}
    want = [labels.get(v) for v in range(t.n)]
    obj = tree_to_json(t)
    for v, lab in labels.items():
        obj["nodes"][v]["label"] = lab
    for t2 in (parse_tree(_labelled_text(t, labels)), tree_from_json(obj)):
        assert t2 == t
        assert list(map(t2.parent, range(1, t.n))) == list(map(t.parent, range(1, t.n)))
        assert [t2.label(v) for v in range(t.n)] == want



def _parse_peak_ratio(text):
    """parse_tree's tracemalloc peak over the size of the tree it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t = parse_tree(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n == text.count("(")
    return (peak - base) / (kept - base)


@pytest.mark.parametrize("make", [lambda: gen_hpd_family(14),
                                  lambda: gen_random_tree(2 * 10**4, seed=0)], ids=["hpd14", "random"])
def test_parse_tree_builds_no_list_per_node(make):
    # beside the tree it returns, parse_tree holds only flat lists of ids;
    # a list per node (and a tuple copy of each) would take it near 2x
    assert _parse_peak_ratio(serialize_tree(make())) <= 1.5


# paren text of any small tree; hypothesis shrinks it node by node
TREE_TEXT = st.recursive(st.just("()"), lambda kids: st.lists(kids, max_size=4).map(
    lambda ks: "(" + "".join(ks) + ")"), max_leaves=40)


def _stack_serialize(t):
    """The stack walk serialize_tree replaced: one (node, closing) pair a node."""
    out, stack = [], [(0, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            out.append(")")
            continue
        out.append("(")
        stack.append((v, True))
        stack.extend((c, False) for c in reversed(t.children(v)))
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(TREE_TEXT)
def test_serialize_is_the_text_parsed(text):
    t = parse_tree(text)
    assert serialize_tree(t) == text == _stack_serialize(t)
    assert parse_tree(serialize_tree(t)) == t


@pytest.mark.parametrize("make", [lambda: gen_path(1), lambda: gen_path(10**5),
                                  lambda: gen_hpd_family(16)], ids=["n1", "path", "hpd16"])
def test_serialize_round_trip_large(make):
    t = make()
    text = serialize_tree(t)
    assert text == _stack_serialize(t)
    assert parse_tree(text) == t


@settings(max_examples=150, deadline=None)
@given(TREE_TEXT, st.randoms(use_true_random=False))
def test_json_with_permuted_ids_loads_like_parse_tree(text, rnd):
    # any distinct ids, nodes in any order: the loader renumbers in preorder
    t = parse_tree(text)
    labels = {v: f"L{v}" for v in range(t.n) if rnd.random() < 0.4}
    ids = rnd.sample(range(-3 * t.n, 3 * t.n), t.n)
    nodes = [{"id": ids[v], "children": [ids[c] for c in t.children(v)]} for v in range(t.n)]
    for v, lab in labels.items():
        nodes[v]["label"] = lab
    rnd.shuffle(nodes)
    got = tree_from_json({"root": ids[0], "nodes": nodes})
    rest = text.split("(")[1:]  # rest[v] follows the '(' of node v
    want = parse_tree("".join(labels.get(v, "") + "(" + r for v, r in enumerate(rest)))
    assert got == want == t
    assert [got.parent(v) for v in range(t.n)] == [want.parent(v) for v in range(t.n)]
    assert [got.label(v) for v in range(t.n)] == [want.label(v) for v in range(t.n)]


def _generated():
    yield from (("path", k, gen_path(k)) for k in (1, 2, 50, 10**5))
    yield from (("binary", h, gen_complete_binary(h)) for h in range(1, 18))
    yield from (("quintary", i, gen_quintary_family(i)) for i in range(1, 8))
    yield from (("hpd", i, gen_hpd_family(i)) for i in range(1, 17))
    for n in (1, 2, 9, 300, 10**5):
        for seed in range(5):
            yield ("random", (n, seed), gen_random_tree(n, seed))
            if n <= 12:
                yield ("random3", (n, seed), gen_random_tree(n, seed, max_degree=3))


# SHA-256 over serialize_tree of every generated tree above, frozen from the
# generators that filled in child lists by hand; the paren-text generators
# must give the same trees.
FROZEN_GENERATORS = "4edcd3ed955d49cba2e7bf7e30190ed28c6c9b6ff33920176fc5b241c047609b"


def test_frozen_generators():
    h = hashlib.sha256()
    for family, arg, t in _generated():
        h.update(f"{family} {arg} {serialize_tree(t)}\n".encode())
        # serialize_tree reads only the parents; the child rows must agree
        assert Tree(t._children)._parent == t._parent
    assert h.hexdigest() == FROZEN_GENERATORS
