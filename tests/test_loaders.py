"""The tree loaders against their two-pass reference copies in ``refloaders``.

Every input, valid or broken, must give the same outcome from both: an
equal tree with equal parents, child rows and labels, or the same
exception class, message and offset.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refloaders
from uptree.tree import (_from_preorder_ids, gen_random_tree, parse_tree, serialize_tree,
                         tree_from_json, tree_to_json)

LABEL_CHARS = "ab_1é"
TEXT_CHARS = "()ab \t\n\x1c　"


def outcome(load, arg):
    try:
        t = load(arg)
    except Exception as e:  # compared, never swallowed: both sides must agree
        return type(e), str(e), getattr(e, "offset", None)
    return (serialize_tree(t), [t.parent(v) for v in range(t.n)],
            [t.children(v) for v in range(t.n)], [t.label(v) for v in range(t.n)])


def same_outcome(load, ref, arg):
    assert outcome(load, copy.deepcopy(arg)) == outcome(ref, arg)


@st.composite
def random_tree(draw, max_n=25):
    return gen_random_tree(draw(st.integers(1, max_n)), seed=draw(st.integers(0, 2**32)))


@st.composite
def tree_text(draw):
    """Paren text of a random tree with labels and whitespace, maybe broken."""
    out = []
    for ch in serialize_tree(draw(random_tree())):
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from([" ", "\n", "\t ", "　"])))
        if ch == "(" and draw(st.integers(0, 2)) == 0:
            out.append(draw(st.text(LABEL_CHARS, min_size=1, max_size=3)))
        out.append(ch)
    text = "".join(out)
    k = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["keep", "truncate", "stray", "garbage", "insert", "delete"]))
    if how == "truncate":
        text = text[:k]
    elif how == "stray":
        text = text[:k] + ")" + text[k:]
    elif how == "garbage":
        text += draw(st.text(TEXT_CHARS, min_size=1, max_size=4))
    elif how == "insert":
        text = text[:k] + draw(st.sampled_from(TEXT_CHARS)) + text[k:]
    elif how == "delete":
        text = text[:k] + text[k + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(tree_text())
def test_parse_tree_matches_reference(text):
    same_outcome(parse_tree, refloaders.parse_tree, text)


@settings(max_examples=200, deadline=None)
@given(st.text(TEXT_CHARS, max_size=12))
def test_parse_tree_matches_reference_on_any_text(text):
    same_outcome(parse_tree, refloaders.parse_tree, text)


NOT_INTS = [True, False, 1.0, 0.0, "1", None, [1], {"id": 1}]


@st.composite
def tree_json(draw):
    """JSON of a random tree, maybe broken in 1-2 places.  Either the ids
    are arbitrary and the records permuted, or the ids are preorder ids in
    record order with every child list written, as ``tree_to_json`` writes
    them, so that the loader's bulk path decides the input."""
    t = draw(random_tree())
    preorder = draw(st.booleans())
    if preorder:
        ids = list(range(t.n))
    else:
        ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=t.n, max_size=t.n,
                            unique=True))
    nodes = []
    for v in range(t.n):
        rec = {"id": ids[v]}
        if preorder or t.children(v) or draw(st.booleans()):
            rec["children"] = [ids[c] for c in t.children(v)]
        if draw(st.integers(0, 3)) == 0:
            rec["label"] = draw(st.one_of(st.none(), st.text(LABEL_CHARS, max_size=3)))
        nodes.append(rec)
    if not preorder:
        nodes = draw(st.permutations(nodes))
    obj = {"root": ids[0], "nodes": nodes}
    fresh = max(ids) + 1
    for _ in range(draw(st.integers(0, 2))):
        rec = draw(st.sampled_from(nodes))
        kids = rec.get("children")
        if not isinstance(kids, list):
            kids = rec["children"] = []
        how = draw(st.sampled_from(["duplicate", "two_parents", "root_child", "unknown",
                                    "not_int_id", "not_int_child", "not_int_root",
                                    "disconnected", "cycle", "drop_key", "bad_nodes",
                                    "bad_label", "bad_children"]))
        if how == "duplicate":
            nodes.append({"id": draw(st.sampled_from(ids)), "children": []})
        elif how == "two_parents":
            kids.insert(draw(st.integers(0, len(kids))), draw(st.sampled_from(ids)))
        elif how == "root_child":
            kids.append(ids[0])
        elif how == "unknown":
            kids.append(fresh)
        elif how == "not_int_id":
            rec["id"] = draw(st.sampled_from(NOT_INTS))
        elif how == "not_int_child":
            kids.append(draw(st.sampled_from(NOT_INTS)))
        elif how == "not_int_root":
            obj["root"] = draw(st.sampled_from(NOT_INTS))
        elif how == "disconnected":
            nodes.insert(draw(st.integers(0, len(nodes))), {"id": fresh, "children": []})
        elif how == "cycle":
            nodes.append({"id": fresh, "children": [fresh + 1]})
            nodes.append({"id": fresh + 1, "children": [fresh]})
        elif how == "drop_key":
            target, key = draw(st.sampled_from([(rec, "id"), (obj, "root"), (obj, "nodes")]))
            target.pop(key, None)
        elif how == "bad_nodes":
            obj["nodes"] = draw(st.sampled_from([[], {}, None, [3]]))
        elif how == "bad_label":
            rec["label"] = draw(st.sampled_from([5, True, 1.5, ["a"], {"a": 2}]))
        else:
            rec["children"] = draw(st.sampled_from([None, 3, {"0": 1}, "[]"]))
        fresh += 2
    return obj


@settings(max_examples=300, deadline=None)
@given(tree_json())
def test_tree_from_json_matches_reference(obj):
    same_outcome(tree_from_json, refloaders.tree_from_json, obj)


def example_json(**changes):
    """Tree JSON of (()()(()())) with preorder ids, as tree_to_json writes
    it; ``changes`` maps a record index, or "root", to what replaces it."""
    nodes = [{"id": 0, "children": [1, 2, 3]}, {"id": 1, "children": []},
             {"id": 2, "children": [], "label": "b"}, {"id": 3, "children": [4, 5]},
             {"id": 4, "children": []}, {"id": 5, "children": []}]
    obj = {"root": 0, "nodes": nodes}
    for key, value in changes.items():
        if key == "root":
            obj["root"] = value
        else:
            nodes[int(key[1:])] = value
    return obj


BULK_CASES = {
    "as-written": example_json(),
    "child-true": example_json(r0={"id": 0, "children": [True, 2, 3]}),
    "id-float": example_json(r1={"id": 1.0, "children": []}),
    "child-float": example_json(r3={"id": 3, "children": [4.0, 5]}),
    "leaf-without-children": example_json(r1={"id": 1}),
    "children-swapped": example_json(r3={"id": 3, "children": [5, 4]}),
    "subtrees-swapped": example_json(r0={"id": 0, "children": [1, 3, 2]}),
    "root-false": example_json(root=False),
    "root-float": example_json(root=0.0),
    "root-one": example_json(root=1),
    "label-int": example_json(r2={"id": 2, "children": [], "label": 5}),
    "label-null": example_json(r2={"id": 2, "children": [], "label": None}),
    "children-null": example_json(r4={"id": 4, "children": None}),
    "child-past-end": example_json(r5={"id": 5, "children": [6]}),
    "child-of-itself": example_json(r5={"id": 5, "children": [5]}),
    "child-is-root": example_json(r5={"id": 5, "children": [0]}),
    "two-parents": example_json(r1={"id": 1, "children": [2]}),
    "record-not-dict": example_json(r4=[4]),
    "unreachable-trailing": {"root": 0, "nodes": example_json()["nodes"]
                             + [{"id": 6, "children": []}]},
    "unreachable-cycle": {"root": 0, "nodes": example_json()["nodes"]
                          + [{"id": 6, "children": [7]}, {"id": 7, "children": [6]}]},
    "one-node": {"root": 0, "nodes": [{"id": 0, "children": []}]},
    "one-node-labelled": {"root": 0, "nodes": [{"id": 0, "children": [], "label": "r"}]},
    "one-node-own-child": {"root": 0, "nodes": [{"id": 0, "children": [0]}]},
}


@pytest.mark.parametrize("name", sorted(BULK_CASES))
def test_tree_from_json_bulk_cases_match_reference(name):
    same_outcome(tree_from_json, refloaders.tree_from_json, BULK_CASES[name])


@settings(max_examples=100, deadline=None)
@given(random_tree(max_n=60), st.data())
def test_tree_to_json_takes_the_bulk_path(t, data):
    obj = tree_to_json(t)
    for v in data.draw(st.lists(st.integers(0, t.n - 1), max_size=3)):
        obj["nodes"][v]["label"] = data.draw(st.text(LABEL_CHARS, max_size=2))
    bulk = _from_preorder_ids(obj["root"], obj["nodes"])
    assert bulk is not None
    assert outcome(lambda o: bulk, obj) == outcome(refloaders.tree_from_json, obj)
