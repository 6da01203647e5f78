"""Malformed trees and drawings through ``main()``: never an internal error.

Each case starts from valid input (paren text, tree JSON, or a drawing
the CLI printed) and breaks it: truncation, a value of the wrong type
(bools, floats, strings, lists, null), huge integers, a key repeated in
one object, or deep nesting.  Whatever comes out, the exit code is 0, 1
or 2; 3 would mean the library took bad input for its own fault.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uptree.cli import main
from uptree.layout import draw_ordered, draw_unordered, drawing_to_json, reduce_bends
from uptree.tree import gen_random_tree, serialize_tree, tree_to_json

TREES = [gen_random_tree(n, seed=n) for n in (1, 2, 4, 7)]
DRAWINGS = [
    (serialize_tree(t), drawing_to_json(draw(t)))
    for t in TREES
    for draw in (draw_unordered, draw_ordered, lambda t: reduce_bends(draw_ordered(t), t))
]

DEEP = "@@deep@@"
HUGE_TEXT = "@@huge@@"
DUP = "@@dup@@"

bad_values = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**40), 10**40),
    st.sampled_from([2**63, -(2**63), 10**100, 0, -1, 1]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["id", "children", "0", "x"]), st.integers(-2, 2),
                    max_size=2),
    st.sampled_from([DEEP, HUGE_TEXT]),
)


def _slots(obj, out=None):
    """Every (container, key) pair in a JSON value, outermost first."""
    out = [] if out is None else out
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        out.append((obj, k))
        if isinstance(v, (dict, list)):
            _slots(v, out)
    return out


@st.composite
def broken_json(draw, obj):
    """obj (a fresh copy) broken in one or two places, as JSON text."""
    obj = json.loads(json.dumps(obj))
    dup = None
    for _ in range(draw(st.integers(1, 2))):
        slots = _slots(obj)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if how == "replace":
            container[key] = draw(bad_values)
        elif how == "delete":
            del container[key]
        elif isinstance(container, dict) and dup is None:
            # repeat this key, with a bad value first
            dup = (json.dumps(key), json.dumps(draw(bad_values)))
            container[DUP] = None
    text = json.dumps(obj)
    if dup is not None:
        text = text.replace(f'"{DUP}": null', f"{dup[0]}: {dup[1]}")
    depth = draw(st.sampled_from([3, 900, 10**5]))
    text = text.replace(f'"{DEEP}"', "[" * depth + "]" * depth)
    text = text.replace(f'"{HUGE_TEXT}"', "9" * 5000)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def broken_paren(draw):
    text = serialize_tree(draw(st.sampled_from(TREES)))
    how = draw(st.sampled_from(["truncate", "insert", "deep", "unbalanced"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if how == "insert":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.text(alphabet="() x{}[]\"\\\n0", max_size=3)) + text[i:]
    k = draw(st.sampled_from([10, 2000]))
    return "(" * k + (")" * k if how == "deep" else "")


broken_tree = st.one_of(
    broken_paren(),
    st.sampled_from(TREES).flatmap(lambda t: broken_json(tree_to_json(t))),
)


def exit_code(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    return code


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@FUZZ
@given(tree=broken_tree, command=st.sampled_from(["widths", "draw"]))
def test_broken_trees_never_exit_3(capsys, tree, command):
    assert exit_code(capsys, [command, tree]) in (0, 1, 2)


@FUZZ
@given(case=st.sampled_from(DRAWINGS).flatmap(
    lambda td: st.tuples(st.just(td[0]), broken_json(td[1]))))
def test_broken_drawings_never_exit_3(capsys, case):
    tree, drawing = case
    assert exit_code(capsys, ["verify", tree, drawing, "--witness"]) in (0, 1, 2)
    assert exit_code(capsys, ["render", drawing]) in (0, 2)
    assert exit_code(capsys, ["render", drawing, "--format", "svg"]) in (0, 2)


@FUZZ
@given(tree=broken_tree, case=st.sampled_from(DRAWINGS))
def test_broken_tree_against_drawing_never_exits_3(capsys, tree, case):
    drawing = json.dumps(case[1])
    assert exit_code(capsys, ["verify", tree, drawing, "--witness"]) in (0, 1, 2)
