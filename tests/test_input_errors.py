"""Which checks are the caller's input errors and which are the library's.

``InputError`` is raised exactly where a caller can get the input wrong;
the CLI maps it, and nothing else, to exit 2.  The checks that only a
fault in the library can trip stay plain ``ValueError`` (exit 3).
"""

import re
import time
from enum import IntEnum

import pytest

from uptree import InputError
from uptree.layout import Drawing, draw_ordered, drawing_from_json, reduce_bends
from uptree.oracle import (
    enumerate_trees,
    equivalence_suite,
    min_nodes_for_rank,
    pathwidth_oracle,
    rank_bruteforce,
    rpw_path_oracle,
)
from uptree.ranking import corner_scan
from uptree.render import render_ascii
from uptree.tree import (
    ParseError,
    Tree,
    gen_complete_binary,
    gen_hpd_family,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
    tree_from_json,
)
from uptree.verify import DrawingMismatch, check_drawing, reorder_children_by_drawing

PAIR = parse_tree("(())")
PAIR_DRAWING = Drawing(mode="unordered", pos={0: (1, 2), 1: (1, 1)},
                       edges={(0, 1): [(1, 2), (1, 1)]})
FORK = parse_tree("(()())")
# the edge to node 2 leaves its parent upward
FORK_UP = Drawing(mode="unordered", pos={0: (2, 2), 1: (1, 1), 2: (3, 3)},
                  edges={(0, 1): [(2, 2), (1, 1)], (0, 2): [(2, 2), (3, 3)]})
# both edges leave the root down and to the left, one twice as far
FORK_SAME = Drawing(mode="unordered", pos={0: (3, 3), 1: (2, 2), 2: (1, 1)},
                    edges={(0, 1): [(3, 3), (2, 2)], (0, 2): [(3, 3), (1, 1)]})
HUGE = Drawing(mode="ordered1", pos={0: (1, 10**8), 1: (1, 1)},
               edges={(0, 1): [(1, 10**8), (1, 1)]})

INPUT_ERRORS = {
    "gen_path": lambda: gen_path(0),
    "gen_path-cap": lambda: gen_path(2**20 + 1),
    "gen_complete_binary": lambda: gen_complete_binary(0),
    "gen_complete_binary-cap": lambda: gen_complete_binary(21),
    "gen_complete_binary-huge": lambda: gen_complete_binary(64),
    "gen_quintary_family": lambda: gen_quintary_family(13),
    "gen_quintary_family-cap": lambda: gen_quintary_family(9),
    "gen_hpd_family": lambda: gen_hpd_family(21),
    "gen_random_tree-n": lambda: gen_random_tree(0, seed=0),
    "gen_random_tree-cap": lambda: gen_random_tree(2**20 + 1, seed=0),
    "gen_random_tree-max_degree": lambda: gen_random_tree(5, seed=0, max_degree=0),
    "check_drawing-property": lambda: check_drawing(PAIR, PAIR_DRAWING, ("acyclic",)),
    "check_drawing-mismatch": lambda: check_drawing(parse_tree("()"), PAIR_DRAWING),
    "drawing_from_json-type": lambda: drawing_from_json([]),
    "drawing_from_json-malformed": lambda: drawing_from_json({"mode": "unordered"}),
    "drawing_from_json-mode": lambda: drawing_from_json(
        {"mode": "sideways", "positions": {"0": [1, 1]}, "edges": []}),
    "render_ascii": lambda: render_ascii(HUGE),
    "reorder_children_by_drawing-upward": lambda: reorder_children_by_drawing(FORK, FORK_UP),
    "reorder_children_by_drawing-coincident": lambda: reorder_children_by_drawing(FORK, FORK_SAME),
    "enumerate_trees-n": lambda: next(enumerate_trees(0)),
    "enumerate_trees-cap": lambda: next(enumerate_trees(16)),
    "rank_bruteforce": lambda: rank_bruteforce(gen_path(12)),
    "rpw_path_oracle": lambda: rpw_path_oracle(gen_path(17)),
    "pathwidth_oracle": lambda: pathwidth_oracle(gen_path(15)),
    "min_nodes_for_rank-W": lambda: min_nodes_for_rank(5, n_max=12),
    "min_nodes_for_rank-n_max": lambda: min_nodes_for_rank(2, n_max=16),
    "equivalence_suite-low": lambda: equivalence_suite(max_n=0),
    "equivalence_suite-high": lambda: equivalence_suite(max_n=16),
    "equivalence_suite-max_W-low": lambda: equivalence_suite(max_n=3, max_W=0),
    "equivalence_suite-max_W-high": lambda: equivalence_suite(max_n=3, max_W=16),
    "parse_tree": lambda: parse_tree("(()"),
    "tree_from_json": lambda: tree_from_json({"root": 0}),
    "tree_from_json-root": lambda: tree_from_json({"root": 7, "nodes": [{"id": 0}]}),
}

LIBRARY_FAULTS = {
    "Tree": lambda: Tree([[5]]),
    "corner_scan": lambda: corner_scan([], 1, "left"),
    "corner_scan-W": lambda: corner_scan([1], 0, "left"),
    "reduce_bends": lambda: reduce_bends(reduce_bends(draw_ordered(PAIR), PAIR), PAIR),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_checks_raise_input_error(name):
    with pytest.raises(InputError):
        INPUT_ERRORS[name]()


@pytest.mark.parametrize("name", sorted(LIBRARY_FAULTS))
def test_library_faults_stay_plain_value_errors(name):
    with pytest.raises(ValueError) as exc:
        LIBRARY_FAULTS[name]()
    assert not isinstance(exc.value, InputError)


def test_error_hierarchy():
    assert issubclass(InputError, ValueError)
    assert issubclass(ParseError, InputError)
    assert issubclass(DrawingMismatch, InputError)


@pytest.mark.parametrize("call", [
    lambda: equivalence_suite(max_n=16),
    lambda: gen_random_tree(10**5, seed=0, max_degree=0),
    lambda: gen_path(10**9),
    lambda: gen_complete_binary(40),
    lambda: gen_quintary_family(12),
    lambda: gen_random_tree(10**9, seed=0),
], ids=["equivalence_suite", "gen_random_tree", "gen_path", "gen_complete_binary",
        "gen_quintary_family", "gen_random_tree-cap"])
def test_range_checks_come_before_the_work(call):
    start = time.perf_counter()
    with pytest.raises(InputError):
        call()
    assert time.perf_counter() - start < 1.0


class Id(IntEnum):
    ZERO = 0
    ONE = 1


def _tree_json(root=0, nid=1, child=1):
    return {"root": root, "nodes": [{"id": 0, "children": [child]}, {"id": nid}]}


def _drawing_json(coord=1, point=1, end=0):
    return {"mode": "unordered", "positions": {"0": [1, 2], "1": [coord, 1]},
            "edges": [{"from": end, "to": 1, "points": [[1, 2], [point, 1]]}]}


def _drawing(coord=1, point=1):
    return Drawing(mode="unordered", pos={0: (1, 2), 1: (coord, 1)},
                   edges={(0, 1): [(1, 2), (point, 1)]})


@pytest.mark.parametrize("call,error,message", [
    (lambda: tree_from_json(_tree_json(nid=Id.ONE)), ParseError,
     "node id <Id.ONE: 1> is not an integer"),
    (lambda: tree_from_json(_tree_json(child=Id.ONE)), ParseError,
     "child id <Id.ONE: 1> under 0 is not an integer"),
    (lambda: tree_from_json(_tree_json(root=Id.ZERO)), ParseError,
     "root <Id.ZERO: 0> is not an integer"),
    (lambda: drawing_from_json(_drawing_json(coord=Id.ONE)), InputError,
     "<Id.ONE: 1> is not an integer"),
    (lambda: drawing_from_json(_drawing_json(point=Id.ONE)), InputError,
     "<Id.ONE: 1> is not an integer"),
    (lambda: drawing_from_json(_drawing_json(end=Id.ZERO)), InputError,
     "<Id.ZERO: 0> is not an integer"),
    (lambda: check_drawing(PAIR, _drawing(coord=Id.ONE)), DrawingMismatch,
     "position of node 1 is not an integer pair"),
    (lambda: check_drawing(PAIR, _drawing(point=Id.ONE)), DrawingMismatch,
     "edge (0, 1) has a non-integer point"),
], ids=["tree-id", "tree-child", "tree-root", "drawing-coord", "drawing-point",
        "drawing-edge-end", "check-position", "check-point"])
def test_int_subclasses_are_refused(call, error, message):
    # only a plain int is an id or a coordinate: an IntEnum member is
    # refused where 1.0 is, though it too compares equal to 1
    with pytest.raises(error, match=re.escape(message)):
        call()
