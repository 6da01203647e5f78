"""One digest over the CLI's observable behaviour on a fixed corpus.

Every call runs in-process through ``main()``; the digest covers its
argv, exit code, stdout and stderr.  A refactor of any layer under the
CLI must leave it unchanged.  Left out on purpose: exit-3 cases (their
tracebacks hold file paths), argparse's own usage errors (their text is
argparse's, not ours; flags that are gone, such as ``--pw`` and
``--pw-cap``, end there), repeated JSON keys and empty drawings
(``tests/test_cli.py`` and ``tests/test_layout.py`` pin their
messages), and the size caps and ranges (``--max-degree 0``, the
generator and oracle caps), whose messages are the library's own and
are pinned by ``test_library_caps_exit_2``.
"""

import hashlib
import json

import pytest

from uptree.cli import main
from uptree.tree import parse_tree, tree_to_json

TREES = [
    "()",
    "(())",
    "(()())",
    "((()))",
    "(()()(()()))",
    "((())()())",
    "(()(()))",
    "(()()(()())()())",
    "((()())(()()))",
    "((()(())((())()(()()))))",
    "(((()())(()()))((()())(()())))",
]

MODES = ("unordered", "ordered3", "ordered1")

BAD_INPUT = [
    ["widths", "(()"],
    ["widths", "(()))"],
    ["widths", "(x)"],
    ["widths", ""],
    ["widths", "no/such/file.txt"],
    ["widths", "{not json"],
    ["widths", '{"root": 0, "nodes": [{"id": 0, "children": [true, 2]}, {"id": 1}, {"id": 2}]}'],
    ["widths", '{"root": 0, "nodes": [{"id": 0, "children": [1.0, 2]}, {"id": 1}, {"id": 2}]}'],
    ["widths", '{"root": true, "nodes": [{"id": 1, "children": [2]}, {"id": 2}]}'],
    ["widths", '{"root": 0, "nodes": [{"id": 0, "children": [1]}]}'],
    ["draw", "(()"],
    ["verify", "(()())", "{not json"],
    ["verify", "(()())", "(()())"],
    ["verify", "(()())", "[1, 2]"],
    ["verify", "(()())", '{"mode": "unordered"}'],
    ["verify", "(()())", '{"mode": "sideways", "positions": {"0": [1, 1]}, "edges": []}'],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [2, 3], "1": ["1", 1], "2": [3, 1.9]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[2, 3], [1, 1]]}, '
     '{"from": 0, "to": 2.7, "points": [[2, 3], [3, 1]]}]}'],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [1, 3], "1": [1, 1], "2": [2, 2]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[1, 3], [2, 2], [1, 1]]}, '
     '{"from": 0, "to": 1, "points": [[1, 3], [1, 1]]}, '
     '{"from": 0, "to": 2, "points": [[1, 3], [2, 2]]}]}'],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [1, 3], "1": [1, 1]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[1, 3], [1, 1]]}]}'],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [1, 3], "1": [1, 1], "2": [2, 2]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[1, 3], [1, 2]]}, '
     '{"from": 0, "to": 2, "points": [[1, 3], [2, 2]]}]}'],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [1, 3], "1": [1, 1], "2": [2, 2]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[1, 3]]}, '
     '{"from": 0, "to": 2, "points": [[1, 3], [2, 2]]}]}'],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [1, 3], "1": [2, 2], "2": [2, 2]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[1, 3], [2, 2]]}, '
     '{"from": 0, "to": 2, "points": [[1, 3], [2, 2]]}]}', "--witness"],
    ["verify", "(()())",
     '{"mode": "unordered", "positions": {"0": [1, 1], "1": [1, 3], "2": [2, 0]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[1, 1], [1, 3]]}, '
     '{"from": 0, "to": 2, "points": [[1, 1], [2, 0]]}]}', "--witness"],
    ["verify", "((())())",
     '{"mode": "unordered", "positions": {"0": [2, 4], "1": [1, 2], "2": [3, 1], "3": [3, 3]}, '
     '"edges": [{"from": 0, "to": 1, "points": [[2, 4], [1, 2]]}, '
     '{"from": 1, "to": 2, "points": [[1, 2], [3, 1]]}, '
     '{"from": 0, "to": 3, "points": [[2, 4], [3, 3]]}]}',
     "--require", "planar,upward,strictly_upward,order_preserving,straight_line", "--witness"],
    ["verify", "()", '{"mode": "unordered", "positions": {"0": [1, 1]}, "edges": []}', "--require", ","],
    ["verify", "()", '{"mode": "unordered", "positions": {"0": [1, 1]}, "edges": []}',
     "--require", "planar,acyclic"],
    ["render", "(()())"],
    ["render", "{not json"],
    ["render", '{"mode": "unordered", "positions": {"0": [1, 1], "1": [100000, 100000]}, '
               '"edges": [{"from": 0, "to": 1, "points": [[1, 1], [100000, 100000]]}]}'],
    ["gen", "random", "0"],
    ["gen", "path", "0"],
    ["gen", "binary", "-1"],
    ["gen", "quintary", "0"],
    ["gen", "hpd", "0"],
    ["oracle", "rank", "(" + "()" * 12 + ")"],
    ["oracle", "nw", "5"],
    ["oracle", "nw", "0"],
    ["oracle", "equivalence", "--max-n", "0"],
]


def corpus():
    """Yield argv lists; drawings come from the corpus's own draw calls."""
    for text in TREES:
        blob = json.dumps(tree_to_json(parse_tree(text)))
        yield ["widths", text]
        yield ["widths", blob]
        yield ["draw", text, "--prune-collinear"]
        for mode in MODES:
            yield ["draw", text, "--mode", mode]
            yield ["draw", blob, "--mode", mode, "--stats"]
        yield ["oracle", "rank", text]
    yield from BAD_INPUT
    for family, ks in (("path", (1, 4)), ("binary", (0, 2)), ("quintary", (1, 3)),
                       ("hpd", (1, 3))):
        for k in ks:
            yield ["gen", family, str(k)]
            yield ["gen", family, str(k), "--json"]
    for seed in (0, 1, 7):
        yield ["gen", "random", "9", "--seed", str(seed)]
        yield ["gen", "random", "9", "--seed", str(seed), "--json"]
    yield ["gen", "random", "12", "--seed", "2", "--max-degree", "3"]
    yield ["oracle", "nw", "3"]
    yield ["oracle", "nw", "4", "--n-max", "7"]
    yield ["oracle", "equivalence", "--max-n", "6"]


def drawing_calls(drawn):
    """verify and render on every drawing the corpus printed."""
    for (text, mode), drawing in drawn.items():
        yield ["verify", text, drawing]
        yield ["verify", text, drawing, "--witness"]
        yield ["verify", text, drawing, "--require", "planar,upward,order_preserving"]
        yield ["verify", text, drawing, "--require",
               "planar,upward,strictly_upward,order_preserving,straight_line", "--witness"]
        yield ["verify", "(((())))" if text != "(((())))" else "()", drawing]
        yield ["render", drawing]
        yield ["render", drawing, "--format", "svg"]
        if mode == "ordered3":
            # every point doubled: the same drawing, with zero-length segments
            obj = json.loads(drawing)
            for e in obj["edges"]:
                e["points"] = [p for p in e["points"] for _ in range(2)]
            yield ["verify", text, json.dumps(obj), "--witness", "--require",
                   "planar,upward,order_preserving"]


@pytest.fixture
def outputs(capsys):
    records = []
    drawn = {}

    def call(argv):
        code = main(list(argv))
        out = capsys.readouterr()
        records.append((argv, code, out.out, out.err))
        return code, out.out

    for argv in corpus():
        code, out = call(argv)
        if argv[0] == "draw" and len(argv) == 4 and argv[2] == "--mode":
            assert code == 0
            drawn[(argv[1], argv[3])] = out
    for argv in drawing_calls(drawn):
        call(argv)
    return records


# SHA-256 over json.dumps([argv, code, stdout, stderr]) of each call, in order.
FROZEN_CLI_DIGEST = "2e63570fdda9fb0fa42b30f81ce256431e20cffc0b5fc33e22dabe565bcccf96"
FROZEN_CLI_CALLS = 416


def test_frozen_cli(outputs):
    h = hashlib.sha256()
    for rec in outputs:
        h.update(json.dumps(rec).encode())
    codes = {code for _, code, _, _ in outputs}
    assert 3 not in codes and {0, 1, 2} <= codes
    assert len(outputs) == FROZEN_CLI_CALLS
    assert h.hexdigest() == FROZEN_CLI_DIGEST
