"""Exit codes, JSON output, stdin handling, size caps."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import uptree
import uptree.verify as verify
from uptree.cli import main
from uptree.layout import (Drawing, draw_ordered, drawing_from_json, drawing_to_json,
                           reduce_bends)
from uptree.ranking import rank_witness_to_json
from uptree.tree import gen_path, parse_tree, serialize_tree

EXAMPLE = "(()()(()()))"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The directory that holds the imported ``uptree`` package. Child processes
# get it first on PYTHONPATH, so they run the code under test and not some
# other installed copy.
PACKAGE_ROOT = str(Path(uptree.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- widths


def test_widths_golden(capsys):
    got = run_json(capsys, "widths", EXAMPLE)
    assert got == {"n": 6, "rpw": 2, "rank": 2, "hpd": 2}


def test_widths_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "widths", "(()")
    assert code == 2
    assert "unbalanced" in err


def test_widths_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "widths", "no/such/file.txt")
    assert code == 2


def test_widths_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(EXAMPLE))
    got = run_json(capsys, "widths", "-")
    assert got["n"] == 6


def test_widths_file_not_utf8_exits_2(capsys, tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"\xff\xfe(()")
    code, out, err = run(capsys, "widths", str(p))
    assert (code, out) == (2, "")
    assert "cannot read" in err and "Traceback" not in err


def test_widths_from_file(capsys, tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(EXAMPLE + "\n")
    got = run_json(capsys, "widths", str(p))
    assert got["n"] == 6


def test_widths_takes_a_labelled_tree_inline(capsys, tmp_path):
    # text holding "(" that names no file is inline, as text starting with "(" is
    p = tmp_path / "labelled.txt"
    p.write_text("a(b()c())")
    from_file = run(capsys, "widths", str(p))
    assert json.loads(from_file[1]) == {"n": 3, "rpw": 2, "rank": 2, "hpd": 2}
    assert run(capsys, "widths", "a(b()c())") == from_file
    # too long to name a file (a path component past 255 bytes), still a tree
    assert run_json(capsys, "widths", "a(" * 200 + ")" * 200)["n"] == 200
    assert run(capsys, "widths", "a(b") == (2, "", "uptree: expected '(' after label (offset 3)\n")


def test_widths_file_wins_over_inline_text(capsys, tmp_path):
    p = tmp_path / "a(b"
    p.write_text(EXAMPLE)
    assert run_json(capsys, "widths", str(p))["n"] == 6


def test_widths_tree_json_input(capsys):
    from uptree.tree import parse_tree, tree_to_json
    blob = json.dumps(tree_to_json(parse_tree(EXAMPLE)))
    got = run_json(capsys, "widths", blob)
    assert got["n"] == 6


@pytest.mark.parametrize("blob", [
    '{"root": 0, "nodes": [{"id": 0, "children": [true, 2]}, {"id": 1}, {"id": 2}]}',
    '{"root": 0, "nodes": [{"id": 0, "children": [1.0, 2]}, {"id": 1}, {"id": 2}]}',
    '{"root": true, "nodes": [{"id": 1, "children": [2]}, {"id": 2}]}',
], ids=["child-true", "child-float", "root-true"])
def test_widths_json_non_integer_id_exits_2(capsys, blob):
    # each blob is a valid tree if true or 1.0 is read as node 1
    code, out, err = run(capsys, "widths", blob)
    assert code == 2
    assert out == ""
    assert "not an integer" in err


def test_widths_json_label_not_string_exits_2(capsys):
    blob = '{"root": 0, "nodes": [{"id": 0, "label": [[1], {"a": 2}]}]}'
    assert run(capsys, "widths", blob) == (
        2, "", "uptree: label of node 0 is not a string or null (offset 0)\n")


def test_widths_json_null_label_is_no_label(capsys):
    blob = '{"root": 0, "nodes": [{"id": 0, "label": null, "children": [1]}, {"id": 1}]}'
    assert run_json(capsys, "widths", blob)["n"] == 2


def test_widths_duplicate_json_key_exits_2(capsys):
    blob = ('{"root": 0, "nodes": [{"id": 0, "children": [1], "children": [1, 2]}, '
            '{"id": 1}, {"id": 2}]}')
    code, out, err = run(capsys, "widths", blob)
    assert (code, out) == (2, "")
    assert "bad tree JSON: duplicate key 'children'" in err


# ------------------------------------------------------------------ draw


@pytest.mark.parametrize("mode,bends", [("unordered", 0), ("ordered3", 1),
                                        ("ordered1", 1)])
def test_draw_modes(capsys, mode, bends):
    got = run_json(capsys, "draw", EXAMPLE, "--mode", mode, "--stats")
    assert got["mode"] == mode
    assert len(got["positions"]) == 6
    assert got["stats"]["max_bends_per_edge"] == bends
    assert got["stats"]["width"] == 2


def test_draw_output_is_loadable(capsys):
    got = run_json(capsys, "draw", EXAMPLE)
    d = drawing_from_json(got)
    assert d.mode == "ordered3"


def _collinear_interior(pts):
    return any((q[0] - a[0]) * (r[1] - q[1]) == (q[1] - a[1]) * (r[0] - q[0])
               for a, q, r in zip(pts, pts[1:], pts[2:]))


def test_draw_ordered1_prunes_collinear(capsys):
    tree = "((())(()((()((()())))(()(()))(()()((()(())())(()))))))"
    plain = run_json(capsys, "draw", tree, "--mode", "ordered1")
    pruned = run_json(capsys, "draw", tree, "--mode", "ordered1", "--prune-collinear")
    assert pruned != plain
    assert any(_collinear_interior(e["points"]) for e in plain["edges"])
    assert not any(_collinear_interior(e["points"]) for e in pruned["edges"])
    report = verify.check_drawing(parse_tree(tree), drawing_from_json(pruned),
                                  ("planar", "upward", "order_preserving"))
    assert report.ok and report.max_bends <= 1


def test_draw_ordered1_ranks_once(capsys, monkeypatch):
    # ordered1 builds its own drawing: one rank, and the same text as
    # reduce_bends over an ordered3 drawing
    import uptree.cli as cli
    import uptree.layout as layout

    t = parse_tree("((())(()((()((()())))(()(()))(()()((()(())())(()))))))")
    want = json.dumps(drawing_to_json(reduce_bends(draw_ordered(t), t)),
                      sort_keys=True, indent=2) + "\n"
    calls = []
    real = layout.rank
    for module in (cli, layout):
        monkeypatch.setattr(module, "rank", lambda t: calls.append(t) or real(t))
    code, out, _ = run(capsys, "draw", serialize_tree(t), "--mode", "ordered1")
    assert code == 0
    assert len(calls) == 1
    assert out == want


# ---------------------------------------------------------------- verify


def test_verify_ok_exit_0(capsys):
    drawing = json.dumps(run_json(capsys, "draw", EXAMPLE))
    code, out, _ = run(capsys, "verify", EXAMPLE, drawing,
                       "--require", "planar,upward,order_preserving")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_failed_property_exit_1(capsys):
    # the unordered drawing permutes children, so order preservation fails
    drawing = json.dumps(run_json(capsys, "draw", EXAMPLE, "--mode", "unordered"))
    code, out, _ = run(capsys, "verify", EXAMPLE, drawing,
                       "--require", "order_preserving")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False and rep["planar"] is True


def test_verify_zero_length_edge_is_level_not_bent(capsys):
    # the child sits on its parent's point: the edge has no segment at all
    drawing = json.dumps({"mode": "unordered", "positions": {"0": [1, 1], "1": [1, 1]},
                          "edges": [{"from": 0, "to": 1, "points": [[1, 1], [1, 1]]}]})
    code, out, _ = run(capsys, "verify", "(())", drawing, "--require", "strictly_upward")
    assert code == 1
    rep = json.loads(out)
    assert (rep["strictly_upward"], rep["straight_line"], rep["max_bends"]) == (False, True, 0)
    assert "strictly_upward: edge (0, 1) runs level at y=1" in rep["violations"]
    assert not any("bends" in v for v in rep["violations"])


def test_verify_witness_flag(capsys):
    drawing = json.dumps(run_json(capsys, "draw", EXAMPLE))
    code, out, _ = run(capsys, "verify", EXAMPLE, drawing, "--witness")
    assert code == 0
    w = json.loads(out)["witness"]
    assert w is not None and w["W"] == 2


def test_verify_wrong_tree_exit_2(capsys):
    drawing = json.dumps(run_json(capsys, "draw", "(())"))
    code, _, err = run(capsys, "verify", EXAMPLE, drawing)
    assert code == 2
    assert "disagree" in err


def test_verify_bad_json_exit_2(capsys):
    code, _, err = run(capsys, "verify", EXAMPLE, "{not json")
    assert code == 2


def test_verify_non_integer_drawing_exits_2(capsys):
    # read with int(), "1", 1.9 and 2.7 give a valid drawing of the tree
    drawing = ('{"mode": "unordered", "positions": {"0": [2, 3], "1": ["1", 1], '
               '"2": [3, 1.9]}, "edges": [{"from": 0, "to": 1, "points": [[2, 3], [1, 1]]}, '
               '{"from": 0, "to": 2.7, "points": [[2, 3], [3, 1]]}]}')
    code, out, err = run(capsys, "verify", "(()())", drawing)
    assert code == 2
    assert out == ""
    assert "not an integer" in err


def test_verify_duplicate_edge_exits_2(capsys):
    # edge 0 -> 1 listed bent, then straight: keeping only the last copy
    # would judge a straight-line drawing that the file does not describe
    drawing = ('{"mode": "unordered", "positions": {"0": [1, 3], "1": [1, 1], "2": [2, 2]}, '
               '"edges": [{"from": 0, "to": 1, "points": [[1, 3], [2, 2], [1, 1]]}, '
               '{"from": 0, "to": 1, "points": [[1, 3], [1, 1]]}, '
               '{"from": 0, "to": 2, "points": [[1, 3], [2, 2]]}]}')
    code, out, err = run(capsys, "verify", "(()())", drawing, "--require", "straight_line")
    assert code == 2
    assert out == ""
    assert "duplicate edge" in err


def test_verify_unknown_property_exit_2(capsys):
    drawing = json.dumps(run_json(capsys, "draw", EXAMPLE))
    code, _, err = run(capsys, "verify", EXAMPLE, drawing,
                       "--require", "planar,acyclic")
    assert code == 2


def test_verify_duplicate_position_key_exits_2(capsys):
    # node "1" listed twice: keeping the last copy judges a valid drawing
    drawing = ('{"mode": "unordered", "positions": {"0": [1, 3], "1": [5, 9], "1": [1, 1], '
               '"2": [2, 2]}, "edges": [{"from": 0, "to": 1, "points": [[1, 3], [1, 1]]}, '
               '{"from": 0, "to": 2, "points": [[1, 3], [2, 2]]}]}')
    code, out, err = run(capsys, "verify", "(()())", drawing)
    assert (code, out) == (2, "")
    assert "bad drawing JSON: duplicate key '1'" in err


def test_verify_negative_zero_key_exits_2(capsys):
    # read as int(), "-0" is node 0 again and only the last position counts
    drawing = ('{"mode": "unordered", "positions": {"0": [1, 2], "-0": [9, 9], "1": [1, 1]}, '
               '"edges": [{"from": 0, "to": 1, "points": [[9, 9], [1, 1]]}]}')
    code, out, err = run(capsys, "verify", "(())", drawing)
    assert (code, out) == (2, "")
    assert "position key '-0' is not an integer" in err


def _json_drawing(obj):
    """The drawing JSON as the library's Drawing, its points kept as lists."""
    return Drawing(mode=obj["mode"],
                   pos={int(u): p for u, p in obj["positions"].items()},
                   edges={(e["from"], e["to"]): e["points"] for e in obj["edges"]})


@pytest.mark.parametrize("tree,mode,repeat_root", [
    ("()", "ordered3", False),
    (EXAMPLE, "unordered", False),
    (EXAMPLE, "ordered3", True),
    ("(()()(()())()())", "ordered3", False),
], ids=["n1", "unordered", "repeated-root-point", "list-points"])
def test_verify_witness_checks_once(capsys, monkeypatch, tree, mode, repeat_root):
    obj = run_json(capsys, "draw", tree, "--mode", mode)
    if repeat_root:
        for e in obj["edges"]:
            if e["from"] == 0:
                e["points"].insert(0, e["points"][0])
    calls = {"_structural": 0, "_planarity": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(verify, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(verify, name, counted)
    code, out, _ = run(capsys, "verify", tree, json.dumps(obj), "--witness")
    assert code == 0
    assert calls == {"_structural": 1, "_planarity": 1}
    monkeypatch.undo()
    w = verify.extract_rank_witness(parse_tree(tree), _json_drawing(obj))
    assert (w is None) == (mode == "unordered" or tree == "()")
    assert json.loads(out)["witness"] == (None if w is None else rank_witness_to_json(w))


# ------------------------------------------------------------------- gen


def test_gen_golden(capsys):
    code, out, _ = run(capsys, "gen", "quintary", "2")
    assert code == 0
    assert out.strip() == "(()()(()())()())"


def test_gen_random_deterministic(capsys):
    _, a, _ = run(capsys, "gen", "random", "20", "--seed", "7")
    _, b, _ = run(capsys, "gen", "random", "20", "--seed", "7")
    assert a == b


def test_gen_json_roundtrips(capsys):
    got = run_json(capsys, "gen", "binary", "3", "--json")
    from uptree.tree import tree_from_json
    assert tree_from_json(got).n == 7


def test_gen_piped_into_widths(capsys):
    _, tree_text, _ = run(capsys, "gen", "hpd", "4")
    got = run_json(capsys, "widths", tree_text.strip())
    assert got["rpw"] == 2 and got["hpd"] == 4


# ---------------------------------------------------------------- render


def test_render_ascii(capsys):
    drawing = json.dumps(run_json(capsys, "draw", "((()))", "--mode",
                                  "unordered"))
    code, out, _ = run(capsys, "render", drawing)
    assert code == 0
    assert out.splitlines() == ["o", "o", "o"]


def test_render_svg_to_file(capsys, tmp_path):
    drawing = json.dumps(run_json(capsys, "draw", EXAMPLE))
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", drawing, "--format", "svg",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("<svg ")


def test_render_unwritable_out_exits_2(capsys, tmp_path):
    drawing = json.dumps(run_json(capsys, "draw", EXAMPLE))
    target = tmp_path / "no" / "such" / "dir" / "out.svg"
    code, out, err = run(capsys, "render", drawing, "--format", "svg", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"uptree: cannot write {str(target)!r}")
    assert not target.parent.exists()


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_render_empty_drawing_exits_2(capsys, fmt):
    code, out, err = run(capsys, "render", '{"mode": "unordered", "positions": {}, "edges": []}',
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert "a drawing needs at least one node" in err


def test_render_rejects_tree_text(capsys):
    code, _, err = run(capsys, "render", EXAMPLE)
    assert code == 2
    assert "JSON" in err


# ---------------------------------------------------- caps and deep input


@pytest.mark.parametrize("argv,message", [
    (["gen", "random", "5", "--max-degree", "0"], "max_degree must be >= 1"),
    (["gen", "binary", "64"], "h must be <= 20"),
    (["gen", "path", str(2**20 + 1)], "k must be <= 2**20"),
    (["gen", "quintary", "12"], "i must be in 1..8"),
    (["gen", "random", str(10**9)], "n must be <= 2**20"),
], ids=["max-degree-0", "binary-64", "path-2**20+1", "quintary-12", "random-10**9"])
def test_library_caps_exit_2(capsys, argv, message):
    # the library's own message, and no second check in front of it
    assert run(capsys, *argv) == (2, "", f"uptree: {message}\n")


@pytest.mark.parametrize("argv", [
    ["widths", "(" + "()" * 10 + ")", "--pw", "--pw-cap", "5"],
    ["widths", "(()())", "--pw"],
], ids=["pw-cap", "pw"])
def test_cap_flags_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["widths", "verify"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text('{"root": 0, "nodes": ' + "[" * 10**5 + "]" * 10**5 + "}")
    argv = [command, str(deep)] if command == "widths" else [command, "(())", str(deep)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "nested too deeply" in err
    assert "Traceback" not in err


# ------------------------------------------------------------ exit codes


def test_input_error_exits_2(capsys, monkeypatch):
    def bad_input(t):
        raise uptree.InputError("boom")
    monkeypatch.setattr("uptree.cli.param_report", bad_input)
    assert run(capsys, "widths", EXAMPLE) == (2, "", "uptree: boom\n")


def test_internal_error_exits_3(capsys, monkeypatch):
    # a fault inside the library is not a usage error, whatever its type
    def broken(t):
        raise ValueError("boom")
    monkeypatch.setattr("uptree.cli.param_report", broken)
    code, out, err = run(capsys, "widths", EXAMPLE)
    assert code == 3
    assert out == ""
    assert "uptree: internal error: ValueError: boom" in err
    assert "Traceback" in err


# ------------------------------------------------------------ entry point


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv):
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=60)


def test_closed_stdout_exits_141():
    # `uptree draw ... | head -1`, with far more output than a pipe holds
    draw = subprocess.Popen(
        [sys.executable, "-m", "uptree.cli", "draw", serialize_tree(gen_path(3000)),
         "--mode", "unordered"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = subprocess.run(["head", "-1"], stdin=draw.stdout, capture_output=True,
                          text=True, timeout=60)
    draw.stdout.close()
    err = draw.stderr.read().decode()
    draw.stderr.close()
    assert draw.wait(timeout=60) == 141
    assert head.stdout == "{\n"
    for text in ("Traceback", "internal error", "Exception ignored"):
        assert text not in err


@pytest.mark.skipif(shutil.which("uptree") is None,
                    reason="the uptree console script is not installed "
                           "(pip install -e . --no-build-isolation)")
def test_console_script_installed():
    out = run_child(["uptree", "gen", "path", "3"])
    assert out.returncode == 0
    assert out.stdout.strip() == "((()))"


def test_console_script_entry_point():
    # What the installed ``uptree`` wrapper does, without installing it:
    # import the declared target and exit with its return value.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["uptree"]
    assert target == "uptree.cli:main"
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"

    out = run_child([sys.executable, "-c", wrapper, "gen", "path", "3"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "((()))"

    # exit 2 here comes from main's return value, not from argparse
    out = run_child([sys.executable, "-c", wrapper, "widths", "(()"])
    assert out.returncode == 2
    assert "unbalanced" in out.stderr


def test_usage_error_exits_2():
    # `oracle` is no subcommand: the exhaustive searches are library calls
    for argv, word in ((["frobnicate"], "frobnicate"), (["oracle", "rank", "(()())"], "oracle")):
        out = run_child([sys.executable, "-m", "uptree.cli", *argv])
        assert out.returncode == 2
        assert out.stdout == ""
        assert "invalid choice" in out.stderr and word in out.stderr


# a straight drawing of (()()) with every point on the grid
ON_GRID = json.dumps({"mode": "unordered", "positions": {"0": [1, 3], "1": [1, 1], "2": [3, 2]},
                      "edges": [{"from": 0, "to": 1, "points": [[1, 3], [1, 1]]},
                                {"from": 0, "to": 2, "points": [[1, 3], [3, 2]]}]})
# the edge to node 2 crosses the wall x = 2 at y = 5/2, between grid points
OFF_GRID = json.dumps({"mode": "unordered", "positions": {"0": [1, 4], "1": [2, 3], "2": [3, 1]},
                       "edges": [{"from": 0, "to": 1, "points": [[1, 4], [2, 3]]},
                                 {"from": 0, "to": 2, "points": [[1, 4], [3, 1]]}]})


def test_draw_leaves_the_oracles_unloaded():
    # no command needs uptree.oracle (the CLI runs no exhaustive search),
    # only `render` needs uptree.render, and only an off-grid crossing
    # needs fractions; every other command would pay for loading them on
    # each start
    probe = ("import sys; from uptree.cli import main; "
             "codes = [main(['draw', '(()())', '--stats']), main(['widths', '(()())'])]; "
             "early = [m for m in ('uptree.render', 'dataclasses', 'fractions') "
             "if m in sys.modules]; "
             f"codes += [main(['verify', '(()())', {ON_GRID!r}]), main(['gen', 'random', '9']), "
             f"main(['render', {ON_GRID!r}])]; "
             "print(early, 'uptree.oracle' in sys.modules); sys.exit(max(codes))")
    out = run_child([sys.executable, "-c", probe])
    assert out.returncode == 0, out.stderr
    assert out.stdout.rstrip().endswith("\n[] False")


@pytest.mark.parametrize("drawing,loaded", [(ON_GRID, False), (OFF_GRID, True)],
                         ids=["on-grid", "off-grid"])
def test_verify_loads_fractions_only_off_the_grid(drawing, loaded):
    probe = ("import sys; from uptree.cli import main; "
             f"code = main(['verify', '(()())', {drawing!r}, '--witness']); "
             "print('fractions' in sys.modules); sys.exit(code)")
    out = run_child([sys.executable, "-c", probe])
    assert out.returncode == 0, out.stderr
    assert out.stdout.rstrip().endswith(str(loaded))
