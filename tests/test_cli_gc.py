"""The CLI leaves no cyclic garbage that grows with its input.

``cli.main`` runs a command with the cyclic garbage collector switched
off.  Garbage caught in a reference cycle is then freed only at exit, so
this is safe only while a command leaves a bounded number of cyclic
objects whatever the size of its input.  Each test runs one subcommand
through ``main()`` with the collector off, on trees of 10^3 and 10^4
nodes, and asks ``gc.collect()`` how many unreachable objects each run
left behind.
"""

import gc
import json

import pytest

from uptree.cli import main
from uptree.tree import gen_random_tree, serialize_tree, tree_to_json

SMALL, LARGE = 1000, 10000


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def _inputs(tmp_path, capsys, n):
    """Files for a random tree of n nodes: paren text, tree JSON and an
    ordered3 drawing."""
    t = gen_random_tree(n, seed=1)
    text = tmp_path / f"tree{n}.txt"
    text.write_text(serialize_tree(t))
    blob = tmp_path / f"tree{n}.json"
    blob.write_text(json.dumps(tree_to_json(t)))
    assert main(["draw", str(text)]) == 0
    drawing = tmp_path / f"drawing{n}.json"
    drawing.write_text(capsys.readouterr().out)
    return {"text": str(text), "json": str(blob), "drawing": str(drawing),
            "bad": str(text) + ")", "out": str(tmp_path / f"out{n}.svg"), "n": str(n)}


# the oracles are exhaustive and capped at a few nodes: their input does
# not grow with n, and they are here to show they leave a bounded count too
COMMANDS = {
    "widths": (["widths", "{text}"], 0),
    "widths-json": (["widths", "{json}"], 0),
    "draw-unordered": (["draw", "{text}", "--mode", "unordered", "--stats"], 0),
    "draw-ordered3": (["draw", "{text}", "--mode", "ordered3", "--prune-collinear"], 0),
    "draw-ordered1": (["draw", "{json}", "--mode", "ordered1"], 0),
    "verify": (["verify", "{text}", "{drawing}", "--witness",
                "--require", "planar,upward,order_preserving"], 0),
    "gen": (["gen", "random", "{n}", "--seed", "3"], 0),
    "gen-json": (["gen", "random", "{n}", "--json"], 0),
    "render": (["render", "{drawing}", "--format", "svg", "--out", "{out}"], 0),
    "input-error": (["widths", "{bad}"], 2),
    "oracle-rank": (["oracle", "rank", "(()(()())(()))"], 0),
    "oracle-nw": (["oracle", "nw", "2", "--n-max", "6"], 0),
}


def _left_behind(capsys, argv, code) -> int:
    gc.collect()
    assert main(argv) == code
    capsys.readouterr()
    return gc.collect()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cyclic_garbage_does_not_grow_with_n(name, tmp_path, capsys, collector_off):
    argv, code = COMMANDS[name]
    counts = []
    for n in (20, SMALL, LARGE):  # the first run pays for lazy imports
        files = _inputs(tmp_path, capsys, n)
        counts.append(_left_behind(capsys, [a.format(**files) for a in argv], code))
    assert counts[2] <= counts[1], counts


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_the_collector_and_restores_it(enabled, capsys, monkeypatch):
    import uptree.cli as cli

    seen = []
    report = cli.param_report
    monkeypatch.setattr(cli, "param_report", lambda t: seen.append(gc.isenabled()) or report(t))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["widths", "(()())"]) == 0
        assert main(["widths", "(()"]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    capsys.readouterr()
