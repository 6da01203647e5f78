"""SVG and ascii rendering."""

import pytest

from uptree.layout import (
    Drawing,
    draw_ordered,
    draw_unordered,
    drawing_from_json,
    drawing_to_json,
    reduce_bends,
)
from uptree.render import render_ascii, render_svg
from uptree.tree import gen_path, parse_tree

EXAMPLE = "(()()(()()))"


def test_svg_structure():
    d = draw_ordered(parse_tree(EXAMPLE))
    svg = render_svg(d)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert svg.count("<circle") == 6
    assert svg.count("<polyline") == 5


def test_svg_deterministic():
    d = draw_ordered(parse_tree(EXAMPLE))
    assert render_svg(d) == render_svg(d)
    # same drawing content built twice renders identically
    d2 = draw_ordered(parse_tree(EXAMPLE))
    assert render_svg(d) == render_svg(d2)


def test_svg_draws_at_fixed_scale():
    # 28 units to a grid step, one step of margin around the drawing
    svg = render_svg(draw_unordered(parse_tree("(())")))
    assert svg.splitlines()[0].endswith('viewBox="0 0 56 84" width="56" height="84">')
    assert '<polyline points="28,28 28,56"' in svg
    assert svg.count('r="5"') == 2


def test_ascii_path():
    d = draw_unordered(gen_path(3))
    art = render_ascii(d)
    assert art.splitlines() == ["o", "o", "o"]
    assert art.endswith("\n")


def test_ascii_marks():
    t = parse_tree(EXAMPLE)
    art = render_ascii(draw_ordered(t))
    assert art.count("o") == t.n
    # the example drawing has real bends and vertical runs
    assert "+" in art
    assert any(ch in art for ch in "|/\\")
    for line in art.splitlines():
        assert line == line.rstrip()


def test_ascii_bend_and_node_overwrite():
    # node marker wins over path characters at the same cell
    t = parse_tree("(()())")
    art = render_ascii(reduce_bends(draw_ordered(t), t))
    assert art.count("o") == 3


@pytest.mark.parametrize("shape", ["(()()(()))", EXAMPLE])
def test_ascii_independent_of_edge_order(shape):
    # cells that two edges share must get the same character whatever the
    # order of the edge dict: in memory, after a JSON round-trip, reversed
    t = parse_tree(shape)
    for d in (draw_unordered(t), draw_ordered(t)):
        art = render_ascii(d)
        assert render_ascii(drawing_from_json(drawing_to_json(d))) == art
        backwards = dict(reversed(list(d.edges.items())))
        assert render_ascii(Drawing(d.mode, d.pos, backwards)) == art


def test_ascii_level_segment():
    d = Drawing(mode="unordered", pos={0: (1, 1), 1: (3, 1)},
                edges={(0, 1): [(1, 1), (3, 1)]})
    assert render_ascii(d) == "o---o\n"


def test_ascii_refuses_huge_grids():
    d = Drawing(mode="ordered1", pos={0: (1, 10**8), 1: (1, 1)},
                edges={(0, 1): [(1, 10**8), (1, 1)]})
    with pytest.raises(ValueError):
        render_ascii(d)
