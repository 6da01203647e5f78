"""Plain-text and SVG output for drawings.

Both renderers are deterministic: same drawing in, byte-identical text
out.  No timestamps, no generated ids.  ASCII output needs a dense grid,
so it refuses drawings whose bounding box is out of scale with their
content (the 1-bend layouts stretch rows exponentially on purpose).
"""

from __future__ import annotations

from .layout import Drawing, _extent
from .tree import InputError

__all__ = ["render_svg", "render_ascii"]

_CELL_CAP = 10_000_000


def render_svg(d: Drawing) -> str:
    """Standalone SVG document, 28 units to a grid step; y flipped so the
    root ends up on top."""
    unit = 28
    x0, x1, y0, y1, _ = _extent(d.pos, d.edges.values())
    ox = unit - x0 * unit
    oy = (y1 + 1) * unit
    w = (x1 - x0 + 2) * unit
    h = (y1 - y0 + 2) * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for key in sorted(d.edges):
        pts = " ".join(f"{x * unit + ox},{oy - y * unit}" for x, y in d.edges[key])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="#555" stroke-width="2"/>'
        )
    for u in sorted(d.pos):
        x, y = d.pos[u]
        out.append(f'<circle cx="{x * unit + ox}" cy="{oy - y * unit}" r="5" fill="#1a66a8"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_ascii(d: Drawing) -> str:
    """Character grid: 'o' nodes, '+' bends, '|', '-', '/', '\\' lines.

    Raises InputError when the grid would exceed about 10^7 cells.
    """
    x0, x1, y0, y1, _ = _extent(d.pos, d.edges.values())
    w = x1 - x0 + 1
    h = y1 - y0 + 1
    if w * h > _CELL_CAP:
        raise InputError(
            f"grid of {w} x {h} cells is too large to print; "
            "this drawing is meant for the json or svg output"
        )
    # two columns per grid column so diagonals have room to breathe
    grid = [[" "] * (2 * w - 1) for _ in range(h)]

    def cell(x, y):
        return (y1 - y), 2 * (x - x0)

    def put(r, c, ch):
        if grid[r][c] == " ":
            grid[r][c] = ch

    # put keeps the first character written to a cell, so walk the edges
    # in key order: the text must not depend on the order of the dict
    lines = [d.edges[key] for key in sorted(d.edges)]
    for pts in lines:
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            ra, ca = cell(ax, ay)
            rb, cb = cell(bx, by)
            if ca == cb:
                for r in range(min(ra, rb) + 1, max(ra, rb)):
                    put(r, ca, "|")
            elif ra == rb:
                for c in range(min(ca, cb) + 1, max(ca, cb)):
                    put(ra, c, "-")
            else:
                steps = max(abs(rb - ra), abs(cb - ca))
                ch = "\\" if (cb - ca) * (rb - ra) > 0 else "/"
                for s in range(1, steps):
                    r = ra + round((rb - ra) * s / steps)
                    c = ca + round((cb - ca) * s / steps)
                    put(r, c, ch)
    for pts in lines:
        for x, y in pts[1:-1]:
            r, c = cell(x, y)
            put(r, c, "+")
    for u, (x, y) in d.pos.items():
        r, c = cell(x, y)
        grid[r][c] = "o"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"
