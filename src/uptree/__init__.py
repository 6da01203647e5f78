"""Minimum-width planar upward drawings of rooted trees.

The library computes the two width parameters of a rooted tree -- the
rooted pathwidth rpw(T) (optimal when children may be permuted) and the
rank (optimal when child order must be preserved) -- and produces grid
drawings that meet them:

* :func:`draw_unordered` -- straight-line, width rpw(T), height n;
* :func:`draw_ordered`   -- order-preserving, width rank(T), at most
  3 bends per edge, height at most 2n-1;
* :func:`reduce_bends`   -- same width with at most 1 bend per edge, at
  the price of large (possibly exponential) coordinates.

:func:`check_drawing` verifies the geometry of any drawing exactly, in
integer arithmetic with exact rationals only off the grid points, and
:mod:`uptree.oracle` re-derives the rank, rpw and pathwidth by brute
force for cross-checking.

Bad input where the library checks it -- malformed tree text or JSON,
a drawing that does not describe its tree, a size or range argument out
of bounds -- raises :class:`InputError`, a ``ValueError``.
"""

from .layout import (
    Drawing,
    LayoutStats,
    draw_ordered,
    draw_unordered,
    drawing_from_json,
    drawing_to_json,
    layout_stats,
    prune_collinear,
    reduce_bends,
)
from .ranking import (
    CornerWitness,
    RankAnnotation,
    RankWitness,
    rank,
    validate_corner_witness,
    validate_rank_witness,
)
from .tree import (
    InputError,
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
from .verify import (
    DrawingMismatch,
    VerifyReport,
    check_drawing,
    extract_rank_witness,
    reorder_children_by_drawing,
)
from .widths import ParamReport, heavy_path_depth, param_report, rooted_pathwidth

__version__ = "0.1.0"

__all__ = [
    "Tree",
    "InputError",
    "ParseError",
    "parse_tree",
    "serialize_tree",
    "tree_to_json",
    "tree_from_json",
    "gen_path",
    "gen_complete_binary",
    "gen_quintary_family",
    "gen_hpd_family",
    "gen_random_tree",
    "rooted_pathwidth",
    "heavy_path_depth",
    "param_report",
    "ParamReport",
    "rank",
    "RankAnnotation",
    "RankWitness",
    "CornerWitness",
    "validate_rank_witness",
    "validate_corner_witness",
    "Drawing",
    "LayoutStats",
    "draw_unordered",
    "draw_ordered",
    "reduce_bends",
    "prune_collinear",
    "layout_stats",
    "drawing_to_json",
    "drawing_from_json",
    "check_drawing",
    "VerifyReport",
    "DrawingMismatch",
    "reorder_children_by_drawing",
    "extract_rank_witness",
    "__version__",
]
