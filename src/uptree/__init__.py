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

from . import layout, ranking, tree, verify, widths
from .layout import *
from .ranking import *
from .tree import *
from .verify import *
from .widths import *

__version__ = "0.1.0"

# each submodule's __all__ is the one declaration of its public names
__all__ = [
    *tree.__all__, *widths.__all__, *ranking.__all__, *layout.__all__, *verify.__all__,
    "__version__",
]
