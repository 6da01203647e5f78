"""Names across the package: every submodule imports as a module, no
production name looks like a test to pytest, the package exports what its
submodules declare, importing it stays lazy, and the result records keep
their fields."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import uptree

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(uptree.__path__))


def test_submodules_import_as_modules_without_test_names():
    assert "tree" in SUBMODULES
    for name in SUBMODULES:
        ns: dict = {}
        exec(f"import uptree.{name} as m", ns)
        mod = ns["m"]
        assert isinstance(mod, types.ModuleType), name
        collectable = [
            attr for attr, obj in vars(mod).items()
            if (inspect.isfunction(obj) and attr.startswith("test"))
            or (inspect.isclass(obj) and attr.startswith("Test"))
        ]
        assert collectable == [], name
    assert uptree.rank(uptree.parse_tree("(()())")).root_rank() == 2


# the submodules whose __all__ the package exports, and what
# `from uptree import *` binds from them, with __version__
EXPORTED = ("tree", "widths", "ranking", "layout", "verify")
PUBLIC = {
    "Tree", "InputError", "ParseError", "parse_tree", "serialize_tree", "tree_to_json",
    "tree_from_json", "gen_path", "gen_complete_binary", "gen_quintary_family",
    "gen_hpd_family", "gen_random_tree", "rooted_pathwidth", "heavy_path_depth",
    "param_report", "ParamReport", "RpwAnnotation", "rank", "RankAnnotation", "RankWitness",
    "CornerWitness", "corner_scan", "validate_rank_witness", "rank_witness_to_json",
    "Drawing", "LayoutStats", "draw_unordered", "draw_ordered", "reduce_bends",
    "prune_collinear", "layout_stats", "drawing_to_json", "drawing_from_json", "check_drawing",
    "VerifyReport", "DrawingMismatch", "reorder_children_by_drawing", "extract_rank_witness",
    "__version__",
}


def test_package_exports_what_its_submodules_declare():
    declared = [name for module in EXPORTED
                for name in importlib.import_module(f"uptree.{module}").__all__]
    assert sorted(uptree.__all__) == sorted(declared + ["__version__"])
    assert [name for name in uptree.__all__ if not hasattr(uptree, name)] == []
    assert inspect.isfunction(uptree.rank)
    ns: dict = {}
    exec("from uptree import *", ns)
    assert set(ns) - {"__builtins__"} == PUBLIC


# what loads only on the path that needs it: json where the CLI writes
# text, fractions once a crossing falls off the grid, traceback on an
# internal error, and the oracles, the renderer and the CLI on their own;
# the CLI writes JSON, so only `import uptree` leaves json unloaded
LAZY = ("json", "fractions", "traceback", "uptree.oracle", "uptree.render", "uptree.cli")


@pytest.mark.parametrize("module,unloaded", [("uptree", LAZY), ("uptree.cli", LAZY[1:5])])
def test_import_stays_lazy(module, unloaded):
    # a fresh interpreter, and only what the import itself adds: what site
    # preloads does not count
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             f"print(sorted((set(sys.modules) - before) & set({unloaded!r})))")
    root = str(Path(uptree.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": root}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# every result record is a named tuple: its fields, in this order, are
# what the CLI emits through ``_asdict()`` and what callers unpack
RECORD_FIELDS = {
    "layout.Drawing": ("mode", "pos", "edges"),
    "layout.LayoutStats": ("width", "height", "max_bends_per_edge", "root_corner"),
    "verify.VerifyReport": ("planar", "upward", "strictly_upward", "order_preserving",
                            "straight_line", "width", "height", "max_bends", "violations", "ok"),
    "ranking.CornerWitness": ("side", "W", "Wprime", "sigma"),
    "ranking.RankWitness": ("W", "X", "v", "big", "rank_bounds"),
    "ranking.RankAnnotation": ("rank", "corner"),
    "widths.RpwAnnotation": ("rpw", "heavy_child"),
    "widths.ParamReport": ("n", "rpw", "hpd"),
    "oracle.NWRecord": ("W", "min_nodes_found", "search_bound"),
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_record_fields(name):
    module, cls = name.split(".")
    record = getattr(importlib.import_module(f"uptree.{module}"), cls)
    assert issubclass(record, tuple)
    assert record._fields == RECORD_FIELDS[name]
    values = range(len(record._fields))
    assert record(*values)._asdict() == dict(zip(RECORD_FIELDS[name], values))
