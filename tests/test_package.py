"""Names across the package: every submodule imports as a module, no
production name looks like a test to pytest, and the result records keep
their fields."""

import importlib
import inspect
import pkgutil
import types

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


# every result record is a named tuple: its fields, in this order, are
# what the CLI emits through ``_asdict()`` and what callers unpack
RECORD_FIELDS = {
    "layout.Drawing": ("mode", "pos", "edges"),
    "layout.LayoutStats": ("width", "height", "max_bends_per_edge", "root_corner"),
    "verify.VerifyReport": ("planar", "upward", "strictly_upward", "order_preserving",
                            "straight_line", "width", "height", "max_bends", "violations", "ok"),
    "ranking.CornerWitness": ("side", "W", "Wprime", "sigma"),
    "ranking.ScanFailure": ("index", "w", "reason"),
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
