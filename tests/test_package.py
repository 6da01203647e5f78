"""Names across the package: every submodule imports as a module, and no
production name looks like a test to pytest."""

import inspect
import pkgutil
import types

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
