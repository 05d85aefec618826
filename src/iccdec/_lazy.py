"""Deferred imports, so that a CLI call executes only the modules it uses.

exports gives a package PEP 562 attribute hooks that import a public name's
submodule, or the submodule itself, on first use.  A module that defers an
edge to a sibling reaches it through its package at the point of use (for
example groups.hnn.Hnn), so the first use runs under the import system's
module lock and every later one is a plain attribute read.
"""

import importlib
import sys


def exports(package: str, table: dict[str, tuple[str, ...]]):
    """__getattr__ and __dir__ for a package whose public names live in
    submodules: table maps each submodule to the names it exports.  A
    resolved name is stored on the package, so the hook runs once per name;
    a submodule's own name resolves to the submodule."""
    namespace = vars(sys.modules[package])
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name in table:
            return importlib.import_module(f"{package}.{name}")
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(f"{package}.{source[name]}"), name
        )
        return value

    def __dir__():
        return sorted({*namespace, *source, *table})

    return __getattr__, __dir__
