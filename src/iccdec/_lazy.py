"""Deferred imports, so that a CLI call executes only the modules it uses.

lazy_module defers a module-level edge between submodules; executed tells
whether such a module has run; exports gives a package PEP 562 attribute
hooks that import a public name's submodule on first use.
"""

import importlib
import importlib.util
import sys
from types import ModuleType


def lazy_module(name: str):
    """The module called name, executed on its first attribute access.

    Like an executed import, it is bound on its parent package at once, so
    `from package import module` stays a plain attribute hit.  Before
    Python 3.12 the loader does not serialize that first access between
    threads."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


def executed(module) -> bool:
    """Whether module, as lazy_module returns it, has run.  Until it has,
    none of its classes exists, so no object is an instance of one; the
    test itself runs nothing."""
    return type(module) is ModuleType


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
