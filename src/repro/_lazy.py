"""Lazy package exports (PEP 562 module ``__getattr__``/``__dir__``).

A package ``__init__`` declares its public names as one table,
submodule -> names, and imports nothing itself::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        ".bus": ("SharedBus",),
        ".topology": ("BusSystem", "build_single_bus_system"),
    })

A name's submodule is imported on first access (``repro.bus.SharedBus``,
``from repro.bus import SharedBus`` or ``from repro.bus import *``) and
the value is then stored on the package, so every later lookup is a
plain attribute read that never reaches ``__getattr__``.  Importing a
package therefore loads only what its caller uses: ``import
repro.experiments.system`` loads the simulator, not the campaign
supervisor, the result cache or ``multiprocessing``.

Keys are :func:`importlib.import_module` names: a leading dot names a
submodule of the package, anything else is absolute
(``"repro.experiments.supervisor": ("JobSpec",)`` re-exports another
package's name).  Keep the table a
literal: the linter's flow engine reads it from the AST to resolve
``from <package> import <name>`` (:mod:`repro.analysis.flow.summary`).
"""

import importlib


def lazy_exports(namespace, table):
    """``(__all__, __getattr__, __dir__)`` for the package whose module
    globals are ``namespace``, exporting ``table``'s names lazily."""
    package = namespace["__name__"]
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name):
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError("module {!r} has no attribute {!r}".format(
                package, name)) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
