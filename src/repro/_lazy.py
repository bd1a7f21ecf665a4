"""On-demand re-exports for package ``__init__`` modules (PEP 562).

A package imports eagerly only what every importer of it runs; each other
public name is listed in a ``name → (module, attribute)`` table and loaded
on first access, then cached in the package namespace so later lookups are
plain attribute reads.  ``dir()``, ``from pkg import *`` and attribute
access see the same names and objects as eager imports would give.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Tuple


def lazy_exports(namespace: dict, table: Dict[str, Tuple[str, str]]):
    """The ``(__getattr__, __dir__)`` pair serving ``table`` for the module
    whose globals are ``namespace``."""
    module_name = namespace["__name__"]

    def __getattr__(name: str):
        try:
            source, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(source), attr)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
