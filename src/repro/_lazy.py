"""Lazy package exports (PEP 562).

A package ``__init__`` lists which submodule holds each name it exports;
the submodule is imported the first time one of its names is read, and
the name is then kept in the package's namespace.  Later reads -- and a
test or benchmark that patches the name there -- see an ordinary module
attribute.  ``from package import name``, ``from package import *``,
``dir(package)`` and ``__all__`` read as if the imports were eager, but
a process imports only the submodules whose names it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``table`` maps a submodule, relative to the package (``".config"``),
    to the names the package exports from it.
    """
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
