"""PEP 562 lazy exports for the package ``__init__`` modules.

``repro`` and ``repro.live`` re-export names from their submodules.
Importing every submodule up front would load numpy, scipy and the
simulator into each process that imports the package — including every
live slave (``python -m repro.live.slave``), which needs none of them.
:func:`lazy_exports` instead resolves an exported name on first access
and caches it on the package, so ``from repro import Workload`` imports
only what ``Workload`` needs.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, List, Mapping, Sequence, Tuple


class _LazyPackage(types.ModuleType):
    """A package whose exports win over same-named submodules.

    The import system binds each loaded submodule on its package, so
    importing ``repro.live.validate`` would rebind ``repro.live.validate``
    from the exported function to the module.  An eager ``from
    repro.live.validate import validate`` in the ``__init__`` never let
    that happen; this keeps the export bound the same way.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in vars(self).get("__all__", ())):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], List[str]]:
    """Serve ``exports`` (defining module -> names) from ``package``.

    Returns the package's module ``__getattr__`` and its ``__all__``
    (every exported name, in table order).  Call it from the package's
    ``__init__`` as ``__getattr__, __all__ = lazy_exports(__name__, ...)``.
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    sys.modules[package].__class__ = _LazyPackage
    return __getattr__, list(home)
