"""Lazy package façades (PEP 562).

Each package ``__init__`` names its public symbols once, in an
``_EXPORTS`` map from name to defining module, and imports nothing: a
symbol's module loads on first attribute access, so a process pays only
for the code it reaches (a serve worker never loads scipy or the DL,
BLAS and power simulators).
"""

import importlib
import sys


def lazy_exports(module_name: str, exports: dict[str, str]):
    """The ``__getattr__`` and ``__dir__`` of a façade whose public
    names ``exports`` maps to the modules defining them."""
    namespace = vars(sys.modules[module_name])

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value  # later lookups skip __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
