"""Lazy package surfaces (PEP 562), shared by every ``repro`` package.

A package ``__init__`` declares which names each submodule provides and
hands the table to :func:`attach`; the submodule is imported the first
time one of its names is read, not when the package is imported.  A
fresh process therefore pays only for what its command runs: ``repro
--help`` never loads numpy, and ``repro analyze`` never loads the
serve loop, the SAT tier or the netlist readers (see
docs/performance.md, "Cold start").

Usage, in a package ``__init__``::

    from .._lazy import attach

    __all__, __getattr__, __dir__ = attach(__name__, {
        ".gate": ["GateType", "evaluate_gate"],
        ".circuit": ["Circuit", "CircuitError"],
    }, submodules=["patterns"])
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Sequence, Tuple


def attach(package: str, exports: Mapping[str, Sequence[str]],
           submodules: Iterable[str] = ()
           ) -> Tuple[List[str], Callable[[str], object],
                      Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule (relative, ``".gate"``) to the names it
    provides; ``submodules`` lists submodules that are themselves part
    of the surface (``repro.sim.patterns``).  The first read of any name
    imports its submodule and binds all of that submodule's names in the
    package namespace, so later reads are plain attribute hits.

    A submodule sharing its name with one of its own exports
    (``repro.circuit.unroll``) is bound eagerly: once imported, the
    import system sets the package attribute to the module, which would
    shadow the export.
    """
    namespace = sys.modules[package].__dict__
    owner = {name: module for module, names in exports.items()
             for name in names}
    submodules = list(submodules)
    public = list(owner) + submodules

    def bind(module: str) -> None:
        mod = importlib.import_module(module, package)
        for name in exports[module]:
            namespace[name] = getattr(mod, name)

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is not None:
            bind(module)
            return namespace[name]
        if name in submodules:
            return importlib.import_module(f".{name}", package)
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(public))

    for module, names in exports.items():
        if module.rpartition(".")[2] in names:
            bind(module)
    return public, __getattr__, __dir__
