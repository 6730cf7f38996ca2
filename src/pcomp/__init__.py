"""p-competition graphs of digraphs: cover verification, constructions for
cycles and cycle complements, digraph realization, and exact desk-scale
oracles.

``import pcomp`` runs ``errors`` and ``graphs``.  ``covers``,
``competition``, ``realization`` and ``oracle`` go into ``sys.modules``
unrun, and each runs its body on the first read, write or delete of one of
its attributes, under one lock, so threads may touch them at once.  The
public names below resolve on first read to the module that defines them,
so ``python -m pcomp gen`` compiles ``graphs`` and none of the four.
"""

import sys as _sys
import types as _types
from _thread import RLock as _RLock
from importlib.machinery import PathFinder as _PathFinder
from importlib.util import module_from_spec as _module_from_spec

from . import errors, graphs

__version__ = "0.1.0"

# module -> the public names it defines; __all__ is their union
_EXPORTS = {
    "competition": ("common_prey_count", "p_competition_graph"),
    "covers": (
        "REASON_FAMILY_SMALLER_THAN_P", "REASON_NONEDGE_IN_P_SETS", "REASON_UNCOVERED_EDGE",
        "CliqueCover", "Verdict", "complement_cycle_cover", "cover_from_json_dict",
        "cover_to_json_dict", "cycle_cover", "lift_cover", "verify_ecc", "verify_p_ecc"),
    "errors": (
        "InfeasibleError", "InvalidParameterError", "PcompError", "ScaleError",
        "UnsupportedInstanceError"),
    "graphs": (
        "Digraph", "Graph", "complement", "digraph_from_json_dict", "digraph_to_dot",
        "digraph_to_json_dict", "graph_from_json_dict", "graph_to_dot", "graph_to_json_dict",
        "is_clique", "make_cycle"),
    "oracle": (
        "Decision", "SearchResult", "exact_theta_e", "exact_theta_e_p", "is_p_competition",
        "maximal_cliques"),
    "realization": ("is_acyclic", "realize", "realize_acyclic", "satisfies_acyclic_ordering"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

_LOCK = _RLock()
_RUNNING = set()  # deferred modules whose body is running, in the lock holder


class _Deferred(_types.ModuleType):
    """A submodule whose body has not run: any attribute access runs it."""

    def __getattribute__(self, name):
        _run(self)
        return _types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        _types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        _types.ModuleType.__delattr__(self, name)


def _run(module: _Deferred) -> None:
    """Run a deferred module's body once and make it a plain module.

    Holding the lock until the body has run keeps other threads from reading
    a half-run module; the thread running it reads through (it is in
    _RUNNING), and so do the bodies it imports.
    """
    with _LOCK:
        if type(module) is _Deferred and module not in _RUNNING:
            _RUNNING.add(module)
            try:
                module.__spec__.loader.exec_module(module)
                module.__class__ = _types.ModuleType
            finally:
                _RUNNING.discard(module)


def _defer(name: str) -> _types.ModuleType:
    spec = _PathFinder.find_spec(f"{__name__}.{name}", __path__)
    module = _module_from_spec(spec)
    module.__class__ = _Deferred
    _sys.modules[spec.name] = module
    return module


competition = _defer("competition")
covers = _defer("covers")
oracle = _defer("oracle")
realization = _defer("realization")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    # as if every name were imported: no helper of the deferred loading
    return sorted({*__all__, *(k for k in globals() if k[0] != "_" or k[:2] == "__")}
                  - {"__getattr__", "__dir__"})
