"""Exact quotient-covering signatures and field-of-definition descent checks
for algebraic curves with explicit automorphism data over cyclotomic fields.

Every CLI call is a fresh process, so `import oddsig` registers the layer
modules lazily (`importlib.util.LazyLoader`): each is put in `sys.modules`
and bound here without running, so `from . import plane` returns it unrun,
and it is compiled and executed on its first attribute access. A command
therefore pays only for the layers its handler reaches. `errors` imports
nothing and is loaded eagerly. The public names below are served from their
layers on first use (PEP 562).
"""

import importlib.util
import sys

from . import errors  # eager: it imports nothing, and the CLI catches its classes

_EXPORTS = {
    "descent": ("DescentVerdict", "FamilyTriple", "bielliptic_quartic",
                "family_rational_descent", "family_real_definability",
                "weil_descent_order2"),
    "exactnum": ("CyclotomicElement", "common_order", "euler_phi"),
    "matgroup": ("DEFAULT_BOUND", "closure"),
    "plane": ("PlaneCurve", "ProjMap", "is_automorphism", "is_smooth",
              "require_isomorphism"),
    "polyring": ("SparsePoly",),
    "ramify": ("Signature", "fixed_point_count", "is_odd_signature",
               "odd_signature_verdict", "signature"),
    "serialize": ("InputDocument", "parse_input", "to_document"),
    "superell": ("QGonalCurve", "QGonalMap", "qgonal_real_descent",
                 "qgonal_signature"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _register_lazy(name: str):
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

