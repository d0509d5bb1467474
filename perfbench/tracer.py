"""Span recorder installed around the public functions of each oddsig layer.

Wrapping happens from the outside: every module-level name in the `oddsig`
package that refers to a traced function is replaced by one wrapper, so a
function imported by name into several modules (`polyring.uni_gcd`,
`ramify.uni_gcd`, `superell.uni_gcd`) is recorded at every call site.
Methods are patched on their class. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); an attribute "Class.method" patches a method
FUNCTIONS = {
    "exactnum.mul": ("oddsig.exactnum", "CyclotomicElement.__mul__"),
    "exactnum.inverse": ("oddsig.exactnum", "CyclotomicElement.inverse"),
    "exactnum.galois": ("oddsig.exactnum", "CyclotomicElement.galois"),
    "exactnum.lift_to": ("oddsig.exactnum", "CyclotomicElement.lift_to"),
    "polyring.uni_gcd": ("oddsig.polyring", "uni_gcd"),
    "polyring.uni_xgcd": ("oddsig.polyring", "uni_xgcd"),
    "polyring.uni_divmod": ("oddsig.polyring", "uni_divmod"),
    "polyring.uni_mul": ("oddsig.polyring", "uni_mul"),
    "polyring.substitute_linear": ("oddsig.polyring", "SparsePoly.substitute_linear"),
    "plane.is_automorphism": ("oddsig.plane", "is_automorphism"),
    "matgroup.closure": ("oddsig.matgroup", "closure"),
    "matgroup.element_order": ("oddsig.matgroup", "element_order"),
    "matgroup.cyclic_subgroups": ("oddsig.matgroup", "cyclic_subgroups"),
    "ramify.fixed_point_count": ("oddsig.ramify", "fixed_point_count"),
    "ramify.signature": ("oddsig.ramify", "signature"),
    "superell.build_family": ("oddsig.superell", "build_family"),
    "superell.genus_qgonal": ("oddsig.superell", "genus_qgonal"),
    "superell.qgonal_is_isomorphism": ("oddsig.superell", "qgonal_is_isomorphism"),
    "superell.qgonal_real_descent": ("oddsig.superell", "qgonal_real_descent"),
    "descent.weil_descent_order2": ("oddsig.descent", "weil_descent_order2"),
    "descent.family_isomorphic": ("oddsig.descent", "family_isomorphic"),
    "descent.family_rational_descent": ("oddsig.descent", "family_rational_descent"),
    "serialize.parse_input": ("oddsig.serialize", "parse_input"),
    "serialize.dumps": ("oddsig.serialize", "dumps"),
    "cli.run_command": ("oddsig.cli", "run_command"),
}


def _count_mul(counters, args, result):
    counters[f"exactnum.mul.calls.N{args[0].order}"] += 1


def _count_len(key):
    def count(counters, args, result):
        counters[key] += len(result)
    return count


# span name -> counter updated from (args, result) when the call returns
COUNTERS = {
    "exactnum.mul": _count_mul,
    "matgroup.closure": _count_len("matgroup.closure.elements"),
    "matgroup.cyclic_subgroups": _count_len("matgroup.cyclic_subgroups.count"),
}


class Recorder:
    """Spans as (name, start, end, parent index) in call order, plus counts."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function at every import site."""
        for name, (module_name, attr) in FUNCTIONS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = self.wrap(name, original)
                # an alias such as `__rmul__ = __mul__` shares the wrapper
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "oddsig" or mod_name.startswith("oddsig."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)

    def dump(self, path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        doc = dict(extra, names=names, counters=dict(self.counters),
                   spans=[[ids[n], start, end, parent]
                          for n, start, end, parent in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(names: list[str], spans: list) -> tuple[Counter, Counter]:
    """Calls and self time per span name; self time is the span's duration
    minus that of its direct children (spans nest on one thread)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), Counter()
    for i, (nid, start, end, _) in enumerate(spans):
        calls[names[nid]] += 1
        self_s[names[nid]] += (end - start) - child[i]
    return calls, self_s
