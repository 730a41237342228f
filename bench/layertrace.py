"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the ten layer modules
with a wrapper, in the defining module and in every tropcyl module that
imported it by name. It also wraps, on every public class a layer module
defines, the methods and property getters written in that module's source:
public ones and the operators in `_OPERATORS` (so `Fan.__hash__` and
`__eq__`, `CurveClass.__add__` and `__sub__`, but not what `dataclass`
generates). Each wrapped call is a span (name, start, end, parent). Spans
are folded into per-layer totals as they close, and the benchmark takes the
totals after every operation:

* `time_s`: time inside the layer's outermost spans, that is, calls into the
  layer from the benchmark or from another layer;
* `self_s`: span time not covered by wrapped child spans;
* `calls`: wrapped calls into the layer.

Work counters are taken from the results of a few functions.
Only the first SPAN_CAP spans are kept as records, so memory stays bounded
on workloads that make millions of calls; the totals cover every span.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

SPAN_CAP = 50_000
LAYERS = (
    "lattice", "model", "walls", "classes", "tropical",
    "counting", "deformation", "config", "svg", "cli",
)

_OPERATORS = frozenset({
    "__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__",
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
})

COUNTERS = (
    "counting.queries",
    "counting.classes_listed",
    "classes.make_class_calls",
    "classes.add_calls",
    "classes.class_from_profile_calls",
    "classes.intersect_calls",
    "walls.directions",
    "walls.idle_steps",
    "walls.is_wall_calls",
    "deformation.replay_checks",
    "deformation.convolve_calls",
    "deformation.support_terms",
    "tropical.extension_class_calls",
    "tropical.classify_calls",
    "svg.bytes",
    "cli.invocations",
)


def _idle_steps(structure) -> int:
    last = max((s for _, s in structure.directions), default=0)
    return structure.steps - last


# function -> [(counter, amount(result))]
_COUNTED = {
    "counting.count_primitive_cylinder": [("counting.queries", lambda r: 1)],
    "counting.contributing_classes": [("counting.classes_listed", len)],
    "classes.make_class": [("classes.make_class_calls", lambda r: 1)],
    "classes.CurveClass.__add__": [("classes.add_calls", lambda r: 1)],
    "classes.CurveClass.__sub__": [("classes.add_calls", lambda r: 1)],
    "classes.class_from_profile": [("classes.class_from_profile_calls", lambda r: 1)],
    "classes.intersect": [("classes.intersect_calls", lambda r: 1)],
    "walls.generate_walls": [
        ("walls.directions", lambda r: len(r.directions)),
        ("walls.idle_steps", _idle_steps),
    ],
    "walls.is_wall_direction": [("walls.is_wall_calls", lambda r: 1)],
    "deformation.replay_induction": [("deformation.replay_checks", lambda r: len(r.checks))],
    "deformation.convolve": [("deformation.convolve_calls", lambda r: 1)],
    "deformation.family_support": [("deformation.support_terms", len)],
    "tropical.extension_class": [("tropical.extension_class_calls", lambda r: 1)],
    "tropical.classify": [("tropical.classify_calls", lambda r: 1)],
    "svg.render_walls": [("svg.bytes", lambda r: len(r.encode()))],
    "svg.render_tree": [("svg.bytes", lambda r: len(r.encode()))],
    "cli.main": [("cli.invocations", lambda r: 1)],
}


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.time_s = [0.0] * n
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.dropped = 0
        self.active = False  # calls made while inactive, as by the checks, go untraced
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: int, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        counted = _COUNTED.get(name, ())
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [0.0, layer, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dt = end - start
                self.calls[layer] += 1
                self.self_s[layer] += dt - frame[0]
                if parent is None:
                    self.time_s[layer] += dt
                    parent_id = -1
                else:
                    parent[0] += dt
                    if parent[1] != layer:
                        self.time_s[layer] += dt
                    parent_id = parent[2]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, name_idx, start, end, parent_id))
                else:
                    self.dropped += 1
            for counter, amount in counted:
                self.counters[counter] += amount(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever tropcyl modules bind them,
        and the methods and properties of the layers' public classes."""
        originals: dict[int, object] = {}
        classes = []
        for layer, short in enumerate(LAYERS):
            mod = sys.modules[f"tropcyl.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                if isinstance(obj, type):
                    classes.append((layer, f"{short}.{attr}", obj, mod.__file__))
                else:
                    originals[id(obj)] = self._wrap(obj, layer, f"{short}.{attr}")
        modules = [m for k, m in sys.modules.items() if k == "tropcyl" or k.startswith("tropcyl.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for layer, prefix, klass, source in classes:
            for attr, member in list(vars(klass).items()):
                if attr.startswith("_") and attr not in _OPERATORS:
                    continue
                wrapped = self._wrap_member(member, layer, f"{prefix}.{attr}", source)
                if wrapped is not None:
                    self._patched.append((klass, attr, member))
                    setattr(klass, attr, wrapped)

    def _wrap_member(self, member, layer: int, name: str, source: str):
        """A wrapped copy of a class attribute written in `source`, or None."""
        if isinstance(member, property):
            fn = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            fn = member.__func__
        else:
            fn = member
        if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
            return None
        wrapper = self._wrap(fn, layer, name)
        if isinstance(member, property):
            return property(wrapper, member.fset, member.fdel, member.__doc__)
        if isinstance(member, (staticmethod, classmethod)):
            return type(member)(wrapper)
        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def take(self) -> dict[str, float]:
        """The layer totals and counters since the last take, then zero them."""
        out: dict[str, float] = {}
        for k, short in enumerate(LAYERS):
            out[f"{short}.time_s"] = self.time_s[k]
            out[f"{short}.self_s"] = self.self_s[k]
            out[f"{short}.calls"] = self.calls[k]
        out.update(self.counters)
        n = len(LAYERS)
        self.time_s, self.self_s, self.calls = [0.0] * n, [0.0] * n, [0] * n
        self.counters = dict.fromkeys(COUNTERS, 0)
        return out

    def dump(self) -> dict:
        return {
            "names": self.names,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "span_cap": SPAN_CAP,
            "dropped": self.dropped,
        }


def round_metrics(takes) -> dict[str, float]:
    """Sum per-operation takes into one round's per-layer metrics."""
    out: dict[str, float] = {}
    for taken in takes:
        for name, value in taken.items():
            out[name] = out.get(name, 0) + value
    queries = out["counting.queries"]
    out["counting.classes_listed_per_query"] = (
        out["counting.classes_listed"] / queries if queries else 0.0
    )
    return out
