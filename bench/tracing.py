"""Span tracing around the public entry points of roleforge's layers.

The tracer wraps functions from the outside: it swaps each traced function,
method and re-exported binding in the ``roleforge`` modules for a wrapper,
and puts the originals back on ``uninstall``.  Nothing inside the package is
edited, so an untraced run executes exactly the package's own code.

Self time is derived the usual way: a span's duration minus the time its
child spans cover.  The wrapper keeps a stack of open spans and adds each
finished span's duration to its parent's child time, so self time is exact
without storing every span.  Spans of the hot per-element functions (marked
``hot`` below) are only aggregated, because an op can make hundreds of
thousands of those calls; every other span is kept in memory with its name,
start, end, parent span and op id, and written out when the run ends.  Times
come from the clock the benchmark passes in (process CPU time).
"""

from __future__ import annotations

import json
import weakref
from typing import Optional

# (layer module, attribute path, hot).  The metric names are
# "<module>.<attribute path>.calls" and "<module>.<attribute path>.self_s".
TRACED = (
    ("cli", "main", False),
    ("formulas", "parse_formula", False),
    ("formulas", "parse_sequent", False),
    ("frames", "parse_frame", False),
    ("frames", "Frame.window", True),
    ("frames", "Frame.bot_member", True),
    ("frames", "Frame.bot_window_mask", False),
    ("rsr", "rsr", False),
    ("rsr", "closure", False),
    ("rsr", "blocker_masks", False),
    ("rsr", "role_lattice", False),
    ("rsr", "rsr_mask", True),
    ("rsr", "closure_mask", True),
    ("quantale", "quantale", False),
    ("quantale", "QuantaleOps.tensor_i", True),
    ("quantale", "QuantaleOps.join_i", True),
    ("quantale", "QuantaleOps.neg_i", True),
    ("quantale", "check_gq_laws", False),
    ("semantics", "interpretation", False),
    ("semantics", "Interpretation.atom", False),
    ("semantics", "Interpretation.eval", False),
    ("semantics", "Interpretation.entails", False),
    ("nmms", "decide", False),
    ("nmms", "reduction_trace", False),
    ("suites", "conservativity_suite", False),
    ("suites", "cap_stability_suite", False),
    ("suites", "compare_suite", False),
    ("morphisms", "check_conservative", False),
    ("morphisms", "check_continuous", False),
    ("morphisms", "preserves_bot", False),
    ("morphisms", "continuity_condition3", False),
)

LAYER_MODULES = ("cli", "formulas", "frames", "rsr", "quantale", "semantics",
                 "nmms", "suites", "morphisms")

ROOT_SPAN = "op"


def span_names() -> list[str]:
    return [f"{module}.{path}" for module, path, _ in TRACED]


class Tracer:
    """Collects spans, per-name call counts and self times, and counters."""

    def __init__(self, clock):
        self.clock = clock
        self.stats = {name: [0, 0.0] for name in span_names() + [ROOT_SPAN]}
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._decide_depth = 0
        self._atomic_leaves = 0
        self._window_seen = weakref.WeakSet()
        self._window_positions = 0
        self._blocker_seen = weakref.WeakSet()
        self._blocker_distinct = 0
        self._blocker_total = 0
        self._roles = 0
        self._quantales = weakref.WeakKeyDictionary()  # QuantaleOps -> dropped_sums seen
        self._dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _enter(self) -> tuple[int, Optional[int], float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        return sid, parent, self.clock()

    def _exit(self, name: str, sid: int, parent, t0: float, keep: bool):
        t1 = self.clock()
        _, child = self._stack.pop()
        dur = t1 - t0
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if keep:
            self.spans.append((sid, name, t0, t1, parent, self.op_id))

    def op(self, op_id: int, fn, scale: float = 1.0):
        """Run ``fn`` as the root span of op ``op_id``; returns its result.

        The op's self times are multiplied by ``scale``, the benchmark's
        machine-speed factor for the moment the op ran."""
        self.op_id = op_id
        for q in list(self._quantales.keys()):
            self._quantales[q] = getattr(q, "dropped_sums", 0)
        before = {name: entry[1] for name, entry in self.stats.items()}
        sid, parent, t0 = self._enter()
        try:
            return fn()
        finally:
            self._exit(ROOT_SPAN, sid, parent, t0, True)
            for name, entry in self.stats.items():
                entry[1] = before[name] + (entry[1] - before[name]) * scale
            for q, seen in list(self._quantales.items()):
                now = getattr(q, "dropped_sums", 0)
                self._dropped += now - seen
                self._quantales[q] = now

    def _wrap(self, name: str, fn, hot: bool):
        tracer = self
        hook = self._hooks().get(name)

        def traced(*args, **kwargs):
            sid, parent, t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, t0, not hot)
            if hook is not None:
                hook(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
            traced.cache_info = fn.cache_info
        return traced

    # -- counters -----------------------------------------------------------------

    def _hooks(self):
        return {
            "frames.Frame.window": self._on_window,
            "rsr.blocker_masks": self._on_blockers,
            "rsr.role_lattice": self._on_lattice,
        }

    def _on_window(self, args, out):
        frame = args[0]
        if frame not in self._window_seen:
            self._window_seen.add(frame)
            self._window_positions += len(out)

    def _on_blockers(self, args, out):
        frame = args[0]
        if frame not in self._blocker_seen:
            self._blocker_seen.add(frame)
            self._blocker_distinct += len(set(out))
            self._blocker_total += len(out)

    def _on_lattice(self, args, out):
        self._roles += len(out)

    def _wrap_bot_member(self, fn):
        inner = self._wrap("frames.Frame.bot_member", fn, True)
        tracer = self

        def bot_member(frame, p):
            if tracer._decide_depth:
                tracer._atomic_leaves += 1
            return inner(frame, p)

        bot_member.__wrapped__ = fn
        return bot_member

    def _wrap_decide(self, fn):
        inner = self._wrap("nmms.decide", fn, False)
        tracer = self

        def decide(*args, **kwargs):
            tracer._decide_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._decide_depth -= 1

        decide.__wrapped__ = fn
        return decide

    def _wrap_tensor(self, fn):
        inner = self._wrap("quantale.QuantaleOps.tensor_i", fn, True)
        seen = self._quantales

        def tensor_i(q, a, b):
            if q not in seen:
                seen[q] = getattr(q, "dropped_sums", 0)
            return inner(q, a, b)

        tensor_i.__wrapped__ = fn
        return tensor_i

    # -- installation -------------------------------------------------------------

    def install(self, package):
        """Patch the traced names in the layer modules, attributes of ``package``."""
        package_modules = {name: getattr(package, name) for name in LAYER_MODULES}
        special = {
            "frames.Frame.bot_member": self._wrap_bot_member,
            "nmms.decide": self._wrap_decide,
            "quantale.QuantaleOps.tensor_i": self._wrap_tensor,
        }
        replaced = {}
        for module_name, path, hot in TRACED:
            name = f"{module_name}.{path}"
            owner = package_modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue  # gone from the package: its metrics read 0
            make = special.get(name)
            wrapper = make(original) if make else self._wrap(name, original, hot)
            self._patch(owner, attr, wrapper)
            if not parents:
                replaced[id(original)] = (original, wrapper)
        # Re-exported bindings ("from .rsr import role_lattice") are separate
        # names for the same function object; patch those too.
        for module in package_modules.values():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        ratio = self._blocker_distinct / self._blocker_total if self._blocker_total else 0.0
        out["frames.window.positions"] = (self._window_positions, "count")
        out["rsr.role_lattice.roles"] = (self._roles, "count")
        out["rsr.blockers.distinct_ratio"] = (ratio, "ratio")
        out["quantale.dropped_sums"] = (self._dropped, "count")
        out["nmms.atomic_leaves"] = (self._atomic_leaves, "count")
        out["other.self_s"] = (self.stats[ROOT_SPAN][1], "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op_id}) + "\n")
