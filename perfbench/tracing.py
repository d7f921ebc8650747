"""Spans around the library's public entry points, recorded from outside.

``Tracer.install`` rebinds each entry point, in every ``fatflats`` module
that holds it, to a wrapper that records a span; ``Tracer.uninstall``
puts the originals back.  No code under ``src/`` changes.  Spans live in
memory as (name, start, end, parent, query, attrs) and are written out
once, after the run.
"""

import importlib
import json
import math
import sys
import time


def _membership_lane(args, kwargs):
    form = args[0] if args else kwargs["form"]
    return ("interpolation.membership_q" if form.field == "rational"
            else "interpolation.membership_p")


def _modp_attrs(args, kwargs, result):
    rows, cols = (int(x) for x in args[0].shape)
    return {"cells": rows * cols, "ops": int(result[0]) * rows * cols,
            "p": int(args[1])}


# (module, attribute, span name or name(args, kwargs), attrs(args, kwargs,
# result) or None).  An attribute "Class.method" wraps the method on the
# class.  Numeric attrs are summed per span name; "p" is kept per span.
TARGETS = (
    ("fatflats.linalg", "rank_kernel_modp", "linalg.modp", _modp_attrs),
    ("fatflats.linalg", "rank_kernel_rational", "linalg.qq",
     lambda a, kw, r: {"cells": len(a[0]) * len(a[0][0]) if a[0] else 0}),
    ("fatflats.interpolation", "AdaptedTablesModP.__init__",
     "interpolation.tables_modp", None),
    ("fatflats.interpolation", "AdaptedTablesModP._build_next",
     "interpolation.tables_modp", lambda a, kw, r: {"degrees": 1}),
    ("fatflats.interpolation", "AdaptedTablesModP.block",
     "interpolation.block", lambda a, kw, r: {"rows": int(r.shape[0])}),
    ("fatflats.interpolation", "_stack_modp", "interpolation.block", None),
    ("fatflats.interpolation", "AdaptedTablesQQ.__init__",
     "interpolation.tables_qq", None),
    ("fatflats.interpolation", "AdaptedTablesQQ._build_next",
     "interpolation.tables_qq", lambda a, kw, r: {"degrees": 1}),
    ("fatflats.interpolation", "AdaptedTablesQQ.block",
     "interpolation.tables_qq", None),
    ("fatflats.interpolation", "_stack_rational", "interpolation.tables_qq",
     None),
    ("fatflats.interpolation", "membership", _membership_lane, None),
    ("fatflats.interpolation", "alpha_symbolic", "interpolation.alpha", None),
    ("fatflats.bounds", "upper_bounds", "bounds", None),
    ("fatflats.bounds", "attach_lower", "bounds", None),
    ("fatflats.bounds", "star_core_lower", "bounds", None),
    ("fatflats.bounds", "nef_lower", "bounds", None),
    ("fatflats.bounds", "monotone_lower", "bounds", None),
    ("fatflats.divisors", "verify_nef", "divisors", None),
    ("fatflats.divisors", "lower_bound", "divisors", None),
    ("fatflats.classify", "classify", "classify", None),
    ("fatflats.serialization", "report_to_dict", "serialization", None),
    ("fatflats.serialization", "alpha_record_to_dict", "serialization", None),
    ("fatflats.serialization", "classification_to_dict", "serialization",
     None),
    ("fatflats.serialization", "dump_json", "serialization",
     lambda a, kw, r: {"bytes": len(r)}),
)

NAME, START, END, PARENT, QUERY, ATTRS = range(6)


class Tracer:
    """In-memory span recorder; ``query`` tags the spans of the current
    query."""

    def __init__(self):
        self.spans = []
        self.query = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name,
                    time.perf_counter(), None, stack[-1] if stack else -1,
                    self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, attrs))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fatflats"
                                       or mod_name.startswith("fatflats.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, fh, pass_index):
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({"pass": pass_index, "id": i, "name": s[NAME],
                                 "start": s[START], "end": s[END],
                                 "parent": s[PARENT], "query": s[QUERY],
                                 "attrs": s[ATTRS]}) + "\n")


def self_times(spans):
    """Per-span self time: its duration minus the part covered by its
    direct children (spans nest, one thread, so children are disjoint)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans):
    """{span name: {"calls", "self_s", attr sums...}} over all spans."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (s[ATTRS] or {}).items():
            if key != "p":
                entry[key] = entry.get(key, 0) + value
    return out


def modp_details(spans):
    """Eliminations mod p: the longest call, the time spent on a confirming
    prime (every elimination whose prime differs from the first one its
    alpha call used), and the number of eliminations on first primes."""
    max_call, confirm, primary_calls = 0.0, 0.0, 0
    primary = {}
    for s in spans:
        a = s[ATTRS]
        if s[NAME] != "linalg.modp" or a is None:  # None: the call raised
            continue
        dur = s[END] - s[START]
        max_call = max(max_call, dur)
        owner = _enclosing(spans, s, "interpolation.alpha")
        if primary.setdefault(owner, a["p"]) == a["p"]:
            primary_calls += 1
        else:
            confirm += dur
    return {"max_call_s": max_call, "confirm_s": confirm,
            "primary_calls": primary_calls}


def _enclosing(spans, span, name):
    parent = span[PARENT]
    while parent >= 0 and spans[parent][NAME] != name:
        parent = spans[parent][PARENT]
    return parent


def percentile(samples, q, min_beyond=10):
    """Nearest-rank q-quantile, or None when fewer than ``min_beyond``
    samples lie beyond it (a tail percentile needs that many to mean
    anything)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]
