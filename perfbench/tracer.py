"""Span tracing of the threebraid layers, installed from outside the library.

Every public module-level function of the six layer modules is replaced,
at every module attribute that binds it (``from .x import y`` included),
by one wrapper that records a span.  A call therefore goes through
exactly one wrapper and is counted once.  Spans are kept in memory while
requests run and only turned into per-layer metrics afterwards.

A span is [name, start, end, parent, request, tally]: parent is the index
of the enclosing span (-1 for a request's root span), request the request
number, and tally an optional value read off the call's arguments and
result.  Self time is a span's duration minus the durations of its direct
children, which nest inside it.
"""

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("braid", "goeritz", "linalg", "embed", "forms", "expansions")
ROOT = "request"


def _criterion_tally(args, kwargs, result):
    change_making = kwargs.get("change_making",
                               args[2] if len(args) > 2 else True)
    return (not change_making, len(result))


# values recorded beside the span, for the counts and ratios below
TALLIES = {
    "embed.criterion_search": _criterion_tally,
    "forms.char_box": lambda args, kwargs, result: len(result),
    "expansions.generate_balanced":
        lambda args, kwargs, result: sum(len(ms) for ms in result.values()),
}


class Tracer:
    """Records spans around library calls made inside a request."""

    def __init__(self):
        self.spans = []
        self.top = -1
        self.request = None
        self._patched = []

    def begin_request(self, request_id):
        self.request = request_id
        self.top = len(self.spans)
        self.spans.append([ROOT, perf_counter(), None, -1, request_id, None])

    def end_request(self):
        self.spans[self.top][2] = perf_counter()
        self.top = -1
        self.request = None

    def _wrap(self, name, fn):
        tally = TALLIES.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            parent = self.top
            span = [name, 0.0, None, parent, self.request, None]
            self.top = len(spans)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.top = parent
            if tally is not None:
                span[5] = tally(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions wherever the package binds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from threebraid import braid
        names = {}
        for layer in LAYERS:
            module = sys.modules[f"threebraid.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    names[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        owners = [m for key, m in sys.modules.items()
                  if key == "threebraid" or key.startswith("threebraid.")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])
        canonical = braid.AltBraidWord.__dict__["canonical"]
        self._patched.append((braid.AltBraidWord, "canonical", canonical))
        braid.AltBraidWord.canonical = classmethod(
            self._wrap("braid.AltBraidWord.canonical", canonical.__func__))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def write(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span[:5]) + "\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


# metric groups: one self time over several functions
GROUPS = {
    "embed.witness_post": ("embed.normalize_sigma2",
                           "embed.extract_crossing_sigma2",
                           "embed.normalize_sigma0_and_extract",
                           "embed.verify_unknotting",
                           "embed.form_automorphisms"),
    "braid.canonical": ("braid.AltBraidWord.canonical", "braid.alt_canonical",
                        "goeritz.mirror_word"),
}

CALLS = ("embed.criterion_search", "goeritz.goeritz_3braid",
         "braid.almost_alt_unknot_test", "linalg.det", "forms.d_table_sharp",
         "forms.d_table_halfint_unknot", "forms.coker_map", "expansions.expand",
         "expansions.canonical_form", "expansions.generate_balanced")

SELF = ("embed.criterion_search", "embed.witness_post",
        "embed.word_symmetry_obstruction", "goeritz.goeritz_3braid",
        "goeritz.determinant", "braid.canonical",
        "braid.almost_alt_unknot_test", "linalg.det",
        "linalg.is_negative_definite", "linalg.inverse",
        "linalg.smith_normal_form", "forms.d_table_sharp",
        "forms.d_table_halfint_unknot", "forms.halfint_symmetry_test",
        "forms.coker_map", "expansions.expand", "expansions.canonical_form",
        "expansions.orthogonal_marked_structure",
        "expansions.completion_x_tail")


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    own = self_times(spans)
    calls, busy = {}, {}
    for span, t in zip(spans, own):
        calls[span[0]] = calls.get(span[0], 0) + 1
        busy[span[0]] = busy.get(span[0], 0.0) + t

    def self_s(key):
        return sum(busy.get(n, 0.0) for n in GROUPS.get(key, (key,)))

    out = {}
    for key in CALLS:
        out[f"{key}.calls"] = (calls.get(key, 0), "count")
    for key in SELF:
        out[f"{key}.self_s"] = (self_s(key), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(t for n, t in busy.items()
                                      if n.startswith(layer + ".")), "s")

    # a call that raised has no tally: count it as strict and empty
    searches = [(span[5] or (False, 0), t) for span, t in zip(spans, own)
                if span[0] == "embed.criterion_search"]
    relaxed = [t for (is_relaxed, _), t in searches if is_relaxed]
    hits = sum(1 for (_, found), _ in searches if found)
    out["embed.criterion_search.relaxed_calls"] = (len(relaxed), "count")
    out["embed.criterion_search.relaxed_self_s"] = (
        sum(relaxed), "s")
    out["embed.criterion_search.hit_ratio"] = (
        hits / len(searches) if searches else 0.0, "ratio")
    out["embed.criterion_search.witnesses"] = (
        sum(found for (_, found), _ in searches), "count")
    out["forms.char_box.points"] = (
        sum(span[5] or 0 for span in spans if span[0] == "forms.char_box"),
        "count")
    kept = sum(span[5] or 0 for span in spans
               if span[0] == "expansions.generate_balanced")
    expands = calls.get("expansions.expand", 0)
    out["expansions.dedup_ratio"] = (kept / expands if expands else 0.0,
                                     "ratio")
    return out
