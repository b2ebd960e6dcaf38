"""Outside-in tracing of corehooks for the benchmark's traced runs.

The package is not edited.  Tracer.install() replaces module-level names
that callers look up at call time (cli.py calls `total_hook_count` through
its own module globals, hookstats.py calls `t_cores_up_to` through its own,
and so on) with timing wrappers, and uninstall() puts the originals back.

Three kinds of boundary:

* SPANS: one span per call, with name, layer, start, end and parent.
* STREAMS: generators.  Opening one, and each next() on it, is timed and
  counted, and the totals are added to the enclosing span; a stream makes
  no span of its own, because a span per item would cost more than the item.
* ITEMS: per-item calls (hook lengths of one core, the representation of
  one h), likewise added to the enclosing span.

A name that has disappeared from its module is reported as unmeasured; the
run goes on and the layer reads 0 where nothing of it was measured.  Spans
are kept in memory and returned by report() when the pass ends.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

# (module, name, layer).  The layer is the module that owns the function.
SPANS = [
    ("cli", "main", "cli"),
    ("cli", "total_hook_count", "hookstats"),
    ("cli", "bias_table", "hookstats"),
    ("cli", "run_check", "verify"),
    ("cli", "bias_records_json", "verify"),
    ("cli", "core_count_series", "qseries"),
    ("verify", "bias_table", "hookstats"),
    ("verify", "cross_core_bias_table", "hookstats"),
    ("verify", "hook_count_table", "hookstats"),
]

# (module, name, counter for the items the stream yields)
STREAMS = [
    ("cli", "partitions_of", "generate.partitions"),
    ("cli", "t_cores_of", "generate.cores"),
    ("hookstats", "t_cores_of", "generate.cores"),
    ("hookstats", "t_cores_up_to", "generate.cores"),
    ("verify", "iter_partition_parts", "generate.partitions"),
    ("verify", "t_cores_of", "generate.cores"),
    ("verify", "t_cores_up_to", "generate.cores"),
]

# (module, name, counter)
ITEMS = [
    ("hookstats", "hook_lengths_of", "partition.hook_lengths_of"),
    ("cli", "odd_representation", "quadform.odd_representation"),
]

# The hook lengths a hookstats call asks for, from its bound arguments;
# None means every length is wanted.  Used for partition.useful_frac.
_REQUESTED = {
    "total_hook_count": lambda a: {a["k"]},
    "bias_table": lambda a: set(a["ks"]),
    "cross_core_bias_table": lambda a: {k for _, k in a["pairs"]},
    "hook_count_table": lambda a: None if a.get("ks") is None else set(a["ks"]),
}

# What a call returns that counts as work done.
_RESULT_COUNTERS = {
    "core_count_series": ("qseries.coeffs", lambda r: len(r.coeffs)),
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "child_s", "acc", "requested")

    def __init__(self, id_, name, layer, parent, requested=None):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = perf_counter()
        self.end = None
        self.child_s = 0.0  # time covered by direct child spans
        self.acc: dict[str, list] = {}  # counter -> [count, seconds]
        self.requested = requested

    def add(self, key: str, count, seconds: float = 0.0):
        slot = self.acc.get(key)
        if slot is None:
            self.acc[key] = [count, seconds]
        else:
            slot[0] += count
            slot[1] += seconds

    def self_s(self) -> float:
        inner = sum(s for _, s in self.acc.values())
        return (self.end - self.start) - self.child_s - inner


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    # -- installing the wrappers -------------------------------------------

    def install(self):
        # each `make` is called inside _patch, in its own loop iteration
        for mod, name, layer in SPANS:
            self._patch(mod, name, lambda fn: self._span_wrapper(fn, f"{mod}.{name}", layer))
        for mod, name, counter in STREAMS:
            self._patch(mod, name, lambda fn: self._stream_wrapper(fn, counter))
        for mod, name, counter in ITEMS:
            if name == "hook_lengths_of":
                self._patch(mod, name, self._hooks_wrapper)
            else:
                self._patch(mod, name, lambda fn: self._item_wrapper(fn, counter))

    def uninstall(self):
        while self._restore:
            module, name, fn = self._restore.pop()
            setattr(module, name, fn)

    def _patch(self, mod: str, name: str, make):
        qual = f"{mod}.{name}"
        try:
            module = importlib.import_module(f"corehooks.{mod}")
        except ImportError:
            self.unmeasured.append(qual)
            return
        fn = getattr(module, name, None)
        if not callable(fn):
            self.unmeasured.append(qual)
            return
        setattr(module, name, make(fn))
        self._restore.append((module, name, fn))

    # -- recording -----------------------------------------------------------

    def start(self):
        """Open the root span of a pass; every other span nests in it."""
        self._open("pass", "bench")

    def stop(self):
        while self._stack:
            self._close(self._stack[-1])

    def _open(self, name, layer, requested=None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, parent, requested)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def _span_wrapper(self, fn, qual, layer):
        name = qual.split(".", 1)[1]
        requested_of = _REQUESTED.get(name)
        counter = _RESULT_COUNTERS.get(name)
        sig = inspect.signature(fn) if requested_of else None
        tracer = self

        def wrapper(*args, **kwargs):
            requested = None
            if requested_of is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    requested = requested_of(bound.arguments)
                except (TypeError, KeyError):
                    if qual + ":requested" not in tracer.unmeasured:
                        tracer.unmeasured.append(qual + ":requested")
            span = tracer._open(qual, layer, requested)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                key, count = counter
                try:
                    span.add(key, count(result))
                except (AttributeError, TypeError):
                    if key not in tracer.unmeasured:
                        tracer.unmeasured.append(key)
            return result

        return wrapper

    def _stream_wrapper(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            it = iter(fn(*args, **kwargs))
            tracer._stack[-1].add("generate.streams", 1, perf_counter() - t0)
            return tracer._timed(it, counter)

        return wrapper

    def _timed(self, it, counter):
        stack = self._stack
        nxt = it.__next__
        while True:
            t0 = perf_counter()
            try:
                item = nxt()
            except StopIteration:
                stack[-1].add(counter, 0, perf_counter() - t0)
                return
            stack[-1].add(counter, 1, perf_counter() - t0)
            yield item

    def _item_wrapper(self, fn, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            stack[-1].add(counter, 1, perf_counter() - t0)
            return result

        return wrapper

    def _hooks_wrapper(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            hooks = fn(*args, **kwargs)
            t1 = perf_counter()
            span = stack[-1]
            span.add("partition.hook_lengths_of", 1, t1 - t0)
            span.add("partition.boxes", len(hooks))
            wanted = span.requested
            span.add("partition.useful", len(hooks) if wanted is None else sum(map(hooks.count, wanted)))
            # counting useful hooks costs about as much as the caller's own
            # use of them; keep it out of the caller's self time
            span.add("trace.bookkeeping", 0, perf_counter() - t1)
            return hooks

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (tracing overhead excluded: it is
        the difference between a traced and an untraced pass)."""
        acc: dict[str, list] = {}
        self_s: dict[str, float] = {}
        busy_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            for key, (count, secs) in span.acc.items():
                slot = acc.setdefault(key, [0, 0.0])
                slot[0] += count
                slot[1] += secs
            self_s[span.layer] = self_s.get(span.layer, 0.0) + span.self_s()
            busy_s[span.layer] = busy_s.get(span.layer, 0.0) + (span.end - span.start)
            calls[span.layer] = calls.get(span.layer, 0) + 1

        def count(key):
            return acc.get(key, [0, 0.0])[0]

        def secs(*keys):
            return sum(acc.get(k, [0, 0.0])[1] for k in keys)

        boxes = count("partition.boxes")
        return {
            "generate.busy_s": secs("generate.streams", "generate.cores", "generate.partitions"),
            "generate.streams": count("generate.streams"),
            "generate.cores": count("generate.cores"),
            "generate.partitions": count("generate.partitions"),
            "partition.busy_s": secs("partition.hook_lengths_of"),
            "partition.calls": count("partition.hook_lengths_of"),
            "partition.boxes": boxes,
            "partition.useful_frac": count("partition.useful") / boxes if boxes else 0.0,
            "hookstats.self_s": self_s.get("hookstats", 0.0),
            "hookstats.calls": calls.get("hookstats", 0),
            "verify.self_s": self_s.get("verify", 0.0),
            "verify.calls": calls.get("verify", 0),
            "qseries.busy_s": busy_s.get("qseries", 0.0),
            "qseries.coeffs": count("qseries.coeffs"),
            "quadform.busy_s": secs("quadform.odd_representation"),
            "quadform.reps": count("quadform.odd_representation"),
            "cli.self_s": self_s.get("cli", 0.0),
        }

    def report(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "metrics": self.metrics(),
            "unmeasured": self.unmeasured,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "layer": s.layer,
                    "parent": s.parent,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "acc": s.acc,
                }
                for s in self.spans
            ],
        }
