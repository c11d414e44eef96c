"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, op, key)``.  ``op`` numbers the
benchmark operation the span belongs to and ``key`` names the problem, case
or ensemble it worked on, so per-layer metrics can be split by input.  Spans
stay in memory while the run measures and are written as JSONL at the end.

The layers are timed from outside: the benchmark opens spans around its own
calls into the program's public functions, and for calls the program makes
internally (``run_ensemble`` building its graph, say) it temporarily wraps
the public function the program looks up.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import json
import time


class NullTracer:
    """The untraced run: every span is a no-op."""

    enabled = False

    def __init__(self):
        self.ctx: dict = {}

    @contextlib.contextmanager
    def op(self, kind, key=None):
        yield None

    def span(self, name, key=None):
        return contextlib.nullcontext()

    def add(self, name, start, end, parent=None, key=None, **attrs):
        return None

    def wrapped(self, patches):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """Records spans; see the module docstring."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None
        self._ops = 0

    # ------------------------------------------------------------ recording
    def add(self, name, start, end, parent=None, key=None, **attrs) -> int:
        """Record a span; returns its index (the handle children name as parent).

        A child belongs to its parent's op; a root span named ``op`` outside
        :meth:`op` starts a new one.
        """
        if parent is not None:
            op = self.spans[parent]["op"]
        elif name == "op" and self._op is None:
            op = self._ops
            self._ops += 1
        else:
            op = self._op
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent,
            "op": op, "key": key, **attrs,
        })
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name, key=None):
        parent = self._stack[-1] if self._stack else None
        idx = self.add(name, time.perf_counter(), None, parent, key)
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, kind, key=None):
        """Root span of one benchmark operation."""
        self._op = self._ops
        self._ops += 1
        try:
            with self.span("op", key) as rec:
                rec["kind"] = kind
                yield rec
        finally:
            self._op = None

    @contextlib.contextmanager
    def wrapped(self, patches):
        """Time calls to public functions the program makes internally.

        ``patches`` holds ``(owner, attribute, span name, ctx key, result
        attrs)`` tuples: while the block runs, ``owner.attribute`` is replaced
        by a wrapper that opens a span keyed by ``self.ctx[ctx key]`` (no key
        when that is None) and, if ``result attrs`` is given, stores
        ``result attrs(return value)`` on the span.
        """
        saved = []
        try:
            for owner, attr, name, ctx_key, result_attrs in patches:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, ctx_key, result_attrs))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _wrap(self, fn, name, ctx_key, result_attrs):
        def wrapper(*args, **kwargs):
            key = self.ctx.get(ctx_key) if ctx_key else None
            with self.span(name, key) as rec:
                out = fn(*args, **kwargs)
                if result_attrs is not None:
                    rec.update(result_attrs(out))
                return out

        return wrapper

    # ------------------------------------------------------------- analysis
    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write_jsonl(self, path) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = dict(s, id=i, start=s["start"] - t0, end=s["end"] - t0)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
