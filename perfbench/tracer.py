"""In-memory call tracing from outside the traced package.

``Tracer.wrap`` replaces a module attribute that callers resolve at call time
(``reidpipe.experiment.train_model``, say) with a timing wrapper, and
``Tracer.restore`` puts every original back. A wrapped call is one of:

- a *span*: stage-level, recorded individually as (id, name, parent, start,
  end, self seconds);
- a *counter*: hot and inner, only its call count and total seconds are kept;
- a *hook*: not timed at all, only its hook sees the arguments and result.

Timed calls push a frame, so each call's duration is charged to the frame
that encloses it; a span's self time is its duration minus its children's.
Everything stays in memory until ``write_spans``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN, COUNTER, HOOK = "span", "counter", "hook"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = defaultdict(float)
        # frame = [seconds of timed children, span id or None, start]
        self._stack: list[list] = [[0.0, None, 0.0]]
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, kind: str = COUNTER,
             after=None, before=None) -> None:
        """Replace ``module.attr`` by a wrapper recording ``name``.

        ``name`` may be a function of the call's positional arguments.
        ``before(args, kwargs)`` runs ahead of the call; ``after(args,
        kwargs, result, error)`` runs after it, with ``result`` None when the
        call raised ``error``.
        """
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        tracer = self

        if kind == HOOK:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, None)
                return result
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                result, error = None, None
                label = name(args) if callable(name) else name
                frame = tracer._enter(label, kind == SPAN)
                try:
                    result = original(*args, **kwargs)
                    return result
                except Exception as exc:
                    error = exc
                    raise
                finally:
                    tracer._exit(label, frame)
                    if after is not None:
                        after(args, kwargs, result, error)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span named ``name``."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame)

    def _enter(self, name: str, is_span: bool) -> list:
        span_id = None
        if is_span:
            span_id = len(self.spans)
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append({"id": span_id, "name": name, "parent": parent})
        frame = [0.0, span_id, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        children, span_id, start = frame
        self._stack.pop()
        self._stack[-1][0] += end - start
        self.calls[name] += 1
        self.seconds[name] += end - start
        if span_id is not None:
            self.spans[span_id].update(start=start, end=end, self_s=(end - start) - children)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def nesting_ok(self, slack: float = 1e-6) -> bool:
        """Every span lies inside its parent, and children never outlast it."""
        child_total: dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span["parent"]
            if parent is None:
                continue
            outer = self.spans[parent]
            if span["start"] < outer["start"] - slack or span["end"] > outer["end"] + slack:
                return False
            child_total[parent] += span["end"] - span["start"]
        return all(
            child_total[s["id"]] <= s["end"] - s["start"] + slack for s in self.spans
        ) and all(s["self_s"] >= -slack for s in self.spans)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({
                    "counter": name, "calls": self.calls[name], "seconds": self.seconds[name],
                }) + "\n")
