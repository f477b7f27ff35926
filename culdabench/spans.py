"""In-memory spans recorded around calls into the program's layers.

The program carries no instrumentation of its own, so the traced run
wraps the public functions each layer is entered through, patching the
binding in the module that *imports* it (``repro.core.scheduler``
calls its own ``sample_chunk`` name, not ``repro.core.sampler``'s).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Nested wall-clock spans: (name, start, end, parent, attrs)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """A finished span timed elsewhere (e.g. one served request)."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": None, "attrs": attrs}
        )

    # -- wrapping the program's functions --------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`unwrap_all`.

        ``on_call(record, args, kwargs, result)`` may add attributes
        (work counts) to the span after the call returns.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if on_call is not None:
                    on_call(record, args, kwargs, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def summary(self, root: int) -> dict[str, dict]:
        """Per span name within the subtree of ``root``: summed duration
        ``s``, summed self time ``self``, span count ``n`` and the sum of
        every numeric attribute.

        A span's self time is its duration minus the part of it covered
        by its children (children of one span never overlap: every layer
        call on the master runs on one thread).
        """
        kids: dict[int | None, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans[root:], start=root):
            kids[s["parent"]].append(i)
        out: dict[str, dict] = {}
        frontier = [root]
        while frontier:
            i = frontier.pop()
            s = self.spans[i]
            duration = s["end"] - s["start"]
            covered = sum(self.spans[c]["end"] - self.spans[c]["start"] for c in kids[i])
            agg = out.setdefault(s["name"], {"s": 0.0, "self": 0.0, "n": 0})
            agg["s"] += duration
            agg["self"] += duration - covered
            agg["n"] += 1
            for k, v in s["attrs"].items():
                if isinstance(v, (int, float)):
                    agg[k] = agg.get(k, 0) + v
            frontier.extend(kids[i])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
