"""Span tracing from outside the library.

A Tracer replaces public functions with wrappers at the place their
callers look them up (a module attribute or a class attribute) and records
one span per call: name, start, end, parent span and the benchmark item it
belongs to.  Spans live in flat arrays while the run lasts and are written
out once at the end.  Self time of a span is its duration minus the
durations of its direct children, so the self times of all spans add up to
the time covered by the outermost spans.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current_item = -1
        self._stack = [-1]
        self._patched: list = []

    def _name_id(self, span: str) -> int:
        nid = self._name_ids.get(span)
        if nid is None:
            nid = self._name_ids[span] = len(self.names)
            self.names.append(span)
        return nid

    def wrap(self, owner, attr: str, span: str, on_return=None, on_raise=None):
        """Replace owner.attr by a recording wrapper.

        on_return(args, kwargs, result) and on_raise(args, kwargs, exc) let
        the caller count what a call produced; neither may change the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._name_id(span)
        stack = self._stack
        name, parent, item, start, end = self.name, self.parent, self.item, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            item.append(self.current_item)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end[sid] = perf_counter()
                stack.pop()
                if on_raise is not None:
                    on_raise(args, kwargs, exc)
                raise
            end[sid] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put every wrapped function back, newest first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summarize(self) -> dict:
        """Per span name: calls, total self seconds, and calls per parent name."""
        n = len(self.start)
        child_time = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child_time[p] += end[sid] - start[sid]
        out = {
            span: {"calls": 0, "self_s": 0.0, "by_parent": {}} for span in self.names
        }
        root_s = 0.0
        for sid in range(n):
            entry = out[self.names[self.name[sid]]]
            duration = end[sid] - start[sid]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[sid]
            p = parent[sid]
            pname = self.names[self.name[p]] if p >= 0 else None
            if pname is None:
                root_s += duration
            entry["by_parent"][pname] = entry["by_parent"].get(pname, 0) + 1
        return {"spans": out, "root_s": root_s, "count": n}

    def write(self, path):
        """Write every span: one JSON header line, then the raw field arrays.

        The header names the span names (indexed by the name field) and, in
        order, each array's field, typecode and length; the arrays follow in
        machine byte order.
        """
        fields = ("name", "parent", "item", "start", "end")
        header = {
            "names": self.names,
            "arrays": [[f, getattr(self, f).typecode, len(getattr(self, f))] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)
