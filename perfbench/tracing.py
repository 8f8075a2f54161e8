"""In-memory span tracer installed from outside the program.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` with a
function that records one span per call: name, start, end, the index of
the enclosing span and the current query id. ``restore()`` puts every
original back. Nothing under ``src/`` is edited; the wrappers exist only
in the benchmark process, and only while a traced phase runs.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One row per span: [name_id, start_s, end_s, parent_index, query_id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.query_id = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Record a span around every call of ``owner.attr`` until ``restore``.

        ``before`` runs ahead of each call (used to set the Spark job
        group of the stage the call belongs to).
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = orig.__func__ if isinstance(orig, classmethod) else orig
        nid = self.name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            row = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query_id]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            row[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, classmethod(traced) if isinstance(orig, classmethod) else traced)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                kids.setdefault(parent, []).append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for cs, ce in sorted(kids.get(i, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append(end - start - covered)
        return out

    def child_totals(self) -> list[float]:
        """Summed duration of each span's direct children."""
        out = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] += end - start
        return out

    def total(self, name: str, query_ids: set[int] | None = None) -> float:
        """Summed duration (s) of the spans called ``name`` [with these query ids]."""
        nid = self._name_ids.get(name, -1)
        return sum(
            end - start
            for n, start, end, _, q in self.spans
            if n == nid and (query_ids is None or q in query_ids)
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent", "query_id"],
                       "spans": self.spans}, f)
