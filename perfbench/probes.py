"""Wrappers the benchmark puts around the program's public functions.

Nothing here edits the program: each wrapper replaces a module or class
attribute for the life of the benchmark process, so the program's own call
sites (``agent.run`` calling ``sample_channel_state``, ``search`` calling
``mutate``, ...) go through it.

- ``Patches`` installs and removes wrappers.
- ``Tracer`` keeps one span (name, start, end, parent) per wrapped call in
  memory and turns them into per-layer figures; it is installed only in
  traced runs.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np


class Patches:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def after_each(hook):
    """Wrapper factory: call ``hook(result, *args)`` after every call."""

    def make(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(out, *args, **kwargs)
            return out
        return wrapped
    return make


def before_each(hook):
    """Wrapper factory: call ``hook()`` before every call."""

    def make(fn):
        def wrapped(*args, **kwargs):
            hook()
            return fn(*args, **kwargs)
        return wrapped
    return make


class Tracer:
    """In-memory spans around wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []

    def span(self, name: str):
        """Wrapper factory recording one span per call under ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapped(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
            return wrapped
        return make

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        nid = np.array(self.name_id, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.array(self.name_id, dtype=np.int32),
                            parent=np.array(self.parent, dtype=np.int64),
                            start=np.array(self.start),
                            end=np.array(self.end))

