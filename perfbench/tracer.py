"""Span recorder that instruments the anonauth library from outside.

``patch_function`` replaces a traced function with a wrapper at every
place a caller looks it up: names imported with ``from x import f`` are
separate bindings, so every ``anonauth`` module attribute that is the
original function object gets the wrapper. ``patch_method`` does the same
for a method on its class, and ``uninstall`` puts the originals back.

Each call records one span (name, start, end, parent span, session id)
into flat arrays kept in memory, and ``write_csv`` saves them when the run
ends. Self time and call counts are aggregated as the spans close, so the
per-layer figures cover every call even past the storage cap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# A span past this many is aggregated but not stored (about 26 bytes each).
MAX_STORED_SPANS = 2_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, int] = {}
        self.session_id = -1
        self.dropped = 0
        self._name = array("H")
        self._parent = array("i")
        self._session = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # ----------------------------------------------------------- recording

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def wrap(self, name: str, fn, post=None, watch: str | None = None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``post(result, delta)`` runs after a successful call, where
        ``delta`` is how many ``watch`` spans closed during it.
        """
        nid = self._intern(name)
        wid = self._intern(watch) if watch else None
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        names, parents, sessions = self._name, self._parent, self._session
        starts, ends = self._start, self._end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = calls[wid] if wid is not None else 0
            idx = len(starts)
            stored = idx < MAX_STORED_SPANS
            frame = [idx if stored else -1, 0.0, 0.0]
            if stored:
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                sessions.append(tracer.session_id)
                starts.append(0.0)
                ends.append(0.0)
            stack.append(frame)
            frame[1] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if stored:
                    starts[idx] = t0
                    ends[idx] = t1
                else:
                    tracer.dropped += 1
            if post is not None:
                post(result, calls[wid] - before if wid is not None else 0)
            return result

        wrapper.span_name = name
        return wrapper

    # ------------------------------------------------------------ patching

    def patch_function(self, module, attr: str, name: str, post=None, watch=None) -> None:
        """Wrap ``module.attr`` in every anonauth module that binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, post, watch)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "anonauth" or mod_name.startswith("anonauth.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------- results

    def self_ms(self, name: str) -> float:
        nid = self._ids.get(name)
        return 1e3 * self.self_s[nid] if nid is not None else 0.0

    def total_ms(self, name: str) -> float:
        nid = self._ids.get(name)
        return 1e3 * self.total_s[nid] if nid is not None else 0.0

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return 1e3 * sum(
            s for n, s in zip(self.names, self.self_s) if n.startswith(prefix)
        )

    @property
    def stored(self) -> int:
        return len(self._start)

    def write_csv(self, path) -> None:
        """One line per stored span; times in microseconds from tracer creation."""
        names, origin = self.names, self.origin
        with open(path, "w") as f:
            f.write("span,name,start_us,end_us,parent,session\n")
            for i in range(len(self._start)):
                f.write(
                    f"{i},{names[self._name[i]]},"
                    f"{(self._start[i] - origin) * 1e6:.1f},"
                    f"{(self._end[i] - origin) * 1e6:.1f},"
                    f"{self._parent[i]},{self._session[i]}\n"
                )
