"""Per-call spans around the public functions of every typedtopo module.

`Tracer.install` replaces each public module-level function of the package
with a wrapper that records one span per call: its name, its parent span,
and its start and end times. The wrapper is bound wherever the function is
looked up: in its own module and in every module that bound it through
``from ... import`` (for example ``chains.realized_types``), because a call
through such a name never touches the defining module. ``TypeTerm.sort_key``
is wrapped on its class as ``lattice.sort_key``. Generator functions are left
alone: their body runs in the consumer, so a span around the call would time
only the creation of the generator.

Spans live in flat arrays until the run ends; `Tracer.summary` turns them
into call counts, self time (span time minus the time of its child spans)
and inclusive time, where a span nested inside another span of the same
group is not counted twice.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter
from contextlib import contextmanager

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()  # (span name, exception class name) -> count
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        open_, close, raised = self._open, self._close, self.raised

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[(label, type(exc).__name__)] += 1
                raise
            finally:
                close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        by_name = {m.__name__: m for m in modules}
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in by_name:
                    continue
                home = by_name[obj.__module__]
                if obj.__name__.startswith("_") or getattr(home, obj.__name__, None) is not obj:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    label = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapper = wrappers[id(obj)] = self._wrap(label, obj)
                self._patch(mod, attr, wrapper)
        lattice = by_name[f"{package.__name__}.lattice"]
        sort_key = lattice.TypeTerm.sort_key
        self._patch(lattice.TypeTerm, "sort_key", self._wrap("lattice.sort_key", sort_key))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self, groups: dict[str, frozenset]) -> dict:
        """Per-name calls, self and inclusive seconds, plus per-group inclusive time.

        ``groups`` maps a group label to the span names it covers. Inclusive
        time counts only outermost spans: a span inside another span of the
        same name (or, for a group, of the same group) is already covered.
        """
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        n, k = len(self.start), len(self.names)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        dur = [end[i] - start[i] for i in range(n)]
        if any(d < 0 for d in dur):
            raise RuntimeError("a span ends before it starts")
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        member_of = [[g for g, names in groups.items() if self.names[nid] in names]
                     for nid in range(k)]
        calls, self_s, incl_s = [0] * k, [0.0] * k, [0.0] * k
        group_s = dict.fromkeys(groups, 0.0)
        active, group_active = [0] * k, dict.fromkeys(groups, 0)
        ancestors: list[int] = []  # open ancestors of span i; spans are in start order
        op_count, op_seconds = 0, 0.0
        for i in range(n):
            p, nid = parent[i], name[i]
            while ancestors and ancestors[-1] != p:
                j = ancestors.pop()
                active[name[j]] -= 1
                for g in member_of[name[j]]:
                    group_active[g] -= 1
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            if not active[nid]:
                incl_s[nid] += dur[i]
            for g in member_of[nid]:
                if not group_active[g]:
                    group_s[g] += dur[i]
                group_active[g] += 1
            active[nid] += 1
            ancestors.append(i)
            if nid == 0:
                op_count += 1
                op_seconds += dur[i]
        labels = self.names
        return {
            "spans": n,
            "ops": op_count,
            "op_seconds": op_seconds,
            "calls": {labels[i]: calls[i] for i in range(k) if calls[i]},
            "self_s": {labels[i]: self_s[i] for i in range(k) if calls[i]},
            "incl_s": {labels[i]: incl_s[i] for i in range(k) if calls[i]},
            "group_incl_s": group_s,
            "raised": {f"{a}:{b}": v for (a, b), v in sorted(self.raised.items())},
        }
