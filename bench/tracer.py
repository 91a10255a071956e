"""In-memory call tracer for the benchmark's traced run.

A ``Tracer`` wraps functions and methods from outside the traced program:
every binding of a target (module attributes, entries of module-level dicts,
class attributes) is pointed at a timing wrapper and put back by
``restore``.  Each wrapped call pushes a frame; on exit its duration is
charged to the parent frame, so a frame's self time is its duration minus
the time its traced children cover.  Calls of "hot" targets are only
aggregated; every other call is also kept as a span
``(id, parent_id, label, start, end)``.

A direct recursive call (the target calling itself through its own rebound
name while it is the innermost traced frame) runs unwrapped, so it adds to
the outer call's self time instead of opening a frame per level.
"""

from __future__ import annotations

import inspect
import itertools
import time


class Probe:
    """Aggregated statistics of one wrapped target."""

    __slots__ = ("metric", "calls", "self_s", "incl_s", "active")

    def __init__(self, metric: str):
        self.metric = metric
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0    # outermost activations only
        self.active = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # frames: [probe, child_s, span_id]
        self.spans = []
        self.probes = {}         # label -> Probe
        self.groups = {}         # group -> [entries, depth]
        self.counters = {}       # hook-maintained counts
        self.hook_s = [0.0]
        self._ids = itertools.count(1)
        self._patches = []       # (kind, container, key, original)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, label, fn, metric, hot=False, group=None, hook=None):
        """Timing wrapper for ``fn``.

        ``group`` names a set of entry points that count as one call when
        they nest (``groups[group][0]`` counts outermost entries); ``hook``
        is called as ``hook(counters, args, result)`` after a successful
        call (after the outermost group call only), and its time is taken
        out of the caller's self time.
        """
        if inspect.isgeneratorfunction(fn):
            raise TypeError("cannot time the generator function %s" % label)
        if label in self.probes:
            raise ValueError("target %s wrapped twice" % label)
        probe = self.probes[label] = Probe(metric)
        grp = self.groups.setdefault(group, [0, 0]) if group else None
        stack, spans, clock = self.stack, self.spans, self.clock
        ids, counters, hook_s = self._ids, self.counters, self.hook_s

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is probe:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else None
            frame = [probe, 0.0, parent_id if hot else next(ids)]
            stack.append(frame)
            probe.active += 1
            outer_group = False
            if grp is not None:
                outer_group = grp[1] == 0
                grp[0] += outer_group
                grp[1] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                probe.active -= 1
                if grp is not None:
                    grp[1] -= 1
                dur = end - start
                probe.calls += 1
                probe.self_s += dur - frame[1]
                if not probe.active:
                    probe.incl_s += dur
                if parent is not None:
                    parent[1] += dur
                if not hot:
                    spans.append((frame[2], parent_id, label, start, end))
            if hook is not None and (grp is None or outer_group):
                h0 = clock()
                hook(counters, args, result)
                h = clock() - h0
                hook_s[0] += h
                if parent is not None:
                    parent[1] += h
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def trace_function(self, fn, modules, label, metric, **opts):
        """Wrap ``fn`` and rebind every reference to it in ``modules``:
        module attributes and values of module-level dicts (nested dicts
        included).  Returns the number of bindings replaced."""
        wrapper = self.wrap(label, fn, metric, **opts)
        n = 0
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._set("attr", mod, name, fn, wrapper)
                    n += 1
                elif type(val) is dict:
                    n += self._rebind_items(val, fn, wrapper, set())
        if not n:
            raise LookupError("no binding of %s found" % label)
        return n

    def trace_method(self, cls, name, label, metric, **opts):
        original = cls.__dict__[name]
        self._set("attr", cls, name, original,
                  self.wrap(label, original, metric, **opts))

    def _rebind_items(self, d, fn, wrapper, seen):
        if id(d) in seen:
            return 0
        seen.add(id(d))
        n = 0
        for key, val in list(d.items()):
            if val is fn:
                self._set("item", d, key, fn, wrapper)
                n += 1
            elif type(val) is dict:
                n += self._rebind_items(val, fn, wrapper, seen)
        return n

    def _set(self, kind, container, key, original, value):
        if kind == "attr":
            setattr(container, key, value)
        else:
            container[key] = value
        self._patches.append((kind, container, key, original))

    def restore(self):
        """Put every replaced binding back, newest first."""
        while self._patches:
            kind, container, key, original = self._patches.pop()
            if kind == "attr":
                setattr(container, key, original)
            else:
                container[key] = original

    # -- results -------------------------------------------------------------

    def self_by_metric(self) -> dict:
        out = {}
        for p in self.probes.values():
            out[p.metric] = out.get(p.metric, 0.0) + p.self_s
        return out

    def entries(self, group: str) -> int:
        return self.groups.get(group, [0, 0])[0]
