"""Spans around calls into the `billiards` modules, recorded from outside.

`Tracer.install` wraps every public module-level function of every
`billiards` module and the `jet` method of every table and profile class.
Modules that import a function by name (`cli` imports `conjugate_scan`,
`geometric_reflect`, ...) hold their own binding, so every binding of a
wrapped function is replaced, in every module and in the package
namespace. A span is named `<module>.<function>`; both `jet` layers are
`supportfn.jet` and `profiles.jet`.

Each span is aggregated as it closes: calls, inclusive time, and self time
(its duration minus the durations of its direct children; spans nest
strictly because the program runs in one thread). A span inside the span
of a `beam-scan` command (SCAN_COMMAND) is aggregated a second time under
`op.beam-scan/<name>`, and so are the counts taken inside it: a cycle
also runs other commands that call the same functions. Spans are also
kept in memory, name, start, end and parent index, up to SPAN_CAP; later
spans are only aggregated and counted as dropped.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

perf = time.perf_counter

TABLE_JET = "supportfn.jet"
SCAN = "beam.conjugate_scan"
SCAN_STEP = "billmap.forward_map_batch"
SCAN_COMMAND = "op.beam-scan"     # the span run.py opens around a beam-scan
PACKAGE = "billiards"
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.recording = False
        self.t0 = perf()
        self.stack: list[list] = []       # frames: [name, child_s, span_id]
        self.spans: list[list] = []       # [name, start, end, parent_id]
        self.spans_dropped = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()           # points, jets under spans, scans
        self.scope = None                 # SCAN_COMMAND while one is open
        self._patches: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name):
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = -1
        if len(self.spans) < SPAN_CAP:
            span_id = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[2] if parent else -1])
        else:
            self.spans_dropped += 1
        frame = [name, 0.0, span_id]
        stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, start, end):
        self.stack.pop()
        name = frame[0]
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        if self.scope is not None:
            scoped = self.scope + "/" + name
            self.calls[scoped] += 1
            self.total_s[scoped] += duration
            self.self_s[scoped] += duration - frame[1]
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[1] = start - self.t0
            span[2] = end - self.t0

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one command."""
        if not self.recording:
            yield
            return
        frame, parent = self._open(name)
        if name == SCAN_COMMAND:
            self.scope = name
        start = perf()
        try:
            yield
        finally:
            self.scope = None
            self._close(frame, parent, start, perf())

    def count(self, key, n=1):
        self.counts[key] += n
        if self.scope is not None:
            self.counts[self.scope + "/" + key] += n

    @contextmanager
    def paused(self):
        """Calls made by the output checks are not the workload's."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _wrap(self, name, fn):
        tracer = self
        is_table_jet = name == TABLE_JET
        is_scan = name == SCAN
        is_scan_step = name == SCAN_STEP
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame, parent = tracer._open(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if type(exc).__name__ == "SolverError" and layer == "billmap" \
                        and (parent is None
                             or not parent[0].startswith("billmap.")):
                    tracer.count("billmap.solver_errors")
                raise
            finally:
                tracer._close(frame, parent, start, perf())
            if is_table_jet:
                tracer.count("supportfn.jet.points", getattr(args[1], "size", 1))
                for ancestor in {f[0] for f in tracer.stack}:
                    tracer.count("jets_under:" + ancestor)
            elif is_scan_step and parent is not None and parent[0] == SCAN:
                tracer.count("beam.batch_steps")
                tracer.count("beam.computed_start_steps",
                             getattr(args[1], "size", 1))
            elif is_scan:
                max_steps = args[3] if len(args) > 3 else kwargs["max_steps"]
                tracer.count("beam.live_start_steps", int(sum(
                    int(s) if s >= 0 else int(max_steps) for s in result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == PACKAGE or n.startswith(PACKAGE + "."))
                   and isinstance(m, types.ModuleType)]
        wrappers = {}
        for module in modules:
            if module.__name__ == PACKAGE:
                continue
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) \
                        and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == module.__name__ \
                        and isinstance(obj.__dict__.get("jet"), types.FunctionType):
                    self._patch(obj, "jet", self._wrap(f"{layer}.jet",
                                                       obj.__dict__["jet"]))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # --- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the aggregates, to difference across a cycle."""
        return {"calls": Counter(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": Counter(self.counts)}


def difference(after: dict, before: dict) -> dict:
    return {
        "calls": after["calls"] - before["calls"],
        "total_s": {k: v - before["total_s"].get(k, 0.0)
                    for k, v in after["total_s"].items()},
        "self_s": {k: v - before["self_s"].get(k, 0.0)
                   for k, v in after["self_s"].items()},
        "counts": after["counts"] - before["counts"],
    }
