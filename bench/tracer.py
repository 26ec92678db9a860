"""Per-layer tracing from outside the package.

``install`` wraps the public functions of each ``sphroots`` module and
rebinds every name that refers to them in every loaded ``sphroots``
module, so calls between modules and within a module both go through the
wrapper.  Nothing under ``src/`` changes.

Each wrapped call records a span (name, start, end, parent span, op id) in
memory.  ``summary`` derives per-function call counts and self time: a
span's duration minus the time its child spans cover.  The two hot
pairing helpers are counted, not timed, because timing about 0.4 M calls
would swamp the trace.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import sys
import time
from array import array

#: layers are the package modules; these are their traced public functions.
TIMED = {
    "rootsystem": ("build", "subsystem", "diagram_isomorphisms",
                   "diagram_automorphisms"),
    "croots": ("levi_datum",),
    "subgroup": ("make_subgroup", "sm_decomposition", "ambient_reduction",
                 "upsilon_and_hat"),
    "sphericity": ("is_spherical_and_rank", "knop_reduce"),
    "degeneration": ("delta_strings", "degenerate", "track_component"),
    "tables": ("match_datum", "iter_instances"),
    "solver": ("base_solve", "optimized_solve", "algorithm_d", "leaf_resolve"),
    "enumeration": ("enumerate_cases", "canonical_key", "expected_cases",
                    "actual_cases"),
    "cli": ("main",),
}
COUNTED = {"rootsystem": ("coroot_pairing", "inner")}

#: name of the root span the benchmark opens around each operation.
OP_SPAN = "bench.op"
#: suffix of the spans that time each resumption of a traced generator.
RESUME = "#next"

clock = time.perf_counter


class Tracer:
    """Spans kept in flat arrays, plus the counts the ratios need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.counts: collections.Counter = collections.Counter()
        self.raised: collections.Counter = collections.Counter()
        self.delta_pairs: set = set()
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def span(self, name: str):
        """Wrap ``fn`` so that every call records one span."""
        nid = self._id(name)

        def decorate(fn):
            def traced(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    self.raised[name, type(exc).__name__] += 1
                    raise
                finally:
                    self._close(idx)
            return traced
        return decorate

    def generator_span(self, name: str):
        """Wrap a generator function: one span per call, one per resumption.

        Time the consumer spends between items is not the generator's, so
        each ``next`` is timed on its own and folded into the function's
        self time by ``summary``.
        """
        nid, resume_id = self._id(name), self._id(name + RESUME)

        def decorate(fn):
            def traced(*args, **kwargs):
                idx = self._open(nid)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                try:
                    while True:
                        idx = self._open(resume_id)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx)
                        yield item
                finally:
                    it.close()
            return traced
        return decorate

    def counter(self, name: str):
        def decorate(fn):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return decorate

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self.current_op = op_id
        try:
            return self.span(OP_SPAN)(fn)(*args)
        finally:
            self.current_op = -1

    def summary(self) -> dict:
        """Calls and self time per span name, and the ratio inputs."""
        n = len(self.name)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = collections.Counter()
        self_s = collections.Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            if name.endswith(RESUME):
                name = name[:-len(RESUME)]
            else:
                calls[name] += 1
            self_s[name] += duration - covered[i]
        op_wall = sum(self.end[i] - self.start[i] for i in range(n)
                      if self.names[self.name[i]] == OP_SPAN)
        return {
            "calls": dict(calls), "self_s": dict(self_s),
            "counts": dict(self.counts),
            "raised": [[k[0], k[1], v] for k, v in self.raised.items()],
            "delta_pairs": len(self.delta_pairs), "spans": n,
            "op_wall_s": op_wall, "missing": self.missing,
        }


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every layer, rebinding each name."""
    modules = {layer: importlib.import_module(f"sphroots.{layer}")
               for layer in set(TIMED) | set(COUNTED)}
    replace: dict[int, object] = {}
    for layer, names in TIMED.items():
        for fname in names:
            fn = getattr(modules[layer], fname, None)
            if fn is None:
                tracer.missing.append(f"{layer}.{fname}")
                continue
            full = f"{layer}.{fname}"
            if inspect.isgeneratorfunction(inspect.unwrap(fn)):
                wrapped = tracer.generator_span(full)(fn)
            else:
                wrapped = tracer.span(full)(fn)
            replace[id(fn)] = (fn, wrapped)
    for layer, names in COUNTED.items():
        for fname in names:
            fn = getattr(modules[layer], fname, None)
            if fn is None:
                tracer.missing.append(f"{layer}.{fname}")
                continue
            replace[id(fn)] = (fn, tracer.counter(f"{layer}.{fname}")(fn))

    _record_delta_pairs(tracer, modules["degeneration"], replace)
    _count_levi_builds(tracer, modules["croots"])

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("sphroots"):
            continue
        for attr, value in list(vars(module).items()):
            entry = replace.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


def _record_delta_pairs(tracer: Tracer, degeneration, replace: dict) -> None:
    """Remember each distinct (system, delta) that ``delta_strings`` sees."""
    fn = getattr(degeneration, "delta_strings", None)
    if fn is None or id(fn) not in replace:
        return
    timed = replace[id(fn)][1]
    pairs = tracer.delta_pairs

    def delta_strings(rs, delta, *args, **kwargs):
        pairs.add((getattr(rs, "cartan", id(rs)), tuple(delta)))
        return timed(rs, delta, *args, **kwargs)
    replace[id(fn)] = (fn, delta_strings)


def _count_levi_builds(tracer: Tracer, croots) -> None:
    """Count ``LeviDatum`` constructions, the misses of ``levi_datum``."""
    cls = getattr(croots, "LeviDatum", None)
    if cls is None:
        tracer.missing.append("croots.LeviDatum")
        return
    cls.__init__ = tracer.counter("croots.LeviDatum.__init__")(cls.__init__)
