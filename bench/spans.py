"""Span tracing around the public functions of each qprim layer.

`Tracer.installed()` wraps every function named in `TRACED` and rebinds
the wrapper under every name that refers to the original in any loaded
`qprim` module, so calls made inside the library are seen as well as
calls made by the benchmark.  Each call becomes a span (name, start,
end, parent) kept in memory; `summary()` turns the spans into calls and
self time per function, where self time is a span's duration minus the
time covered by its direct children.

A name that no longer exists is skipped and listed in `missing`, so a
refactor of the library cannot crash a traced run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# module -> public functions whose spans are recorded
TRACED = {
    "qform": ("reduce",),
    "classgroup": ("enumerate_classes", "compose", "element_order"),
    "repcount": ("rep_profile", "enumerate_solutions", "rep_counts"),
    "pprim": ("classify", "classify_all", "solve_two_square"),
    "oracle": ("verify_classification_grid", "brute_force_cpp"),
    "ternary": ("rep_count_table", "unimodular_match"),
    "intarith": ("kronecker",),
}


def _probe_rep_profile(counts, args, kwargs, result):
    counts["repcount.rep_profile.bound_sum"] += kwargs.get("bound", args[1] if len(args) > 1 else 0)
    counts["repcount.rep_profile.values"] += len(result)


def _probe_enumerate_solutions(counts, args, kwargs, result):
    counts["repcount.enumerate_solutions.solutions"] += len(result)


def _probe_rep_count_table(counts, args, kwargs, result):
    counts["ternary.rep_count_table.values"] += len(result)


def _probe_brute_force_cpp(counts, args, kwargs, result):
    # escalation rungs are told apart by the sweep bound they ran at
    counts[f"oracle.brute_force_cpp.bound.{result.bound}"] += 1
    if result.witness is not None:
        counts[f"oracle.brute_force_cpp.hits.{result.bound}"] += 1


def _probe_classify(counts, args, kwargs, result):
    counts[f"pprim.route.{result.route}"] += 1


# extra counts taken from a traced call's arguments and result
PROBES = {
    "repcount.rep_profile": _probe_rep_profile,
    "repcount.enumerate_solutions": _probe_enumerate_solutions,
    "ternary.rep_count_table": _probe_rep_count_table,
    "oracle.brute_force_cpp": _probe_brute_force_cpp,
    "pprim.classify": _probe_classify,
}


class Tracer:
    """Records spans and probe counts while installed; one pass at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []  # name, start_ns, end_ns, parent index
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack.clear()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if probe is not None:
                probe(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded qprim module."""
        modules = [m for k, m in sys.modules.items() if k == "qprim" or k.startswith("qprim.")]
        rebound = []
        missing = []
        for mod_name, names in TRACED.items():
            owner = sys.modules.get(f"qprim.{mod_name}")
            for fname in names:
                full = f"{mod_name}.{fname}"
                original = getattr(owner, fname, None) if owner is not None else None
                if not callable(original):
                    missing.append(full)
                    continue
                wrapper = self._wrap(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            rebound.append((mod, attr, original))
        self.missing = missing
        self._stack.clear()
        try:
            yield self
        finally:
            for mod, attr, original in reversed(rebound):
                setattr(mod, attr, original)

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per traced name, plus the probe counts."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        out: dict[str, float] = {}
        for mod_name, names in TRACED.items():
            for fname in names:
                full = f"{mod_name}.{fname}"
                out[f"{full}.calls"] = calls[full]
                out[f"{full}.self_s"] = self_ns[full] / 1e9
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")
