"""Per-layer spans and kernel counts, recorded from outside the package.

The package has no instrumentation of its own, so the traced run replaces
each layer's public functions with timing wrappers.  A function is
replaced under every name a ``thermofield`` module holds it by (``thermal``
imports ``hermitian_eig`` by name, for instance), so no call path escapes.
Validated value types are wrapped at their class ``__init__``.  Dense
kernels are counted at the numpy boundary, whichever module calls them;
they are not spans, so their time stays in the self time of the caller.

Spans are kept in memory as ``(name, op_id, parent, start, end)`` and turned
into per-layer metrics when the run ends.  Self time of a span is its
duration minus the durations of its child spans; calls are synchronous
and single-threaded, so children nest inside their parent and never
overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np

# (module, name) of every public function recorded as a span.
SPAN_FUNCTIONS = (
    ("cli", "main"),
    ("models", "build_model"),
    ("models", "build_random_hermitian"),
    ("models", "build_ising"),
    ("models", "build_observable"),
    ("linalg", "hermitian_eig"),
    ("linalg", "require_hermitian"),
    ("thermal", "verify_equivalence"),
    ("thermal", "thermal_average"),
    ("thermal", "thermofield_double"),
    ("bipartite", "expectation"),
    ("bipartite", "schmidt_decompose"),
    ("bipartite", "entanglement_entropy"),
    ("bipartite", "reduced_density"),
    ("bipartite", "purify"),
    ("serialize", "dump_state"),
    ("serialize", "load_state"),
    ("serialize", "load_matrix"),
    ("serialize", "dump_report"),
)

# (module, class) whose construction and validation is recorded as a span.
SPAN_CLASSES = (
    ("linalg", "Operator"),
    ("bipartite", "DensityMatrix"),
    ("bipartite", "BipartitePureState"),
)

# numpy functions counted per call; reported as linalg.<name>.calls.
KERNELS = (
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "svd"),
    (np, "einsum"),
)

# Span names whose call count is a metric of its own.
COUNTED_SPANS = ("linalg.require_hermitian", "linalg.Operator")

# serialize functions whose text result (dump) or text argument (load) is
# counted in bytes; every format is ASCII, so characters are bytes.
WRITERS = ("serialize.dump_state", "serialize.dump_report")
READERS = ("serialize.load_state", "serialize.load_matrix")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{m}.{n}.self_s", "s") for m, n in SPAN_FUNCTIONS + SPAN_CLASSES]
    names += [(f"{span}.calls", "count") for span in COUNTED_SPANS]
    names += [(f"linalg.{k}.calls", "count") for _, k in KERNELS]
    names += [("serialize.bytes_written", "bytes"), ("serialize.bytes_read", "bytes")]
    return names


def _module(name: str):
    return importlib.import_module(f"thermofield.{name}")


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.op_kind = ""
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        writes, reads = name in WRITERS, name in READERS
        calls_key = f"{name}.calls" if name in COUNTED_SPANS else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.op_id, parent, start, end)
            if calls_key:
                counts[(self.op_kind, calls_key)] += 1
            if writes:
                counts[(self.op_kind, "serialize.bytes_written")] += len(result)
            if reads:
                counts[(self.op_kind, "serialize.bytes_read")] += len(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.op_kind, key)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every thermofield module attribute that holds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermofield" or mod_name.startswith("thermofield.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def __enter__(self):
        for mod_name, name in SPAN_FUNCTIONS:
            original = getattr(_module(mod_name), name, None)
            if original is not None:
                self._replace_everywhere(original, self._span(f"{mod_name}.{name}", original))
        for mod_name, name in SPAN_CLASSES:
            cls = getattr(_module(mod_name), name, None)
            if cls is not None:
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._span(f"{mod_name}.{name}", cls.__init__)
        for owner, name in KERNELS:
            original = getattr(owner, name)
            self._undo.append((owner, name, original))
            setattr(owner, name, self._count(f"linalg.{name}.calls", original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- results -----------------------------------------------------------

    def start_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.op_kind = kind

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        own = [end - start for (_, _, _, start, end) in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), value in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload."""
        self_s = self.self_times()
        totals = Counter()
        for (_, key), value in self.counts.items():
            totals[key] += value
        out = {}
        for name, _ in metric_names():
            if name.endswith(".self_s"):
                out[name] = self_s.get(name[: -len(".self_s")], 0.0) / rounds
            else:
                out[name] = totals[name] / rounds
        return out

    def counts_by_kind(self) -> dict[str, dict[str, int]]:
        """Counts and bytes per op kind, summed over the traced rounds."""
        out: dict[str, dict[str, int]] = {}
        for (kind, key), value in self.counts.items():
            out.setdefault(kind, {})[key] = value
        return out
