"""Per-layer spans for the traced benchmark run, without touching the library.

Each traced function is replaced, for the duration of a `with` block, by a
wrapper installed under the name its *caller* looks up.  census.py and
equivalence.py bind their dependencies with `from ... import`, so a span
around, say, `volume_vector` is installed in the equivalence namespace,
not in invariants.  Modules are fetched with importlib because the package
attribute `lattice_equiv.census` is the census *function*, not the module.

linalg is measured only inside its callers' spans: its functions are too
small to wrap without distorting the run.  cli, constructions, caps and
errors are off every hot path and are not wrapped.
"""

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# NotEquivalent.reason -> metric slug.  A reason missing here is counted
# as "other", so a reworded or new reason shows up instead of vanishing.
REASON_SLUGS = {
    "vertex counts differ": "vertex_count",
    "primitive volume vectors differ as multisets": "direction_sig",
    "volume vectors differ as multisets": "entry_sig",
    "normalized volumes differ": "volume",
    "lattice height multisets differ": "height_sig",
    "no vertex correspondence extends to an affine map": "search",
}
REJECT_SLUGS = tuple(REASON_SLUGS.values()) + ("other",)
DECIDERS = ("affine_equivalent", "unimodular_equivalent",
            "unimodular_affine_equivalent")
INVARIANTS = ("volume_vector", "primitive_decomposition",
              "lattice_height_vector")


class Tracer:
    """Call counts, total and self seconds per span name, plus outcome
    counters.  Self time is a span's duration minus its direct child spans."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.counts = Counter()
        self._open = []  # child seconds accumulated by each open span

    def wrap(self, name, fn, outcome=None):
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - children
            if outcome is not None:
                outcome(self.counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self):
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "counts": dict(self.counts)}


def _decision(counts, name, result):
    if result:
        counts[name + ".positive"] += 1
    else:
        slug = REASON_SLUGS.get(getattr(result, "reason", None), "other")
        counts[f"{name}.reject.{slug}"] += 1


def _index_one(counts, name, result):
    counts[name + ".index_one"] += result.index == 1


def _polygons(counts, name, result):
    counts["census.polygons"] += len(result)


# (calling module, attribute, span name, outcome hook)
TARGETS = (
    ("census", "census", "census.census", None),
    ("census", "build_volume_representatives",
     "census.build_volume_representatives", None),
    ("census", "enumerate_convex_polygons", "census.enumerate_convex_polygons",
     _polygons),
    ("census", "canonical_polygon", "equivalence.canonical_polygon", None),
    ("census", "affine_equivalent", "equivalence.affine_equivalent", _decision),
    ("census", "LatticePolytope", "geometry.LatticePolytope", None),
    ("census", "sublattice_info", "lattices.sublattice_info", _index_one),
    ("equivalence", "LatticePolytope", "geometry.LatticePolytope", None),
) + tuple(
    ("equivalence", name, "equivalence." + name, _decision) for name in DECIDERS
) + tuple(
    ("equivalence", name, "invariants." + name, None) for name in INVARIANTS
)


def module(name):
    return importlib.import_module("lattice_equiv." + name)


@contextmanager
def installed(tracer):
    """Swap every target for its traced wrapper; restore on exit."""
    saved = []
    try:
        for mod_name, attr, span, outcome in TARGETS:
            mod = module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span, original, outcome))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def cache_entries():
    """Entries held by the memo caches of the equivalence module, found by
    scanning for `cache_info` so the count survives caches being removed."""
    return sum(obj.cache_info().currsize
               for obj in vars(module("equivalence")).values()
               if hasattr(obj, "cache_info"))
