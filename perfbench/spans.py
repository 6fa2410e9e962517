"""Outside-in span recorder for the centinv layers.

Each traced layer is a public function or method of a ``centinv`` module.
Installing the recorder replaces it with a timing wrapper in its defining
namespace and in every ``centinv`` module that imported it by name (for
example ``build_gl_model`` lives in ``centralizer``, ``runner`` and
``nullcone``), so every call path is seen.  ``uninstall`` puts the originals
back.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "centinv"


def _slice_terms(args, result) -> int:
    return sum(len(q.terms) for q in result.full)


def _matrix_cells(args, result) -> int:
    return args[0].nrows * args[0].ncols


# (module, qualified name, work counter name, work counter) per traced layer.
LAYERS = (
    ("runner", "run_partition", None, None),
    ("centralizer", "build_gl_model", None, None),
    ("centralizer", "build_sp_model", None, None),
    ("invariants", "principal_minor_sums", "terms", _slice_terms),
    ("invariants", "symplectic_minor_sums", "terms", _slice_terms),
    ("invariants", "evaluate_jacobian", None, None),
    ("invariants", "verify_centrality", None, None),
    ("invariants", "initial_algebra_rank", None, None),
    ("invariants", "coordinate_bracket_with", None, None),
    ("invariants", "poisson_bracket", None, None),
    ("regularity", "singular_locus_probe", None, None),
    ("regularity", "differential_criterion", None, None),
    ("regularity", "stabilizer_dim", None, None),
    ("regularity", "bracket_form_matrix", None, None),
    ("regularity", "choose_generators", None, None),
    ("regularity", "index_report", None, None),
    ("regularity", "plane_regularity_scan", None, None),
    ("linalg", "RatMatrix.rank", "cells", _matrix_cells),
    ("linalg", "RatMatrix.det", "cells", _matrix_cells),
    ("poly", "SparsePoly.evaluate", None, None),
    ("poly", "SparsePoly.partial_derivative", None, None),
    ("poly", "SparsePoly.__mul__", None, None),
    ("nullcone", "transversality_certificate", None, None),
    ("nullcone", "component_zero_locus_check", None, None),
    ("nullcone", "top_block_support_check", None, None),
    ("partitions", "partitions_of", None, None),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    active: int = 0


class Recorder:
    """Wraps every layer in ``LAYERS`` while installed; see module docstring."""

    def __init__(self, clock=perf_counter):
        """``clock`` times the spans; the benchmark passes one that stands
        still while its host-speed probe runs."""
        self._clock = clock
        self.stats = {f"{m}.{q}": LayerStats() for m, q, _, _ in LAYERS}
        self._open_child_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, stats: LayerStats, fn, count):
        stack = self._open_child_s
        clock = self._clock

        def span(*args, **kwargs):
            stats.active += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    # time the enumeration, not the creation of the generator
                    result = iter(list(result))
            finally:
                elapsed = clock() - start
                child_s = stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += elapsed - child_s
                if not stats.active:  # recursion: count the outermost span once
                    stats.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                stats.work += count(args, result)
            return result

        return functools.wraps(fn)(span)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, qualname, _, count in LAYERS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(self.stats[f"{module}.{qualname}"], original, count)
            namespaces = [owner] if path else [
                mod for mod in modules if vars(mod).get(attr) is original]
            for ns in namespaces:
                self._patches.append((ns, attr, original))
                setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit), in table order."""
        out = {}
        for module, qualname, work, _ in LAYERS:
            base = f"{module}.{qualname}"
            st = self.stats[base]
            out[f"{base}.calls"] = (st.calls, "count")
            out[f"{base}.total_s"] = (st.total_s, "s")
            out[f"{base}.self_s"] = (st.self_s, "s")
            if work:
                out[f"{base}.{work}"] = (st.work, "count")
        return out
