"""Span recorder for the traced run.

Wraps public dgquiver functions from outside the package: every binding
of a wrapped function is replaced, including the names that other
modules re-bound with ``from ... import``.  Each call records a span
(name, parent, start, end) in memory; spans are written out at the end
of the run.  A span's self time is its duration minus the time its
child spans cover.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from collections.abc import Iterator
from time import perf_counter


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_rank(c, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    c["rows"] += len(rows)
    c["nnz"] += sum(len(r) for r in rows)
    c["rank"] += result


def _count_row_reduce(c, args, kwargs, result):
    c["rows"] += len(_arg(args, kwargs, 0, "rows"))


def _count_intersect(c, args, kwargs, result):
    c["rows"] += len(_arg(args, kwargs, 0, "u_rows")) + len(_arg(args, kwargs, 1, "w_rows"))


def _count_apply_to_path(c, args, kwargs, result):
    c["terms"] += len(result)


def _count_slices(c, args, kwargs, result):
    c["paths"] += sum(len(sl.basis) for sl in result.values())


def _count_truncated(c, args, kwargs, result):
    pres = _arg(args, kwargs, 0, "pres")
    nadams = _arg(args, kwargs, 1, "nadams")
    c["paths"] += paths_up_to(pres.quiver, nadams)


def _count_jn(c, args, kwargs, result):
    c["dim"] += len(result)


# span name -> (module, attribute path inside it, counter hook, counters
# reported besides self_s).  useful_ratio is derived from rank and rows.
SPANS = {
    "linalg.rank": ("linalg", "rank", _count_rank, ("calls", "rows", "nnz", "rank", "useful_ratio")),
    "linalg.row_reduce": ("linalg", "row_reduce", _count_row_reduce, ("rows",)),
    "linalg.intersect_rowspaces": ("linalg", "intersect_rowspaces", _count_intersect, ("rows",)),
    "linalg.solve_in_span": ("linalg", "solve_in_span", None, ("calls",)),
    "differential.apply_to_path": (
        "differential", "Differential.apply_to_path", _count_apply_to_path, ("calls", "terms"),
    ),
    "differential.check_d_squared": ("differential", "check_d_squared", None, ()),
    "differential.check_grading": ("differential", "check_grading", None, ()),
    "homology.bigraded_slices": ("homology", "bigraded_slices", _count_slices, ("paths",)),
    "homology.cohomology_dims": ("homology", "cohomology_dims", None, ()),
    "homology.truncated_dims": ("homology", "truncated_dims", _count_truncated, ("paths",)),
    "homology.h0_presentation": ("homology", "h0_presentation", None, ()),
    "homology.compare_h0": ("homology", "compare_h0", None, ()),
    "koszul.compute_Jn": ("koszul", "compute_Jn", _count_jn, ("dim",)),
    "koszul.minimal_model_general": ("koszul", "minimal_model_general", None, ()),
    "koszul.mckay_model": ("koszul", "mckay_model", None, ()),
    "koszul.polynomial_model": ("koszul", "polynomial_model", None, ()),
    "koszul.delete_vertex": ("koszul", "delete_vertex", None, ()),
    "core.multiply": ("core", "multiply", None, ("calls",)),
    "cy.build_split": ("cy", "build_split", None, ()),
    "cy.check_C_koszul_and_model": ("cy", "check_C_koszul_and_model", None, ()),
    "cy.SplitModel.ascending_model": ("cy", "SplitModel.ascending_model", None, ("calls",)),
    "cy.OmegaTilde.check_d_squared": ("cy", "OmegaTilde.check_d_squared", None, ()),
    "cy.build_and_check_omega": ("cy", "build_and_check_omega", None, ()),
    "serialize.model_from_json": ("serialize", "model_from_json", None, ()),
    "serialize.presentation_from_json": ("serialize", "presentation_from_json", None, ()),
    "serialize.dumps": ("serialize", "dumps", None, ()),
    "cli.main": ("cli", "main", None, ()),
}

OVERHEAD_METRIC = "tracing.overhead_s"


def paths_up_to(quiver, nadams: int) -> int:
    """Number of paths of Adams degree <= nadams, by dynamic programming
    over (Adams degree, end vertex)."""
    ending = [defaultdict(int) for _ in range(nadams + 1)]
    for v in quiver.vertices:
        ending[0][v] += 1
    for a in range(nadams + 1):
        for v, count in list(ending[a].items()):
            for arr in quiver.out_arrows(v):
                if a + arr.adeg <= nadams:
                    ending[a + arr.adeg][arr.target] += count
    return sum(sum(level.values()) for level in ending)


class Tracer:
    """Records spans and counters for calls into the wrapped functions."""

    def __init__(self):
        # one [name, parent id, start, end] per call, in call order
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._covered: list[float] = []  # per open span: time its children took
        self._self: dict[str, float] = defaultdict(float)
        self._counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._bindings: list[tuple[object, str, object, object]] = []
        self.missing: set[str] = set()  # SPANS the library no longer defines

    def _wrap(self, name, fn, hook):
        spans, stack, covered = self.spans, self._stack, self._covered
        self_time, counts = self._self, self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if args and isinstance(args[0], Iterator):
                # the counter hook reads the rows after the call consumed them
                args = (list(args[0]),) + args[1:]
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                children = covered.pop()
                spans[sid][2:] = [start, end]
                self_time[name] += end - start - children
            c = counts[name]
            c["calls"] += 1
            if hook is not None:
                hook(c, args, kwargs, result)
            if covered:
                # the parent's self time excludes this call and its counting
                covered[-1] += perf_counter() - start
            return result

        return wrapper

    def install(self, lib) -> None:
        """Replace every binding of each SPANS function inside dgquiver.
        A function the library no longer defines is noted in ``missing``
        and reads 0."""
        if self._bindings:
            return
        modules = [m for n, m in sys.modules.items() if n == "dgquiver" or n.startswith("dgquiver.")]
        for name, (mod_name, attr, hook, _counters) in SPANS.items():
            owner = getattr(lib, mod_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(fn_name) if owner is not None else None
            if not callable(fn):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            if cls_path:
                self._bindings.append((owner, fn_name, fn, wrapper))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, key, fn, wrapper))
        for owner, key, _fn, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn, _wrapper in self._bindings:
            setattr(owner, key, fn)
        self._bindings = []

    def take(self) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
        """Self times and counters accumulated since the last take."""
        self_time = dict(self._self)
        counts = {name: dict(c) for name, c in self._counts.items()}
        self._self.clear()
        self._counts.clear()
        return self_time, counts

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent id, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(
    setup: tuple[dict, dict], passes: list[tuple[dict, dict]], overhead_s: float
) -> dict[str, dict]:
    """Per-layer metrics for one set-up plus one pass: self times are the
    set-up's plus the median over traced passes; counters are the set-up's
    plus one pass's (the caller checks that passes agree)."""
    setup_self, setup_counts = setup
    metrics = {}
    for span, (_mod, _attr, _hook, counters) in SPANS.items():
        self_s = setup_self.get(span, 0.0) + statistics.median(p[0].get(span, 0.0) for p in passes)
        metrics[f"{span}.self_s"] = {"value": self_s, "unit": "s"}
        total = defaultdict(int, setup_counts.get(span, {}))
        for key, value in passes[0][1].get(span, {}).items():
            total[key] += value
        for key in counters:
            if key == "useful_ratio":
                value = total["rank"] / total["rows"] if total["rows"] else 0.0
                metrics[f"{span}.{key}"] = {"value": value, "unit": "ratio"}
            else:
                metrics[f"{span}.{key}"] = {"value": total[key], "unit": "count"}
    metrics[OVERHEAD_METRIC] = {"value": overhead_s, "unit": "s"}
    return metrics


def counter_values(metrics: dict[str, dict]) -> dict[str, float]:
    """The deterministic part of the per-layer metrics: every counter."""
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")}
