"""Traced pass: spans around the library's public calls, and the per-layer ledger.

A :class:`Tracer` replaces module attributes (and two methods) of ``recykl``
with wrappers that record one span per call: name, start, end, parent span
and pass id, plus a few counters taken at the same boundary (iterations of a
Krylov run, bytes of a CSR matrix, size of a file read).  Wrappers go on the
attribute the caller looks up at call time, so every module that bound a
wrapped function under its own name gets its own patch.  They exist only
between :meth:`Tracer.install` and :meth:`Tracer.remove`.

:func:`layer_metrics` turns the spans of one traced pass into the per-layer
metrics.  A span's self time is its duration minus the durations of its
direct children; because spans nest, the self times of all spans add up to
the durations of the root spans, and ``trace.coverage`` is that sum over the
traced pass's wall time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from recykl import bench, krylov, linalg, mmio, preconditioners, problems, threestage, truncation

# self times must account for at least this share of the traced pass
COVERAGE_SLACK = 0.02

# every method of the largest roster, so that every workload reports the same
# per-method metrics (0 for a method outside its roster)
ALL_METHODS = [m.name for m in bench.default_methods(include_output_metric=True)]


def method_key(name: str) -> str:
    """Metric-safe method name: "(", "," and ")" map to "-"."""
    return name.translate(str.maketrans("(,)", "---"))


def _csr_bytes(A) -> int:
    # one sweep reads the three CSR arrays and x, and writes y
    return A.values.nbytes + A.col_indices.nbytes + A.row_offsets.nbytes + 2 * 8 * A.n


def _krylov_note(args, kwargs, result, exc):
    res = result if exc is None else getattr(exc, "partial", None)
    k = res.k if res is not None else 0
    return {"k": k, "converged": exc is None, "fom": kwargs.get("mode", "cg") == "fom"}


class Tracer:
    """Records spans of one traced pass in memory."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent, note]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name(args, kwargs, spans[parent][0] if parent >= 0 else None) \
                if callable(name) else name
            sid = len(spans)
            span = [label, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(sid)
            result, error = None, None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if note is not None:
                    span[4] = note(args, kwargs, result, error)

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_function(self, fn, name, note=None):
        """Patch every recykl module that binds ``fn``, under any name."""
        wrapper = self._wrap(fn, name, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "recykl" or mod_name.startswith("recykl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def wrap_method(self, cls, attr, name, note=None):
        self._patch(cls, attr, self._wrap(getattr(cls, attr), name, note))

    def install(self) -> None:
        """Wrap the layer boundaries."""
        method_names: dict[int, str] = {}  # id(config) -> method name

        def name_methods(args, kwargs, result, exc):
            method_names.update({id(m.config): m.name for m in result or ()})

        self.wrap_function(problems.load_sequence_manifest, "problems.load_sequence_manifest")
        self.wrap_function(bench.default_methods, "bench.default_methods", name_methods)
        for fn in (mmio.read_matrix, mmio.read_array):
            self.wrap_function(fn, "mmio.read",
                               lambda a, kw, r, e: {"bytes": os.path.getsize(a[0])})
        self.wrap_function(preconditioners.build, "preconditioners.build",
                           lambda a, kw, r, e: {"matrix": id(a[1])})
        self.wrap_method(preconditioners.Preconditioner, "apply", "preconditioners.apply")
        self.wrap_function(linalg.spmv, "linalg.spmv",
                           lambda a, kw, r, e: {"bytes": _csr_bytes(a[0])})
        self.wrap_function(linalg.assemble_gram, "linalg.gram")
        self.wrap_function(linalg.dense_cholesky, "linalg.cholesky")
        for fn in (linalg.symmetric_evd, linalg.generalized_symmetric_evd, linalg.thin_svd):
            self.wrap_function(fn, "linalg.evd")
        self.wrap_function(krylov.direct_reduced_solve, "threestage.stage1",
                           lambda a, kw, r, e: {"w": a[2].shape[1]})

        def krylov_role(args, kwargs, parent):
            if isinstance(args[0], linalg.SparseSpdMatrix):
                return "krylov.stage3"
            if parent == "threestage.inner_projection":
                return "krylov.inner"
            return "krylov.stage2"

        self.wrap_function(krylov.augmented_pcg, krylov_role, _krylov_note)
        self.wrap_method(threestage.InnerIterativeProjection, "__call__",
                         "threestage.inner_projection")
        self.wrap_function(threestage.update_basis, "threestage.update_basis")
        self.wrap_function(truncation.compress, "truncation.compress",
                           lambda a, kw, r, e: {"y": r.Y_new.shape[1] if r is not None else 0})
        self.wrap_function(threestage.run_sequence, "bench.run_sequence",
                           lambda a, kw, r, e: {"method": method_names.get(id(a[1]), "?")})
        self.wrap_function(bench.dense_solutions, "bench.dense_solutions")

        def checkpoints(args, kwargs, result, exc):
            count, n = 0, args[0].n
            for run in result or ():
                count += sum(len(r.checkpoints or ()) for r in run.reports)
            return {"checkpoints": count, "n": n}

        self.wrap_function(bench.run_methods, "bench.run_methods", checkpoints)
        self.wrap_function(bench.output_error_run, "bench.output_error_run")
        for fn in (bench.write_run_outputs, bench.write_rows_csv):
            self.wrap_function(fn, "bench.write")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer creation."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent, "pass": self.pass_id,
                }) + "\n")


# -- ledger -----------------------------------------------------------------


def self_times(spans) -> list[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, pass_s: float, solves: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_frac`` excluded)."""
    selfs = self_times(spans)
    total = defaultdict(float)  # inclusive seconds per span name
    own = defaultdict(float)  # self seconds per span name
    count = defaultdict(int)
    notes = defaultdict(list)
    per_method = defaultdict(float)
    for (name, start, end, _, note), self_s in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_s
        count[name] += 1
        if note is not None:
            notes[name].append(note)
            if name == "bench.run_sequence":
                per_method[note["method"]] += end - start

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    krylov_notes = [n for role in ("krylov.stage2", "krylov.stage3", "krylov.inner")
                    for n in notes[role]]
    builds = count["preconditioners.build"]
    matrices = len({n["matrix"] for n in notes["preconditioners.build"]})
    ckpt = notes["bench.run_methods"]
    stage2 = notes["krylov.stage2"]
    roster = "bench.output_error_run" if count["bench.output_error_run"] else "bench.run_methods"
    return {
        "mmio.read_s": own["mmio.read"],
        "mmio.read_mb": sum(n["bytes"] for n in notes["mmio.read"]) / 1e6,
        "preconditioners.build_count": builds,
        "preconditioners.build_s": own["preconditioners.build"],
        "preconditioners.builds_per_matrix": builds / matrices if matrices else 0.0,
        "preconditioners.apply_count": count["preconditioners.apply"],
        "preconditioners.apply_s": own["preconditioners.apply"],
        "precond_per_solve": count["preconditioners.apply"] / solves,
        "linalg.spmv_count": count["linalg.spmv"],
        "linalg.spmv_s": own["linalg.spmv"],
        "linalg.spmv_mb_computed": sum(n["bytes"] for n in notes["linalg.spmv"]) / 1e6,
        "linalg.gram_count": count["linalg.gram"],
        "linalg.gram_s": own["linalg.gram"],
        "linalg.cholesky_count": count["linalg.cholesky"],
        "linalg.cholesky_s": own["linalg.cholesky"],
        "linalg.evd_s": own["linalg.evd"],
        "krylov.calls": len(krylov_notes),
        "krylov.iterations": sum(n["k"] for n in krylov_notes),
        "krylov.self_s": own["krylov.stage2"] + own["krylov.stage3"] + own["krylov.inner"],
        "krylov.reorth_dots_computed": sum(n["k"] * (n["k"] - 1) for n in krylov_notes
                                           if n["fom"]),
        "threestage.stage1_s": total["threestage.stage1"],
        "threestage.stage1_dim_mean": mean([n["w"] for n in notes["threestage.stage1"]]),
        "threestage.stage2_s": total["krylov.stage2"],
        "threestage.stage2_iters": sum(n["k"] for n in stage2),
        "threestage.stage2_converged_frac": mean([float(n["converged"]) for n in stage2]),
        "threestage.stage3_s": total["krylov.stage3"],
        "threestage.stage3_iters": sum(n["k"] for n in notes["krylov.stage3"]),
        "threestage.inner_projection_count": count["threestage.inner_projection"],
        "threestage.inner_projection_s": total["threestage.inner_projection"],
        "threestage.update_basis_s": own["threestage.update_basis"],
        "truncation.compress_count": count["truncation.compress"],
        "truncation.compress_s": own["truncation.compress"],
        "truncation.retained_dim_mean": mean([n["y"] for n in notes["truncation.compress"]]),
        "threestage.checkpoint_count": sum(n["checkpoints"] for n in ckpt),
        "threestage.checkpoint_mb_computed": sum(8 * n["n"] * n["checkpoints"]
                                                 for n in ckpt) / 1e6,
        "bench.roster_s": total[roster],
        **{f"bench.sequence_s.{method_key(m)}": per_method.get(m, 0.0) for m in ALL_METHODS},
        "bench.write_s": total["bench.write"],
        "bench.reference_solve_s": total["bench.dense_solutions"],
        "bench.output_eval_s": own["bench.output_error_run"],
        "trace.coverage": sum(selfs) / pass_s,
    }
