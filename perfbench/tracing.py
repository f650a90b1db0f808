"""In-memory span tracing of blocksvd's public functions, from outside.

The tracer replaces a function by a timing wrapper under every module name
it was imported into (``operator_norm`` lives in ``matcore`` but is also
bound in ``pipeline``, ``blockdiag``, ``givens`` and ``bounds``), and
restores the originals on ``uninstall``. A target that no longer exists is
reported as missing and counts zero calls.

Spans are ``[name, start_ns, end_ns, parent_index, job_id]`` rows kept in a
list until the run ends. A span's self time is its duration minus the part
of it covered by its child spans.

The LAPACK calls underneath (``numpy.linalg.svd``, ``qr``, ``solve``) are
counted at their boundary rather than traced as spans: their time stays in
the self time of the blocksvd function that called them, which is the
layer that chose to make the call, and ``linalg.*`` counts it separately.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (layer module, attribute path) of every traced public function.
TARGETS = (
    ("mmio", "read_matrix"),
    ("pipeline", "plan_partition"),
    ("pipeline", "PartitionPlan.apply"),
    ("pipeline", "algorithm2"),
    ("matcore", "operator_norm"),
    ("matcore", "svd"),
    ("blockdiag", "block_diagonalize"),
    ("blockdiag", "top_singular_values"),
    ("blockdiag", "SweepTrace.append_state"),
    ("blockdiag", "check_lemma11"),
    ("givens", "build_left_rotation"),
    ("givens", "build_right_rotation"),
    ("givens", "block_trig"),
    ("bounds", "weyl_gap_bounds"),
    ("bounds", "small_rank_bounds"),
    ("bounds", "mu_bounds"),
    ("bounds", "theorem2_bounds"),
    ("cli", "main"),
    ("cli", "_emit"),
)
LINALG = ("svd", "qr", "solve")


def svd_flops(shape, compute_uv: bool, full_matrices: bool) -> float:
    """Textbook flop count of one (batched) SVD, from its shape only.

    Golub and Van Loan's counts for the Golub-Reinsch SVD of an a x b
    matrix, a >= b: values only 4ab^2 - 4b^3/3; thin factors 14ab^2 + 8b^3;
    full factors 4a^2b + 8ab^2 + 9b^3. Computed, not measured.
    """
    *batch, m, n = shape
    a, b = max(m, n), min(m, n)
    if not compute_uv:
        f = 4 * a * b * b - 4 * b ** 3 / 3
    elif full_matrices:
        f = 4 * a * a * b + 8 * a * b * b + 9 * b ** 3
    else:
        f = 14 * a * b * b + 8 * b ** 3
    for d in batch:
        f *= d
    return float(f)


class Tracer:
    def __init__(self, entries_by_path: dict[str, int]):
        self.spans: list[list] = []
        self.job = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._entries = entries_by_path

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, kwargs, out)
            return out
        return wrapper

    def run_job(self, job_id: int, fn, *args):
        """Call ``fn(*args)`` under a root span named ``job``."""
        self.job = job_id
        return self._span("job", fn)(*args)

    def _linalg(self, name, fn):
        counters, clock = self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                counters[f"linalg.{name}_ns"] += clock() - t0
                counters[f"linalg.{name}_calls"] += 1
                if name == "svd":
                    uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
                    full = kwargs.get("full_matrices", args[0] if args else True)
                    counters["linalg.svd_flops"] += svd_flops(getattr(a, "shape", (0, 0)), uv, full)
        return wrapper

    def _observer(self, name):
        c = self.counters
        if name == "mmio.read_matrix":
            def observe(args, kwargs, out):
                path = os.fspath(args[0] if args else kwargs["path"])
                c["mmio.bytes"] += os.path.getsize(path)
                c["mmio.entries"] += self._entries.get(os.path.abspath(path), 0)
            return observe
        if name == "blockdiag.block_diagonalize":
            def observe(args, kwargs, out):
                c["blockdiag.sweeps"] += out.iterations
            return observe
        return None

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import numpy.linalg
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "blocksvd" or n.startswith("blocksvd."))]
        for layer, path in TARGETS:
            name = f"{layer}.{path}"
            owner = sys.modules.get(f"blocksvd.{layer}")
            *cls, attr = path.split(".")
            for part in cls:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._span(name, original, self._observer(name))
            if cls:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        inner = sys.modules.get("numpy.linalg._linalg")
        for name in LINALG:
            wrapper = self._linalg(name, getattr(numpy.linalg, name))
            for owner in (numpy.linalg, inner):
                if owner is not None and hasattr(owner, name):
                    self._patch(owner, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: duration minus its children's cover."""
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive ns (outermost calls only), self ns.

    Also the self time of every name inside ``pipeline.algorithm2`` and
    inside ``job``, which show where each spends its time.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    within = {"pipeline.algorithm2": defaultdict(int), "job": defaultdict(int)}
    for idx, s in enumerate(spans):
        name = s[0]
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_ns"] += selfs[idx]
        outermost = True
        p = s[3]
        while p >= 0:
            pname = spans[p][0]
            if pname == name:
                outermost = False
            if pname in within:
                within[pname][name] += selfs[idx]
            p = spans[p][3]
        if name in within:
            within[name][name] += selfs[idx]
        if outermost:
            entry["incl_ns"] += s[2] - s[1]
    return {"by_name": dict(by_name),
            "self_within": {k: dict(v) for k, v in within.items()}}
