#!/usr/bin/env python3
"""blocksvd benchmark: Matrix Market files in, certified JSON reports out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.py`` with the reason each exists. A run

1. generates the workload's input files from ``--seed`` with numpy only,
   and computes the dense-SVD oracle for each (not timed);
2. with ``--trace 0``, times fresh interpreters importing ``blocksvd.cli``
   (``setup_s``, the median of several); with ``--trace 1``, takes the
   per-module import self times from ``python -X importtime``;
3. starts the workload in a fresh interpreter (``worker.py``) with one BLAS
   and OpenMP thread (see ``BLAS_THREADS``). One client runs whole
   rounds of jobs in a closed loop until ``--seconds`` have passed. With
   ``--trace 1`` the first half runs untraced and the second half traced,
   which gives the tracing overhead;
4. checks every report against the oracle (``oracle.py``) and prints the
   metrics. The last line of standard output is one JSON object:
   ``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
   metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.

Everything else (environment, input digest, sample counts, failures by
cause, the span file) goes to ``.perfbench_out/`` and a summary to
standard error. ``--smoke`` runs the same code on tiny inputs.

A job fails if it raises, if the CLI exits non-zero for a reason other
than a Lemma 11 diagnostic, or if its report fails the oracle check.
``correct`` is false if any report fails the oracle check or no job passes.
Per-layer values are means per traced job unless the unit says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread in every process the benchmark starts. The jobs
# make many LAPACK calls on matrices of at most a few hundred rows; on a
# 2-vCPU Intel Xeon VM a 400x200 approx job took 0.69 s with one thread
# against 0.79 s with two, and repeated runs of one seed spread about half
# as much (5% against 9%).
BLAS_THREADS = 1
# Fresh imports timed per run; setup_s is their median. One import takes
# about 1.1 s, and on a shared 2-vCPU VM single imports vary by a quarter,
# so a run takes enough of them for a steady median without growing past
# the time budget of a run.
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0         # the whole run, set-up included


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_threads(env: dict) -> None:
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_imports(repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing blocksvd.cli. One untimed
    import first, so byte-code caches exist as they would for a user."""
    cmd = [sys.executable, "-c", "import blocksvd.cli"]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def import_self_times(repeats: int) -> dict[str, float]:
    """Median self seconds of module groups under ``python -X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import blocksvd.cli"]
    groups = {"blocksvd": lambda n: n == "blocksvd" or n.startswith("blocksvd."),
              "randmat": lambda n: n == "blocksvd.randmat",
              "scipy": lambda n: n == "scipy" or n.startswith("scipy."),
              "numpy": lambda n: n == "numpy" or n.startswith("numpy.")}
    samples = {g: [] for g in groups}
    for _ in range(repeats):
        err = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=60,
                             capture_output=True, text=True).stderr
        totals = dict.fromkeys(groups, 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            name = name.strip()
            for g, match in groups.items():
                if match(name):
                    totals[g] += int(self_us) / 1e6
        for g in groups:
            samples[g].append(totals[g])
    return {g: statistics.median(v) for g, v in samples.items()}


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest order statistic with ten samples
    beyond it, but never one below the median. With fewer than 21 samples
    that is the median itself; the percentile says which one was taken."""
    xs = sorted(times)
    n = len(xs)
    idx = max(n - 11, n // 2)
    return 100.0 * (idx + 1) / n, xs[idx]


def run_worker(spec: dict, work: str, deadline: float) -> dict:
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran past the deadline")
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    with open(result_path) as fh:
        return json.load(fh)


def check_records(kind: str, records: list[dict], jobs_by_path: dict, facts: dict) -> None:
    """Give every record an outcome: "ok" or its failure cause."""
    import oracle
    for rec in records:
        rec["counts"] = {}
        if rec["status"] != "ok":
            rec["outcome"] = rec["status"]
            continue
        job, fx = jobs_by_path[rec["path"]], facts[rec["path"]]
        try:
            if kind == "approx":
                with open(rec["out"]) as fh:
                    ok, why, counts = oracle.check_approx(json.load(fh), fx, job["k"], job["i"])
            elif kind == "plan":
                with open(rec["out"]) as fh:
                    ok, why, counts = oracle.check_plan(json.load(fh), fx)
            else:
                code_b, code_d = rec["codes"]
                if 2 in (code_b, code_d):
                    rec["outcome"], rec["detail"] = "exit2", f"exit codes {rec['codes']}"
                    continue
                with open(rec["out"] + ".bounds") as fh:
                    ok_b, why_b, counts = oracle.check_bounds(json.load(fh), fx)
                with open(rec["out"] + ".blockdiag") as fh:
                    ok_d, why_d, counts_d = oracle.check_blockdiag(json.load(fh), fx)
                counts.update(counts_d)
                if code_d == 1 and ok_d and not counts_d["lemma11_violations"]:
                    ok_d, why_d = False, "blockdiag exited 1 without a Lemma 11 diagnostic"
                ok, why = ok_b and ok_d, why_b or why_d
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            ok, why, counts = False, f"unreadable report: {type(exc).__name__}: {exc}", {}
        rec["counts"] = counts
        rec["outcome"] = "ok" if ok else "oracle"
        if not ok:
            rec["detail"] = why


def goodput(records: list[dict], loop: dict) -> float:
    return sum(r["outcome"] == "ok" for r in records if r["phase"] == loop["phase"]) / loop["seconds"]


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(records, loop, setup_times, rss) -> tuple[dict, dict]:
    passed = [r["seconds"] for r in records if r["outcome"] == "ok"]
    timed = passed or [r["seconds"] for r in records]
    pct, tail_s = tail(timed)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "jobs_per_s": metric(goodput(records, loop), "1/s", len(passed)),
        "job_p50_s": metric(statistics.median(timed), "s", len(timed)),
        "job_tail_s": metric(tail_s, "s", len(timed)),
        "peak_rss_mb": metric(rss, "MB", 1),
    }
    return metrics, {"tail_percentile": pct, "setup_samples_s": setup_times}


LAYER_SPANS = {   # per-layer metric -> span names whose inclusive time it sums
    "mmio.read_s": ("mmio.read_matrix",),
    "pipeline.plan_s": ("pipeline.plan_partition",),
    "pipeline.apply_s": ("pipeline.PartitionPlan.apply",),
    "pipeline.algorithm2_s": ("pipeline.algorithm2",),
    "matcore.operator_norm_s": ("matcore.operator_norm",),
    "blockdiag.block_diagonalize_s": ("blockdiag.block_diagonalize",),
    "blockdiag.append_state_s": ("blockdiag.SweepTrace.append_state",),
    "blockdiag.check_lemma11_s": ("blockdiag.check_lemma11",),
    "givens.build_rotation_s": ("givens.build_left_rotation", "givens.build_right_rotation"),
    "bounds.weyl_gap_s": ("bounds.weyl_gap_bounds",),
    "bounds.small_rank_s": ("bounds.small_rank_bounds",),
    "bounds.mu_s": ("bounds.mu_bounds",),
    "bounds.theorem2_s": ("bounds.theorem2_bounds",),
    "cli.emit_s": ("cli._emit",),
}
LAYER_CALLS = {
    "matcore.operator_norm_calls": ("matcore.operator_norm",),
    "givens.rotations": ("givens.build_left_rotation", "givens.build_right_rotation"),
}
LAYERS = ("job", "mmio", "pipeline", "matcore", "blockdiag", "givens", "bounds", "cli")
FAIL_CAUSES = ("pivot_singular", "not_converged", "oracle")   # the rest count as "other"


def per_layer(records, loops, worker, imports) -> tuple[dict, dict]:
    traced = [r for r in records if r["phase"] == "traced"]
    n = max(len(traced), 1)
    by_name = worker["summary"]["by_name"]
    counters = worker["counters"]

    def total(names, key):
        return sum(by_name.get(name, {}).get(key, 0) for name in names)

    m = {}
    for name, spans in LAYER_SPANS.items():
        m[name] = metric(total(spans, "incl_ns") / 1e9 / n, "s/job")
    for name, spans in LAYER_CALLS.items():
        m[name] = metric(total(spans, "calls") / n, "count/job")
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, entry in by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + entry["self_ns"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(layer_self[layer] / 1e9 / n, "s/job")
    m["job.wall_s"] = metric(sum(r["seconds"] for r in traced) / n, "s/job")

    for op in ("svd", "qr", "solve"):
        m[f"linalg.{op}_calls"] = metric(counters.get(f"linalg.{op}_calls", 0) / n, "count/job")
        m[f"linalg.{op}_s"] = metric(counters.get(f"linalg.{op}_ns", 0) / 1e9 / n, "s/job")
    m["linalg.svd_flops"] = metric(counters.get("linalg.svd_flops", 0) / n, "flop-calc/job")
    m["blockdiag.sweeps"] = metric(counters.get("blockdiag.sweeps", 0) / n, "count/job")
    m["mmio.bytes"] = metric(counters.get("mmio.bytes", 0) / n, "B/job")
    read_s = total(("mmio.read_matrix",), "incl_ns") / 1e9
    m["mmio.entries_per_s"] = metric(counters.get("mmio.entries", 0) / read_s if read_s else 0.0, "1/s")

    def share(pred):
        return sum(1 for r in traced if pred(r)) / n

    for cause in FAIL_CAUSES:
        m[f"pipeline.fail.{cause}"] = metric(share(lambda r, c=cause: r["outcome"] == c), "count/job")
    m["pipeline.fail.other"] = metric(
        share(lambda r: r["outcome"] not in FAIL_CAUSES + ("ok",)), "count/job")
    m["pipeline.pivot_shrinks"] = metric(share(lambda r: r["counts"].get("shrunk")), "count/job")
    rel = [r["counts"]["bound_rel"] for r in traced if r["outcome"] == "ok" and "bound_rel" in r["counts"]]
    m["pipeline.bound_rel_p50"] = metric(statistics.median(rel) if rel else 0.0, "ratio", len(rel))
    m["bounds.oracle_misses"] = metric(sum(r["counts"].get("oracle_misses", 0) for r in traced) / n, "count/job")
    m["blockdiag.lemma11_violations"] = metric(
        sum(r["counts"].get("lemma11_violations", 0) for r in traced) / n, "count/job")

    for group, seconds in imports.items():
        m[f"setup.import.{group}_s"] = metric(seconds, "s")
    ref = worker.get("ref_dense_svd_s") or []
    m["ref.dense_svd_s"] = metric(statistics.median(ref) if ref else 0.0, "s/job", len(ref))

    untraced, traced_loop = loops
    base, with_trace = goodput(records, untraced), goodput(records, traced_loop)
    m["trace.untraced_jobs_per_s"] = metric(base, "1/s")
    m["trace.traced_jobs_per_s"] = metric(with_trace, "1/s")
    m["trace.overhead_ratio"] = metric(with_trace / base if base else 0.0, "ratio")

    def top(within):
        return sorted(((k, v / 1e9 / n) for k, v in within.items()), key=lambda kv: -kv[1])[:8]
    extra = {"missing_targets": worker["missing"],
             "self_s_per_job_within": {k: top(v) for k, v in worker["summary"]["self_within"].items()}}
    return m, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "blocksvd", "__init__.py")):
        print(f"error: no blocksvd package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    set_threads(os.environ)

    # numpy is imported only now, after the thread variables are set.
    import oracle
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        w = wl.smoke_variant(w)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        pool = wl.generate(w, args.seed, sorted(wl.WORKLOADS).index(w.name), work)
        files = [f for rnd in pool for f in rnd]
        input_digest = wl.digest(pool)
        facts = {f.path: oracle.facts(f, w.kind) for f in files}
        jobs_by_path = {f.path: {"path": f.path, "k": f.shape.k, "i": f.shape.i} for f in files}
        tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)

        if args.trace:
            setup_times, imports = [], import_self_times(1 if args.smoke else IMPORTTIME_REPEATS)
        else:
            setup_times, imports = time_imports(1 if args.smoke else SETUP_REPEATS), {}

        spec = {"kind": w.kind, "out_dir": out_dir, "seconds": args.seconds, "trace": args.trace,
                "pool": [[jobs_by_path[f.path] for f in rnd] for rnd in pool],
                "entries": {f.path: f.nnz for f in files},
                "ref_paths": [f.path for rnd in pool[:2] for f in rnd] if w.kind != "plan" else [],
                "spans_path": os.path.join(OUT, f"spans-{tag}.json"),
                "thread_vars": THREAD_VARS}
        worker = run_worker(spec, work, started + DEADLINE_S)
        records = worker["records"]
        check_records(w.kind, records, jobs_by_path, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(records, worker["loops"], worker, imports)
    else:
        metrics, extra = end_to_end(records, worker["loops"][0], setup_times, worker["peak_rss_mb"])
    attempted = len(records)
    outcomes = {}
    for r in records:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    failed = attempted - outcomes.get("ok", 0)
    correct = outcomes.get("oracle", 0) == 0 and outcomes.get("ok", 0) > 0
    rel = [r["counts"]["bound_rel"] for r in records if r["outcome"] == "ok" and "bound_rel" in r["counts"]]
    violations = [r["counts"]["failed_checks"] for r in records if "failed_checks" in r["counts"]]
    details = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": {"nproc": usable_cpus(), "cpu": cpu_model(), **worker["env"]},
        "inputs": {"files": len(files), "sha256": input_digest,
                   "shapes": sorted({f"{f.shape.m}x{f.shape.n} k={f.shape.k} i={f.shape.i} "
                                     f"density={f.shape.density}" for f in files})},
        "loops": worker["loops"],
        "jobs": {"attempted": attempted, "failed": failed, "outcomes": outcomes,
                 "fail_rate": failed / attempted if attempted else 0.0,
                 "bound_rel_p50": statistics.median(rel) if rel else None,
                 "jobs_with_lemma11_violations": sum(1 for v in violations if v),
                 "jobs_with_blockdiag_report": len(violations),
                 "first_failures": [{"path": os.path.basename(r["path"]), "outcome": r["outcome"],
                                     "detail": r["detail"]} for r in records if r["outcome"] != "ok"][:5]},
        "metrics": metrics, **extra,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=1)

    print(f"# {w.name} seed={args.seed} trace={args.trace}: {attempted} jobs, {failed} failed "
          f"{outcomes}, correct={correct}, inputs sha256 {input_digest[:16]}", file=sys.stderr)
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}{samples}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
