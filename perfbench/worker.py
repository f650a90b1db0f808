"""Workload process: runs one workload's closed loop and records each job.

Started by ``run.py`` as a fresh interpreter, so its peak resident memory
is the workload's own. It imports blocksvd from the checkout, then runs
whole rounds of jobs until the requested time has passed. There is no
warm-up job: with one BLAS thread the first job costs no more than the
rest, and a user's first job pays whatever first-use cost there is. Each job turns a Matrix Market file into a JSON report file; the
parent process checks the reports against its oracle afterwards.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _approx_job(bs, path, k, i, out):
    r = bs.read_matrix(path)
    plan = bs.plan_partition(r, k=k)
    report = bs.algorithm2(plan.apply(r), k=k, i=i)
    with open(out, "w") as fh:
        json.dump(report.to_json(), fh)


def _plan_job(bs, path, out):
    r = bs.read_matrix(path)
    plan = bs.plan_partition(r)
    with open(out, "w") as fh:
        json.dump(plan.to_json(), fh)


def _analyze_job(cli, path, k, i, out):
    """Both CLI commands on one file; exit codes are checked by the parent."""
    code_b = cli.main(["bounds", path, "--k", str(k), "--i", str(i), "-o", out + ".bounds"])
    code_d = cli.main(["blockdiag", path, "--k", str(k), "--oracle", "-o", out + ".blockdiag"])
    return [code_b, code_d]


def _classify(exc, pipeline_error) -> str:
    if isinstance(exc, pipeline_error):
        diag = exc.diagnostics
        if "iterations" in diag:
            return "not_converged"
        if "k_requested" in diag:
            return "pivot_singular"
        return "pipeline_other"
    return "error"


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        return {}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy as np
    import scipy
    import blocksvd as bs
    import blocksvd.cli as cli
    from tracing import Tracer, summarize

    kind, out_dir = spec["kind"], spec["out_dir"]
    pool = spec["pool"]          # rounds of {"path", "k", "i"}

    def job_call(job, out):
        if kind == "approx":
            return _approx_job, (bs, job["path"], job["k"], job["i"], out)
        if kind == "plan":
            return _plan_job, (bs, job["path"], out)
        return _analyze_job, (cli, job["path"], job["k"], job["i"], out)

    records = []

    def run_one(job, phase, tracer=None):
        jid = len(records)
        out = os.path.join(out_dir, f"job{jid}.json")
        fn, args = job_call(job, out)
        status, detail, codes = "ok", "", None
        t0 = time.perf_counter()
        try:
            codes = tracer.run_job(jid, fn, *args) if tracer else fn(*args)
        except Exception as exc:  # every failure is recorded by cause
            status, detail = _classify(exc, bs.PipelineError), f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append({"id": jid, "path": job["path"], "phase": phase, "seconds": t1 - t0,
                        "status": status, "detail": detail, "codes": codes, "out": out})

    def loop(seconds, phase, tracer=None):
        start, r = time.perf_counter(), 0
        while True:
            for job in pool[r % len(pool)]:
                run_one(job, phase, tracer)
            r += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return {"phase": phase, "seconds": elapsed, "rounds": r}

    result = {"loops": []}
    if not spec["trace"]:
        result["loops"].append(loop(spec["seconds"], "untraced"))
    else:
        half = spec["seconds"] / 2.0
        result["loops"].append(loop(half, "untraced"))
        tracer = Tracer({os.path.abspath(p): n for p, n in spec["entries"].items()})
        tracer.install()
        try:
            result["loops"].append(loop(half, "traced", tracer))
        finally:
            tracer.uninstall()
        result["missing"] = tracer.missing
        result["counters"] = dict(tracer.counters)
        result["summary"] = summarize(tracer.spans)
        with open(spec["spans_path"], "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": tracer.spans}, fh)
        result["ref_dense_svd_s"] = _dense_svd_times(np, bs, spec["ref_paths"])

    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas_info(np),
                     "threads": {v: os.environ.get(v) for v in spec["thread_vars"]}}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _dense_svd_times(np, bs, paths) -> list[float]:
    """Baseline: best of three values-only dense SVDs of each input, timed
    in this process so it uses the same BLAS threads as the jobs."""
    times = []
    for path in paths:
        r = bs.read_matrix(path)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            np.linalg.svd(r, compute_uv=False)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    return times


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
