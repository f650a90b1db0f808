#!/usr/bin/env python3
"""Run every workload untraced and traced, and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/suite.py [--seed N] [--seconds S]

For each workload (also the ones BENCHMARK.json does not gate) this runs
``run.py`` with ``--trace 0`` and ``--trace 1``, prints each end-to-end
and per-layer metric with its unit, the jobs attempted and failed, and
where the traced time went, and writes everything to
``.perfbench_out/suite-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import workloads as wl


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    args = ap.parse_args(argv)

    results, failed = {}, False
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            tag = f"{name}-seed{args.seed}-trace{trace}"
            with open(os.path.join(run.OUT, f"{tag}.json")) as fh:
                res["details"] = json.load(fh)
            results[f"{name} trace={trace}"] = res
            gate = " (not gated by BENCHMARK.json)" if name in wl.UNGATED else ""
            jobs = res["details"]["jobs"]
            print(f"== {name}{gate}, {'traced' if trace else 'untraced'}: {res['attempted']} jobs, "
                  f"{res['failed']} failed {jobs['outcomes']}, correct={res['correct']}")
            for metric, m in res["details"]["metrics"].items():
                n = f"  n={m['samples']}" if "samples" in m else ""
                print(f"   {metric:34s} {m['value']:<12.6g} {m['unit']}{n}")
            if trace:
                for within, top in res["details"]["self_s_per_job_within"].items():
                    share = ", ".join(f"{k} {v:.4g}" for k, v in top[:4])
                    print(f"   self s/job within {within}: {share}")
            else:
                print(f"   tail percentile {res['details']['tail_percentile']:.1f}, "
                      f"fail_rate {jobs['fail_rate']:.3f}, bound_rel_p50 {jobs['bound_rel_p50']}, "
                      f"jobs with Lemma 11 violations {jobs['jobs_with_lemma11_violations']}"
                      f"/{jobs['jobs_with_blockdiag_report']}")
    path = os.path.join(run.OUT, f"suite-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {path}")
    return 1 if failed or not all(r["correct"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
