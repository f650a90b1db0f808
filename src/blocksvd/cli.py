"""Command-line interface.

Subcommands: ``blockdiag`` (iterative block diagonalization with a JSON
sweep trace), ``bounds`` (perturbation-bound reports for a partitioned
matrix), ``plan`` (partition planner), ``approx`` (certified low-rank
approximation), and ``verify`` (self-check suites). Matrices are exchanged
as Matrix Market coordinate files; reports are deterministic JSON. Exit
codes: 0 success, 1 check violation, 2 usage error, EPIPE on a closed stdout.

Importing this module loads only argparse, json and ``matcore`` (with
numpy); each command loads the modules it runs when it runs, so a one-shot
``bounds`` never loads the planner and ``approx`` never loads ``bounds``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .matcore import BlockPartition, CheckReport, MatrixError


def _emit(report: dict, path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_blockdiag(args) -> int:
    from . import blockdiag as bd
    from .mmio import read_matrix
    res = bd.block_diagonalize(BlockPartition(read_matrix(args.matrix), args.k))
    lem = bd.check_lemma11(res.trace)
    report = {"k": args.k, "converged": bool(res.converged), "iterations": res.iterations,
              "trace": [r.to_json() for r in res.trace.records],
              "diagnostics": lem.to_json()}
    if args.oracle:
        report["oracle_max_dev"] = res.spectrum_deviation()
    _emit(report, args.output)
    return 0 if res.converged and lem.all_passed else 1


def _cmd_bounds(args) -> int:
    from . import bounds as bn
    from .mmio import read_matrix
    # One SpectralPartition for all four families: each spectrum once.
    p = bn.SpectralPartition(read_matrix(args.matrix), args.k)
    i = args.i if args.i is not None else args.k
    reports = (bn.weyl_gap_bounds(p, i) + bn.small_rank_bounds(p, i)
               + [bn.mu_bounds(p, i)] + bn.theorem2_bounds(p))
    ok = bn.containment(reports, float(p.sigma_r[0])).all_passed
    _emit({"k": args.k, "i": i, "reports": [r.to_json() for r in reports],
           "all_contain": ok}, args.output)
    return 0 if ok else 1


def _cmd_plan(args) -> int:
    from .mmio import read_matrix
    from .pipeline import plan_partition
    plan = plan_partition(read_matrix(args.matrix), k=args.k)
    _emit(plan.to_json(), args.output)
    return 0


def _cmd_approx(args) -> int:
    from .mmio import read_matrix
    from .pipeline import approximate
    report = approximate(read_matrix(args.matrix), k=args.k, i=args.i, oracle=args.oracle)
    _emit(report.to_json(), args.output)
    check = CheckReport()
    if args.oracle:
        check.add("oracle_within_bound", report.oracle_margin())
    return 0 if check.all_passed else 1


def _cmd_verify(args) -> int:
    from .verify import run_suite
    rep = run_suite(args.suite, seed=args.seed, trials=args.trials)
    _emit(rep.to_json(), args.output)
    return 0 if rep.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``blocksvd`` parser, built once per process and shared by every
    call: parsing leaves it unchanged (callers must not modify it either),
    and building it costs more than most commands' parsing."""
    top = argparse.ArgumentParser(prog="blocksvd",
                                  description="Block-rotation singular value toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def matrix_command(name, help, k_required=True, k_help="partition split"):
        p = sub.add_parser(name, help=help)
        p.add_argument("matrix", help="Matrix Market coordinate file")
        p.add_argument("--k", type=int, required=k_required, default=None, help=k_help)
        p.add_argument("-o", "--output", default=None, help="write JSON here")
        return p

    oracle_help = "compare against a dense SVD"
    p = matrix_command("blockdiag", "iterate block rotations to a diagonal")
    p.add_argument("--oracle", action="store_true", help=oracle_help)
    p = matrix_command("bounds", "singular value perturbation bounds")
    p.add_argument("--i", type=int, default=None, help="value index (default k)")
    matrix_command("plan", "permute and split a non-negative matrix "
                   "(a wide one through its transpose)",
                   k_required=False, k_help="fixed split (default: scan)")
    p = matrix_command("approx", "certified top singular values")
    p.add_argument("--i", type=int, required=True, help="number of values")
    p.add_argument("--oracle", action="store_true", help=oracle_help)
    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", help="a suite name, or all; a wrong name lists them")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help="draws per suite; corollaries, gamma, theorem3 and "
                        "pipeline scale or floor it")
    p.add_argument("-o", "--output", default=None, help="write JSON here")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    dispatch = {"blockdiag": _cmd_blockdiag, "bounds": _cmd_bounds,
                "plan": _cmd_plan, "approx": _cmd_approx, "verify": _cmd_verify}
    try:
        return dispatch[args.command](args)
    except BrokenPipeError as exc:
        # The reader closed stdout, as ``| head`` does: not a usage error.
        # Later writes, the interpreter's last flush among them, go nowhere.
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return exc.errno
    except (MatrixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
