"""Output checks against a dense-SVD oracle, computed outside the timed loop.

Each check takes the report a job wrote and facts computed here from the
generated matrix, and returns ``(passed, reason, counts)``. The oracle uses
numpy only; it never calls blocksvd.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9      # slack relative to sigma_1(R) for every comparison
ALPHA = 1.0         # the planner's default shape parameter
SPLITS = 24         # size of the planner's logarithmic grid of splits


def sigmas(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def facts(f, kind: str) -> dict:
    """What the checks need about one input file."""
    if kind == "plan":
        m, n = f.shape.m, f.shape.n
        return {"m": m, "n": n, "rows": f.rows, "cols": f.cols, "vals": f.vals,
                "col_norms": np.sqrt(np.bincount(f.cols, f.vals ** 2, minlength=n)),
                "col_sums": np.bincount(f.cols, f.vals, minlength=n),
                "row_sums": np.bincount(f.rows, f.vals, minlength=m)}
    r = f.dense()
    out = {"sigma": sigmas(r)}
    if kind == "approx":
        # The planner's order: columns by descending norm, rows by
        # descending sum, ties kept in place. ||D|| is cached per split.
        cp = np.argsort(-np.linalg.norm(r, axis=0), kind="stable")
        rp = np.argsort(-r.sum(axis=1), kind="stable")
        out["permuted"], out["norm_d"] = r[np.ix_(rp, cp)], {}
    if kind == "analyze":
        r0 = r.copy()
        r0[f.shape.k:, f.shape.k:] = 0.0
        out["sigma0"] = sigmas(r0)
    return out


def _sig(s: np.ndarray, j: int) -> float:
    """sigma_j, 1-based; zero past the spectrum."""
    return float(s[j - 1]) if 1 <= j <= s.size else 0.0


def norm_d(fx: dict, k: int) -> float:
    """||D||_2, D the bottom-right block of the planner-ordered matrix at split k."""
    if k not in fx["norm_d"]:
        fx["norm_d"][k] = float(np.linalg.norm(fx["permuted"][k:, k:], 2))
    return fx["norm_d"][k]


def check_approx(report: dict, fx: dict, k: int, i: int) -> tuple[bool, str, dict]:
    """|sigma_j(R) - values_j| <= error_bound + 1e-9 sigma_1(R) for j <= i,
    and error_bound no looser than the paper's 2 ||D|| at the report's split.

    Also counts whether the pivot was shrunk below the requested split and
    the certificate's size relative to sigma_1(R).
    """
    s = fx["sigma"]
    values = np.asarray(report.get("values", []), dtype=float)
    bound = float(report.get("error_bound", np.nan))
    kk = report.get("k")
    counts = {"shrunk": isinstance(kk, int) and kk < k, "bound_rel": bound / s[0]}
    if values.shape != (i,) or not np.all(np.isfinite(values)):
        return False, f"expected {i} finite values, got {values.tolist()}", counts
    if not (np.isfinite(bound) and bound >= 0):
        return False, f"error_bound {bound} is not a finite non-negative number", counts
    if not (isinstance(kk, int) and i < kk <= k):
        return False, f"split k={kk} outside ({i}, {k}]", counts
    cert = 2.0 * norm_d(fx, kk)
    if bound > cert * (1 + REL_TOL):
        return False, f"error_bound {bound!r} > 2 ||D|| = {cert!r} at k={kk}", counts
    dev = np.abs(s[:i] - values)
    tol = bound + REL_TOL * s[0]
    if np.any(dev > tol):
        j = int(np.argmax(dev - tol))
        return False, f"value {j + 1}: |{s[j]!r} - {values[j]!r}| > {tol!r}", counts
    return True, "", counts


def _non_increasing(x: np.ndarray) -> bool:
    return bool(np.all(x[1:] <= x[:-1] * (1 + 1e-12) + 1e-300))


def candidate_splits(n: int) -> list[int]:
    """The planner's logarithmic grid of splits."""
    if n <= 2:
        return [1]
    grid = np.unique(np.geomspace(1, n - 1, num=min(n - 1, SPLITS)).round().astype(int))
    return [int(k) for k in grid if 1 <= k < n]


def feasibility(fx: dict, cp: np.ndarray, k: int) -> tuple[int, float]:
    """(i_star, threshold) at split k with columns in the order cp: the
    largest i < k whose column norm clears
    sqrt(1 + sqrt(1 + 1/alpha)) * sqrt(sum of column k * largest row sum of
    columns k and up), or 0."""
    rank = np.empty(fx["n"], dtype=int)
    rank[cp] = np.arange(fx["n"])
    right = rank[fx["cols"]] >= k
    max_row = float(np.bincount(fx["rows"][right], fx["vals"][right], minlength=fx["m"]).max())
    factor = np.sqrt(1.0 + np.sqrt(1.0 + 1.0 / ALPHA))
    threshold = float(factor * np.sqrt(fx["col_sums"][cp[k]] * max_row))
    clear = np.nonzero(fx["col_norms"][cp[:k - 1]] >= threshold)[0]
    return (int(clear.max()) + 1 if clear.size else 0), threshold


def check_plan(plan: dict, fx: dict) -> tuple[bool, str, dict]:
    """Valid permutations sorting columns by norm and rows by size, and the
    split the planner's scan should pick: the first candidate with the
    largest feasibility index, with that index and its threshold."""
    m, n = fx["m"], fx["n"]
    cp = np.asarray(plan.get("column_permutation", []))
    rp = np.asarray(plan.get("row_permutation", []))
    if not np.array_equal(np.sort(cp), np.arange(n)) or not np.array_equal(np.sort(rp), np.arange(m)):
        return False, "row or column permutation is not a permutation", {}
    if not _non_increasing(fx["col_norms"][cp]):
        return False, "columns not sorted by descending norm", {}
    if not _non_increasing(fx["row_sums"][rp]):
        return False, "rows not sorted by descending size", {}
    k, i_star = plan.get("k"), plan.get("i_star")
    if not (isinstance(k, int) and 1 <= k < max(n, 2)):
        return False, f"split k={k} out of range for n={n}", {}
    if not (isinstance(i_star, int) and 0 <= i_star < k):
        return False, f"i_star={i_star} out of range for k={k}", {}
    best = (None, -1, 0.0)
    for cand in candidate_splits(n):
        i_c, thr = feasibility(fx, cp, cand)
        if i_c > best[1]:
            best = (cand, i_c, thr)
    if (k, i_star) != best[:2]:
        return False, f"split (k, i_star)=({k}, {i_star}), expected {best[:2]}", {}
    thr = plan.get("threshold")
    if not (isinstance(thr, float) and abs(thr - best[2]) <= REL_TOL * best[2]):
        return False, f"threshold {thr!r}, expected {best[2]!r}", {}
    return True, "", {}


def bound_oracle(formula: str, i: int, k: int, s: np.ndarray, s0: np.ndarray) -> float | None:
    """The true value each bound report of ``blocksvd bounds`` brackets;
    None for a formula this oracle does not know."""
    if formula in ("Weyl-gap", "Weyl-cross", "rank-cap"):
        return _sig(s, i + 1)
    if formula in ("small-rank-R0", "Thm2-R0-min", "Thm2-R0-closed"):
        return _sig(s0, k + 1)
    if formula in ("small-rank-R", "Thm2-R", "Cor5"):
        return _sig(s, k + 1)
    if formula == "slice-mu":
        return abs(_sig(s, i) - _sig(s0, i))
    return None


def check_bounds(doc: dict, fx: dict) -> tuple[bool, str, dict]:
    """``all_contain`` holds and every report brackets the true value."""
    s, s0 = fx["sigma"], fx["sigma0"]
    tol = REL_TOL * s[0]
    reports = doc.get("reports", [])
    misses = sum(1 for r in reports if not (r["lower"] - 1e-10 <= r["oracle"] <= r["upper"] + 1e-10))
    counts = {"oracle_misses": misses, "formulas": sorted({r["formula"] for r in reports})}
    if doc.get("all_contain") is not True or not reports:
        return False, "bounds report does not contain its oracle", counts
    for r in reports:
        want = bound_oracle(r["formula"], r["i"], r["k"], s, s0)
        if want is None:
            continue
        if abs(want - r["oracle"]) > tol:
            return False, f"{r['formula']}: oracle {r['oracle']!r} != {want!r}", counts
        if not (r["lower"] - tol <= want <= r["upper"] + tol):
            return False, f"{r['formula']}: {want!r} outside [{r['lower']!r}, {r['upper']!r}]", counts
    return True, "", counts


def check_blockdiag(doc: dict, fx: dict) -> tuple[bool, str, dict]:
    """Converged, off-diagonal blocks gone, pivot spectrum inside sigma(R),
    and the report's own ``oracle_max_dev`` within tolerance. Lemma 11
    diagnostics are counted, not failed."""
    s = fx["sigma"]
    tol = REL_TOL * s[0]
    checks = doc.get("diagnostics", {}).get("checks", [])
    counts = {"lemma11_violations": sum(1 for c in checks if not c["passed"]),
              "failed_checks": sorted(c["name"] for c in checks if not c["passed"])}
    if doc.get("converged") is not True:
        return False, "blockdiag did not converge", counts
    dev = doc.get("oracle_max_dev")
    if dev is None or not dev <= tol:
        return False, f"oracle_max_dev {dev!r} > {tol!r}", counts
    last = doc["trace"][-1]
    if max(last["norm_b"], last["norm_c"]) > tol:
        return False, "off-diagonal blocks not annihilated", counts
    pivot = np.asarray(last["sigma_a"], dtype=float)
    miss = np.min(np.abs(pivot[:, None] - s[None, :]), axis=1)
    if np.any(miss > tol):
        return False, f"pivot singular value {pivot[int(np.argmax(miss))]!r} not in sigma(R)", counts
    return True, "", counts
