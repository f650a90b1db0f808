"""End-to-end certified low-rank approximation of a sparse matrix.

Plans a partition (sort columns by norm, rows by size), zeroes the
bottom-right block D, solves the rank-<=2k remainder R0 from thin QRs of
C and B^T and one SVD of a core of side at most 2k, and reports the top
singular values with a certified error of twice an upper bound on the
dropped block's norm (the report says whether that bound came from the
Collatz-Wielandt iteration or an SVD). The block-rotation sweeps give the
same values and stay as the reference (``blockdiag.top_singular_values``).
Round-trips the matrix through Matrix Market along the way.
"""

import tempfile
from pathlib import Path

import numpy as np

from blocksvd import algorithm2, plan_partition, read_matrix, write_matrix

rng = np.random.default_rng(3)

m, n, k = 200, 80, 20
r = np.abs(rng.standard_normal((m, n))) * (rng.random((m, n)) < 0.3)
r[:, :k] *= 10.0

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "matrix.mtx"
    write_matrix(path, r)
    r = read_matrix(path)
    print(f"round-tripped {m}x{n} matrix with {np.count_nonzero(r)} nonzeros")

plan = plan_partition(r, k=k)
print(f"planned split k={plan.k}: feasibility index i* = {plan.i_star}, "
      f"threshold {plan.threshold:.3f}")
permuted = plan.apply(r)

report = algorithm2(permuted, k=plan.k, i=plan.i_star or 5, oracle=True)
print(f"\ncertified error bound 2 * norm_d = {report.error_bound:.6f} "
      f"({report.error_bound / np.linalg.norm(r, 2):.2%} of ||R||; ||D|| by "
      f"{report.norm_d_method}, {report.norm_d_iterations} iteration pairs)")
print(f"{'j':>3} {'reported':>12} {'oracle':>12} {'deviation':>12}")
for j, (got, want, dev) in enumerate(zip(report.values, report.oracle_values,
                                         report.oracle_deviations), start=1):
    print(f"{j:>3} {got:>12.6f} {want:>12.6f} {dev:>12.3e}")
print(f"\nall deviations within the certificate: "
      f"{bool(report.oracle_deviations.max() <= report.error_bound)}")
