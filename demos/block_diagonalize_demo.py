"""Drive a partitioned matrix to block-diagonal form and watch the sweeps.

Builds a 12x12 matrix whose first 11 columns dominate, alternates left and
right block rotations until both off-diagonal blocks vanish, and compares
the block spectrum with a direct SVD. The trailing block is kept
one-dimensional because that is the regime where the per-sweep contraction
factors reported by the diagnostics are exact; for wider trailing blocks
the same factors are only a heuristic and the diagnostic can flag them.
"""

import numpy as np

from blocksvd import BlockPartition, block_diagonalize, check_lemma11

rng = np.random.default_rng(0)

m = n = 12
k = n - 1
r = rng.standard_normal((m, n))
r[:, :k] *= 10.0
p = BlockPartition(r, k)

res = block_diagonalize(p)
print(f"converged: {res.converged} after {res.iterations} sweeps")
print(f"{'t':>3} {'||B||':>12} {'||C||':>12} {'||D||':>12} {'sigma_k(A)':>12}")
for rec in res.trace.records:
    print(f"{rec.t:>3} {rec.norm_b:>12.3e} {rec.norm_c:>12.3e} "
          f"{rec.norm_d:>12.3e} {rec.sigma_k_a:>12.6f}")

print(f"\nmax spectrum deviation vs SVD: {res.spectrum_deviation():.3e}")

report = check_lemma11(res.trace)
print("\nsweep diagnostics:")
for item in report.checks:
    print(f"  {item.name:<22} {'pass' if item.passed else 'FAIL'} "
          f"(margin {item.margin:+.3e})")
