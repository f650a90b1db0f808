"""How far can singular values move when the bottom-right block is zeroed?

Compares three estimates on the same random partition: the plain corner-norm
bound, the sharper SVD-slice bound, and the pivot-coupling bounds that need
an invertible top-left block. Each report carries the oracle value so the
slack is visible.
"""

import numpy as np

from blocksvd import (BlockPartition, example1_sigma2, mu_bounds,
                      operator_norm, theorem2_bounds, weyl_gap_bounds)

rng = np.random.default_rng(1)

p = BlockPartition(rng.standard_normal((10, 8)), 3)
print(f"partition 10x8, k=3, ||D|| = {operator_norm(p.d):.4f}\n")

for i in (1, 3, 5):
    rep = mu_bounds(p, i)
    print(f"i={i}: |sigma_i(R) - sigma_i(R0)| = {rep.oracle:.6f} "
          f"<= mu_bar = {rep.upper:.6f} (corner norm {operator_norm(p.d):.6f})")

print("\ntruncation-error bounds at i=3:")
for rep in weyl_gap_bounds(p, 3):
    print(f"  {rep.formula:<12} oracle {rep.oracle:.6f} in "
          f"[{rep.lower:.6f}, {rep.upper:.6f}]")

print("\npivot-coupling bounds on sigma_{k+1}:")
for rep in theorem2_bounds(p):
    print(f"  {rep.formula:<14} upper {rep.upper:.6f}, oracle {rep.oracle:.6f}, "
          f"slack {rep.slack:.6f}")

# closed-form reference: zero the bottom-right cosine of a plane rotation
c, s = 0.6, 0.8
closed = example1_sigma2(c, s)
oracle = np.linalg.svd(np.array([[c, -s], [s, 0.0]]), compute_uv=False)[-1]
print(f"\nplane-rotation reference: closed form {closed:.12f}, "
      f"SVD {oracle:.12f}, gap from sigma_2 = 1: {1 - closed:.6f}")
