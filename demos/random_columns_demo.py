"""Random non-negative columns with fixed sizes: predicted vs observed Gram.

Samples a column ensemble, compares the empirical Gram matrix with the
closed-form expectation, brackets the expected spectrum with the
moment-ratio sandwich, and draws gamma-distributed column sizes to show the
moment ratio converging to sqrt(1 + 1/alpha).
"""

import numpy as np

from blocksvd import (ColumnProfile, GammaSpec, RandomColumnModel, check_S1,
                      empirical_gram, gamma_rho_prediction,
                      moment_ratio, sample_sizes_truncated_gamma, stream,
                      theorem3_bounds)

m = 200
sizes = np.array([8.0, 12.0, 20.0, 5.0, 30.0])
profile = ColumnProfile(m=m, sizes=sizes, norms=np.sqrt(sizes),
                        L=int(sizes.max()))
print("structural conditions:")
for item in check_S1(profile).checks:
    print(f"  {item.name:<24} {'pass' if item.passed else 'FAIL'} "
          f"(margin {item.margin:+.3f})")

model = RandomColumnModel("binary", m, sizes=sizes, seed=7)
rep = empirical_gram(model, trials=5000)
print(f"\nempirical vs expected Gram over 5000 trials: "
      f"max deviation {rep.max_abs_dev:.4f} ({rep.max_abs_dev / rep.max_se:.1f} SE)")

print("\nexpected-spectrum sandwich (sorted squared norms as anchors):")
for bound in theorem3_bounds(profile):
    print(f"  i={bound.i}: {bound.lower:8.3f} <= sigma_i(G) = "
          f"{bound.oracle:8.3f} <= {bound.upper:8.3f}")

spec = GammaSpec(alpha=4.0, beta=0.05)
draws = sample_sizes_truncated_gamma(10000, spec, stream(11))
print(f"\ngamma column sizes (alpha=4, beta=0.05): sample moment ratio "
      f"{moment_ratio(draws):.4f}, predicted {gamma_rho_prediction(spec):.4f}")
