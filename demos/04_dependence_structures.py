"""Sample the dependence structures and run the structural checks.

Run with: python demos/04_dependence_structures.py
"""

import numpy as np

from fdrlink import (
    BlockDependent,
    EquicorrelatedNormal,
    IidUniform,
    PrdnGaussian,
    TwoSidedWrap,
    block_adjusted_pvalues,
    conditional_slope,
    mtp2_sign_check,
    prdn_check_gaussian,
    prds_check_gaussian,
    sample,
    simes_pvalue,
    two_sided_from_one_sided,
    vanishing_null_family,
)

# Each generator is a declarative spec; sampling is pure in (spec, seed).
specs = {
    "iid uniform": IidUniform(6, 2),
    "equicorrelated (rho=0.4)": EquicorrelatedNormal(6, 2, 0.4),
    "negative equicorrelated": EquicorrelatedNormal(6, 2, -1.0 / 5),
    "identical blocks of 3": BlockDependent((3, 3, 2)),
    # TwoSidedWrap returns its inner spec with sided="two": the same scores.
    "two-sided (rho=0.4)": TwoSidedWrap(EquicorrelatedNormal(6, 2, 0.4)),
}
for label, spec in specs.items():
    study = sample(spec, 2024)
    print(f"{label:28s} nulls={np.round(study.null_pvalues, 3)}")

# Two-sided uniforms fold one-sided p-values through 2*min(p, 1-p).
print(f"\nfold: 0.30 -> {two_sided_from_one_sided(0.3)}, "
      f"0.80 -> {two_sided_from_one_sided(0.8)}")

# Block-adjusted p-values: one per block, the block minimum scaled up.
study = sample(BlockDependent((3, 3, 2)), 5)
adjusted = block_adjusted_pvalues(study, [[0, 1, 2], [3, 4, 5], [6, 7]])
print(f"block-adjusted p-values: {np.round(adjusted, 4)}")

# Structural checks on a covariance: positive dependence within the nulls
# needs nonnegative null-null entries; the stronger form also constrains the
# null/non-null entries; two-sided positivity asks for a sign assignment
# making the negated inverse nonnegative off the diagonal.
sigma = np.array([
    [1.0, 0.5, 0.2, -0.3],
    [0.5, 1.0, 0.3, 0.1],
    [0.2, 0.3, 1.0, 0.0],
    [-0.3, 0.1, 0.0, 1.0],
])
nulls = [0, 1, 2]
print(f"\nwithin-null positive dependence: {prdn_check_gaussian(sigma, nulls)}")
print(f"full positive dependence:        {prds_check_gaussian(sigma, nulls)}")
signs = mtp2_sign_check(sigma[np.ix_(nulls, nulls)])
print(f"two-sided sign assignment:       {signs}")
print(f"conditional-mean slope given coordinate 0: "
      f"{np.round(conditional_slope(sigma[np.ix_(nulls, nulls)], 0), 3)}")

# A family of (n, n0) pairs with vanishing null proportion, used by the
# consistency experiments.
print("\nvanishing-null family:", [vanishing_null_family(l) for l in (2, 8, 32, 128)])

# Simes under an explicit covariance.
ar1 = PrdnGaussian(0.6 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5))),
                   tuple(range(5)))
draws = [simes_pvalue(sample(ar1, s).null_pvalues) for s in range(5)]
print("Simes draws under AR(1) nulls:", np.round(draws, 3))
