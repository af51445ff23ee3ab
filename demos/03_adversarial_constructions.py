"""Show the adversarial non-null constructions hitting the FDP ceiling.

Run with: python demos/03_adversarial_constructions.py
"""

import numpy as np

from fdrlink import (
    BonferroniMaskedAdversary,
    bh_step_up,
    complete_study,
    fdp_upper_bound,
    informed_adversary,
    max_fdp_rank,
    most_anti_conservative,
)

rng = np.random.default_rng(7)
n0, n1, alpha = 8, 60, 0.1
n = n0 + n1
nulls = np.sort(rng.uniform(0.001, 0.6, n0))
print(f"null p-values: {np.round(nulls, 4)}")

# The informed construction sees every null, picks the rank that maximizes
# the achievable FDP, and plants exactly enough zero-valued non-nulls.
rank = max_fdp_rank(nulls, n, alpha)
completed = informed_adversary(nulls, n1, n, alpha)
print(f"\nanchor rank: {rank}, planted zeros: {completed.planted_zeros}")

out = bh_step_up(completed.study, alpha)
ceiling = fdp_upper_bound(nulls, n, alpha)
print(f"step-up on the completed study: R={out.n_rejected}, V={out.n_false}, "
      f"FDP={out.fdp}")
print(f"FDP ceiling: {ceiling} -> attained exactly: {out.fdp == ceiling}")

# The step-up procedure is not the most damaging compliant choice; with the
# same planted zeros, the most anti-conservative outcome can do worse.
anti = most_anti_conservative(nulls, n1, n, alpha)
print(f"most anti-conservative outcome: FDP={anti.fdp} >= step-up: {anti.fdp >= out.fdp}")

# A masked construction never sees the smallest null; withholding it caps the
# damage (the masked FDR stays within a constant multiple of the level). Every
# construction's `plant` returns one number per study, the planted-zero count,
# which `complete_study` reports as `planted_zeros`.
for strategy in ("plug_in_second", "shifted_argmax"):
    masked = complete_study(nulls, n1, n, alpha, BonferroniMaskedAdversary(strategy))
    masked_out = bh_step_up(masked.study, alpha)
    print(f"masked[{strategy}]: plants {masked.planted_zeros} zeros, "
          f"step-up FDP={masked_out.fdp}")

# Changing the withheld smallest null never changes the masked zero count.
variant = nulls.copy()
variant[0] = 1e-9
masked_a = complete_study(nulls, n1, n, alpha, BonferroniMaskedAdversary())
masked_b = complete_study(variant, n1, n, alpha, BonferroniMaskedAdversary())
print(f"masking contract holds: {masked_a.planted_zeros == masked_b.planted_zeros}")
