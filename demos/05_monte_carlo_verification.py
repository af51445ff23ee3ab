"""Verify the bounds numerically with the seeded Monte Carlo engine.

Run with: python demos/05_monte_carlo_verification.py   (about a minute)
"""

from fdrlink import (
    EquicorrelatedNormal,
    IidUniform,
    InformedAdversary,
    McConfig,
    estimate_fdr,
    estimate_fdr0_curve,
    estimate_fdx,
    estimate_worst_fdr_limit,
    fdr_link_bound,
    fdx_bound,
    prdn_bound_pi0,
    restrict_to_nulls,
    verify_linking,
)

cfg = McConfig(reps=20_000, master_seed=42)
gen = IidUniform(200, 2000)
pi0 = gen.n0 / gen.n

# The informed construction pushes the FDR as high as the positive-dependence
# envelope allows; the envelope still holds.
print("level   estimated FDR        envelope")
for alpha in (0.05, 0.1, 0.2):
    est = estimate_fdr(gen, InformedAdversary(), "step_up", alpha, cfg)
    print(f"{alpha:5.2f}   {est.mean:.5f} ± {est.stderr:.5f}   "
          f"{prdn_bound_pi0(pi0, alpha):.5f}")

# Tightness: the same FDR estimates sit just below the worst-case limit
# constant at the study's effective null level.
alpha = 0.1
lim = estimate_worst_fdr_limit(pi0 * alpha, cfg)
print(f"\nworst-case limit at the effective level {pi0 * alpha:.4f}: "
      f"{lim.mean:.5f} ± {lim.stderr:.5f}")

# The linking pipeline end to end: estimate the null-FDR curve, integrate it,
# compare with the measured FDR.
report = verify_linking(gen, InformedAdversary(), alpha, cfg)
print(f"linking check: fdr={report.lhs.mean:.5f} <= bound={report.rhs:.5f} "
      f"(slack {report.slack:+.5f})")

# The same machinery under correlated nulls.
corr = EquicorrelatedNormal(200, 2000, 0.5)
curve = estimate_fdr0_curve(restrict_to_nulls(corr), cfg)
print(f"\ncorrelated nulls: curve value at 0.1 is {curve.value(0.1):.4f} "
      f"(independent nulls would give 0.1)")
print(f"curve-linked bound: {fdr_link_bound(corr.n0 / corr.n, alpha, curve):.5f}")

# Exceedance probabilities obey the simple ratio bound.
for gamma in (0.1, 0.25):
    est = estimate_fdx(gen, InformedAdversary(), "step_up", alpha, gamma, cfg)
    print(f"P(FDP >= {gamma}): {est.mean:.5f} <= {fdx_bound(pi0, alpha, gamma):.5f}")

# Reproducibility: the worker count never changes an estimate. Without an
# adversary a row holds all 2200 p-values, wide enough to run in thread lanes.
serial = estimate_fdr(gen, None, "step_up", 0.1,
                      McConfig(reps=5_000, master_seed=7, workers=1))
parallel = estimate_fdr(gen, None, "step_up", 0.1,
                        McConfig(reps=5_000, master_seed=7, workers=4))
print(f"\nbit-identical across workers: {serial == parallel}")
