"""fdrlink: a simulation laboratory for false-discovery-rate control under
dependent p-values.

The package provides the step-up/step-down procedure family with compliance
checking, closed-form FDR bounds linked through the null-FDR curve,
adversarial non-null constructions that realize the worst-case false
discovery proportion, samplers for structured dependence, and a seeded,
reproducible Monte Carlo engine that verifies every bound numerically.
"""

from .study import PValueStudy, RejectionOutcome
from .procedures import (
    bh_step_up,
    bh_step_down,
    is_compliant,
    simes_pvalue,
    simes_rejects,
    fdp_upper_bound,
    min_rejections_for,
)
from .bounds import (
    LinearCurve,
    WorstCaseCurve,
    EmpiricalCurve,
    AlphaInterval,
    link_bound_raw,
    fdr_link_bound,
    prdn_bound,
    prdn_bound_pi0,
    harmonic,
    log_correction_bound,
    arbitrary_dep_bound,
    improvement_range,
    fdx_bound,
    guo_rao_reference,
)
from .adversaries import (
    InformedAdversary,
    MostAntiConservativeAdversary,
    BonferroniMaskedAdversary,
    FixedZerosAdversary,
    CompletedStudy,
    max_fdp_rank,
    feasible_max_fdp_rank,
    informed_adversary,
    most_anti_conservative,
    masked_zero_count,
    complete_study,
)
from .dependence import (
    IidUniform,
    EquicorrelatedNormal,
    PrdnGaussian,
    BlockDependent,
    TwoSidedWrap,
    sample,
    sample_null_pvalues,
    restrict_to_nulls,
    equicorrelated_sqrt,
    two_sided_from_one_sided,
    block_adjusted_pvalues,
    prdn_check_gaussian,
    prds_check_gaussian,
    mtp2_sign_check,
    structural_checks,
    conditional_slope,
    vanishing_null_family,
    normal_cdf,
    normal_quantile,
)
from .mc import (
    McConfig,
    McEstimate,
    LinkingReport,
    derive_seed,
    fdp_values,
    estimate_fdr,
    estimate_fdx,
    estimate_fdp_moment,
    estimate_fdr0_curve,
    estimate_worst_fdr_limit,
    verify_linking,
)

__version__ = "0.1.0"
