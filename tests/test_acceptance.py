"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scales follow the stated defaults: 1e5 replications and 3-stderr tolerances
unless a criterion says otherwise. Every Monte Carlo quantity is seeded, so
the suite is deterministic. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fdrlink import (
    BlockDependent,
    BonferroniMaskedAdversary,
    EmpiricalCurve,
    EquicorrelatedNormal,
    FixedZerosAdversary,
    IidUniform,
    InformedAdversary,
    McConfig,
    McEstimate,
    PValueStudy,
    TwoSidedWrap,
    arbitrary_dep_bound,
    bh_step_up,
    estimate_fdr,
    estimate_fdx,
    estimate_fdr0_curve,
    estimate_worst_fdr_limit,
    fdp_upper_bound,
    fdp_values,
    fdx_bound,
    improvement_range,
    informed_adversary,
    link_bound_raw,
    log_correction_bound,
    max_fdp_rank,
    min_rejections_for,
    most_anti_conservative,
    mtp2_sign_check,
    prdn_bound_pi0,
    verify_linking,
)
from _util import KS_COEFF_1PCT, enumerate_compliant_outcomes, ks_distance_uniform

REPS = 100_000
MASTER_SEED = 20_240_808


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy fixture: the informed construction on iid uniform nulls,
# n0 = 1000, n1 = 10000, used by criteria 2 and 3.
# ---------------------------------------------------------------------------

C23_GEN = IidUniform(1000, 10_000)
C23_PI0 = C23_GEN.n0 / C23_GEN.n


@pytest.fixture(scope="module")
def informed_fdp_values():
    cfg = McConfig(reps=REPS, master_seed=MASTER_SEED)
    values = {}
    for alpha in (0.01, 0.05, 0.1, 0.2):
        values[alpha] = fdp_values(C23_GEN, InformedAdversary(), "step_up", alpha, cfg)
    return cfg, values


def test_c01_simes_exactness():
    worst = 0.0
    for n0 in (10, 100, 1000):
        curve = estimate_fdr0_curve(IidUniform(n0, 0), McConfig(REPS, MASTER_SEED + n0))
        dist = ks_distance_uniform(curve.knots)
        worst = max(worst, dist / (KS_COEFF_1PCT / math.sqrt(REPS)))
    _report("C1 Simes exactness under independence", worst < 1.0,
            f"worst KS distance at {worst:.2f} of the 1% critical value")


def test_c02_positive_dependence_envelope(informed_fdp_values):
    cfg, values = informed_fdp_values
    details = []
    ok = True
    for alpha in (0.01, 0.05, 0.1, 0.2):
        est = McEstimate.from_values(values[alpha], cfg)
        bound = prdn_bound_pi0(C23_PI0, alpha)
        ok &= est.mean <= bound + 3.0 * est.stderr
        details.append(f"a={alpha}: {est.mean:.5f}<={bound:.5f}")
    _report("C2 envelope for positively dependent nulls", ok, "; ".join(details))


def test_c03_worst_case_tightness(informed_fdp_values):
    cfg, values = informed_fdp_values
    # Tightness against the worst-case limit constant, evaluated at the
    # study's effective null level pi0 * alpha (the construction's FDP
    # statistic converges to the limit law at that level).
    ok = True
    details = []
    for alpha in (0.1, 0.05, 0.01):
        est = McEstimate.from_values(values[alpha], cfg)
        lim = estimate_worst_fdr_limit(C23_PI0 * alpha, cfg)
        slack = 6.0 * math.hypot(est.stderr, lim.stderr)
        ok &= est.mean >= lim.mean - slack
        details.append(f"a={alpha}: fdr={est.mean:.5f} vs limit={lim.mean:.5f}")
    # Tightness ratio against the envelope at the effective level is
    # non-decreasing as alpha shrinks (paired comparison on shared seeds).
    ratios = {a: values[a] / prdn_bound_pi0(C23_PI0, a) for a in (0.1, 0.05, 0.01)}
    for hi, lo in ((0.1, 0.05), (0.05, 0.01)):
        diff = ratios[lo] - ratios[hi]
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        ok &= diff.mean() >= -3.0 * se
        details.append(f"ratio step {hi}->{lo}: {diff.mean():+.5f}")
    _report("C3 worst-case tightness and ratio direction", ok, "; ".join(details))


def test_c04_attainment_exact():
    rng = np.random.default_rng(MASTER_SEED + 4)
    n1 = 2000
    checked = attained = 0
    ok = True
    for trial in range(10_000):
        n0 = int(rng.integers(1, 51))
        n = n0 + n1
        alpha = float(rng.choice([0.05, 0.1, 0.3]))
        hi = 1.0 if trial % 2 else min(4.0 * alpha, 1.0)
        nulls = rng.uniform(1e-12, hi, n0)
        completed = informed_adversary(nulls, n1, n, alpha)
        star = max_fdp_rank(nulls, n, alpha)
        needed = min_rejections_for(float(np.sort(nulls)[star - 1]), n, alpha) - star
        if max(needed, 0) > n1:
            continue
        checked += 1
        out = bh_step_up(completed.study, alpha)
        if out.fdp != fdp_upper_bound(nulls, n, alpha):
            ok = False
            break
        if needed >= 1:
            attained += 1
            if out.n_false != star or out.n_rejected - out.n_false != needed:
                ok = False
                break
    _report("C4 exact attainment of the FDP ceiling", ok and checked > 6000,
            f"{checked} feasible studies, {attained} with planted zeros, zero tolerance")


def test_c05_brute_force_compliance_oracle():
    rng = np.random.default_rng(MASTER_SEED + 5)
    grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
    ok = True
    completed_checked = free_checked = 0
    for trial in range(1000):
        alpha = float(rng.choice([0.1, 0.25, 0.5]))
        if trial % 2 == 0:
            # Arbitrary grid-valued study: every compliant outcome respects
            # the ceiling computed from its nulls.
            n = int(rng.integers(1, 7))
            p = rng.choice(grid, size=n)
            mask = rng.random(n) < 0.6
            if not mask.any():
                mask[int(rng.integers(n))] = True
            study = PValueStudy(p, mask)
            bound = fdp_upper_bound(study.null_pvalues, n, alpha)
            for outcome in enumerate_compliant_outcomes(study, alpha):
                if outcome.fdp > bound:
                    ok = False
            free_checked += 1
        else:
            # Adversary-completed study: the maximum over compliant outcomes
            # equals the most anti-conservative FDP.
            n = int(rng.integers(1, 7))
            n0 = int(rng.integers(1, n + 1))
            nulls = rng.choice(grid, size=n0)
            completed = informed_adversary(nulls, n - n0, n, alpha)
            bound = fdp_upper_bound(nulls, n, alpha)
            best = Fraction(0)
            for outcome in enumerate_compliant_outcomes(completed.study, alpha):
                if outcome.fdp > bound:
                    ok = False
                best = max(best, outcome.fdp)
            anti = most_anti_conservative(nulls, n - n0, n, alpha)
            if best != anti.fdp:
                ok = False
            completed_checked += 1
        if not ok:
            break
    _report("C5 brute-force compliance oracle", ok,
            f"{free_checked} free studies, {completed_checked} completed studies")


def test_c06_masked_adversary_envelope():
    cfg = McConfig(reps=REPS, master_seed=MASTER_SEED + 6)
    ok = True
    details = []
    for n0 in (10, 100):
        gen = IidUniform(n0, 10 * n0)
        n = gen.n
        for strategy in ("plug_in_second", "shifted_argmax"):
            for alpha in (0.01, 0.05, 0.1):
                est = estimate_fdr(gen, BonferroniMaskedAdversary(strategy), "step_up",
                                   alpha, cfg)
                if est.mean > 3.5 * alpha + 3.0 * est.stderr:
                    ok = False
                    details.append(f"envelope broken n0={n0} {strategy} a={alpha}")
        # Exact second-order-statistic identity and the tail-maximum constant.
        rng = np.random.default_rng(MASTER_SEED + 60 + n0)
        sorted_p = np.sort(rng.random((REPS, n0)), axis=1)
        for alpha in (0.01, 0.05, 0.1):
            second = alpha / (n * sorted_p[:, 1])
            se2 = second.std(ddof=1) / math.sqrt(REPS)
            if abs(second.mean() - n0 / n * alpha) > 3.0 * se2:
                ok = False
                details.append(f"identity broken n0={n0} a={alpha}")
            ranks = np.arange(2, n0 + 1)
            tail = np.max(alpha * ranks / (n * sorted_p[:, 1:]), axis=1)
            se_t = tail.std(ddof=1) / math.sqrt(REPS)
            if tail.mean() > 2.5 * (n0 / n) * alpha + 3.0 * se_t:
                ok = False
                details.append(f"tail constant broken n0={n0} a={alpha}")
    _report("C6 masked-adversary envelope and identities", ok,
            "; ".join(details) if details else
            "12 envelope cells, 6 identity cells, 6 tail cells")


def test_c07_strict_improvement_over_log_correction():
    ok = True
    cells = 0
    for n, n0 in ((200, 100), (1000, 500), (10_000, 1000)):
        pi0 = n0 / n
        interval = improvement_range(n, n0, pi0)
        grid = interval.grid(20)
        if grid.size != 20:
            ok = False
        for alpha in grid:
            cells += 1
            if not arbitrary_dep_bound(n0, pi0, float(alpha)) < \
                    log_correction_bound(n, pi0, float(alpha)):
                ok = False
    _report("C7 strict improvement inside the level range", ok,
            f"{cells} closed-form grid points, exact comparison")


def test_c08_linking_bound_grid():
    n0, n1 = 100, 1000
    gens = {"iid": IidUniform(n0, n1)}
    for rho in (-1.0 / (n0 - 1), 0.0, 0.5):
        gens[f"equicorr({rho:.4g})"] = EquicorrelatedNormal(n0, n1, rho)
    mask = np.zeros(n0 + n1, dtype=bool)
    mask[:n0] = True
    gens["block"] = BlockDependent(tuple([3] * 366 + [2]), null_mask=mask)
    adversaries = {
        "informed": InformedAdversary(),
        "fixed0": FixedZerosAdversary(0),
        "masked": BonferroniMaskedAdversary("shifted_argmax"),
    }
    cfg = McConfig(reps=REPS, master_seed=MASTER_SEED + 8)
    ok = True
    worst = math.inf
    for gen_label, gen in gens.items():
        for adv_label, adv in adversaries.items():
            report = verify_linking(gen, adv, 0.05, cfg)
            rel = report.slack / (3.0 * report.lhs.stderr) if report.lhs.stderr else math.inf
            worst = min(worst, rel)
            if report.slack < -3.0 * report.lhs.stderr:
                ok = False
    _report("C8 linking bound across the generator/adversary grid", ok,
            f"15 cells at alpha=0.05, worst slack {worst:.1f}x the -3se floor")


def test_c09_two_sided_and_block_constants():
    alpha = 0.05
    cfg = McConfig(reps=REPS, master_seed=MASTER_SEED + 9)
    two_sided = TwoSidedWrap(EquicorrelatedNormal(100, 0, 0.5))
    est2 = estimate_fdr(two_sided, None, "step_up", alpha, cfg)
    block = BlockDependent(tuple([3] * 34))
    est3 = estimate_fdr(block, None, "step_up", alpha, cfg)
    ok = (est2.mean <= 2.0 * alpha + 3.0 * est2.stderr
          and est3.mean <= 3.0 * alpha + 3.0 * est3.stderr)
    _report("C9 folded and block dependence constants", ok,
            f"two-sided {est2.mean:.5f}<=2a, block {est3.mean:.5f}<=3a at a={alpha}")


def test_c10_exceedance_bound():
    alpha = 0.1
    cfg = McConfig(reps=REPS, master_seed=MASTER_SEED + 10)
    gens = {"iid": IidUniform(100, 1000),
            "equicorr(0.5)": EquicorrelatedNormal(100, 1000, 0.5)}
    ok = True
    details = []
    for label, gen in gens.items():
        pi0 = gen.n0 / gen.n
        for gamma in (0.1, 0.25, 0.5):
            est = estimate_fdx(gen, InformedAdversary(), "step_up", alpha, gamma, cfg)
            bound = fdx_bound(pi0, alpha, gamma)
            if est.mean > bound + 3.0 * est.stderr:
                ok = False
                details.append(f"{label} gamma={gamma}")
    _report("C10 exceedance probability bound", ok,
            "; ".join(details) if details else "6 cells at alpha=0.1")


def test_c11_bound_map_monotone():
    rng = np.random.default_rng(MASTER_SEED + 11)
    grid = np.linspace(1e-3, 1.0 - 1e-3, 1000)
    ok = True
    for _ in range(100):
        curve = EmpiricalCurve(rng.random(int(rng.integers(1, 200))))
        values = np.array([link_bound_raw(float(t), curve) for t in grid])
        if np.min(np.diff(values)) < -1e-12:
            ok = False
            break
    _report("C11 linking map non-decreasing in the level", ok,
            "100 empirical curves on a 1000-point grid, closed form")


def _exhaustive_mtp2(sigma0: np.ndarray, rel_tol: float = 1e-10) -> bool:
    k_mat = -np.linalg.inv(sigma0)
    dim = k_mat.shape[0]
    tol = rel_tol * np.abs(k_mat).max()
    bits = np.arange(2 ** dim)
    signs = 1.0 - 2.0 * ((bits[:, None] >> np.arange(dim)[None, :]) & 1)
    conj = signs[:, :, None] * k_mat[None, :, :] * signs[:, None, :]
    off = conj[:, ~np.eye(dim, dtype=bool)]
    return bool(np.any(off.min(axis=1) >= -tol))


def _random_sigma(rng: np.random.Generator) -> np.ndarray:
    dim = int(rng.integers(2, 13))
    style = rng.integers(3)
    if style == 0:
        raw = rng.standard_normal((dim, dim))
        base = raw @ raw.T + dim * np.eye(dim)
    elif style == 1:
        # Block-diagonal: exercises disconnected constraint components.
        base = np.eye(dim)
        start = 0
        while start < dim:
            size = int(min(rng.integers(1, 4), dim - start))
            raw = rng.standard_normal((size, size))
            base[start:start + size, start:start + size] = raw @ raw.T + size * np.eye(size)
            start += size
    else:
        # AR(1)-style tridiagonal-dominant correlation.
        phi = float(rng.uniform(-0.8, 0.8))
        base = phi ** np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    d = np.sqrt(np.diag(base))
    sigma = base / np.outer(d, d)
    flip = np.diag(rng.choice([-1.0, 1.0], dim))
    return flip @ sigma @ flip


def test_c12_sign_search_matches_exhaustive():
    rng = np.random.default_rng(MASTER_SEED + 12)
    ok = True
    feasible = 0
    for _ in range(1000):
        sigma = _random_sigma(rng)
        expected = _exhaustive_mtp2(sigma)
        signs = mtp2_sign_check(sigma)
        if (signs is not None) != expected:
            ok = False
            break
        if signs is not None:
            feasible += 1
            k_mat = -np.linalg.inv(sigma)
            conj = signs[:, None] * k_mat * signs[None, :]
            off = conj[~np.eye(sigma.shape[0], dtype=bool)]
            if off.min() < -1e-10 * np.abs(k_mat).max():
                ok = False
                break
    _report("C12 sign search agrees with exhaustive enumeration", ok,
            f"1000 matrices up to dimension 12, {feasible} feasible")
