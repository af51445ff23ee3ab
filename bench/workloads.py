"""The three benchmark workloads, their operations and their correctness checks.

An operation is one estimate call or one CLI invocation. It fails when it
raises, exits non-zero, returns a NaN or out-of-range value, or breaks an
exact invariant; those checks raise ``CheckError``. Statistical checks
(estimate within k standard errors of its bound) are never gated: each returns
``(label, z, k)`` and is flagged when ``z > k``. No check compares against a
stored Monte Carlo value, so the checks survive a deliberate change of the
seeding contract.

Every size below is at ``scale=1``; the smoke test runs them scaled down.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fdrlink.cli
import fdrlink.mc as mc
from fdrlink.adversaries import (
    BonferroniMaskedAdversary,
    InformedAdversary,
    MASKED_STRATEGIES,
    MostAntiConservativeAdversary,
)
from fdrlink.bounds import prdn_bound_pi0
from fdrlink.dependence import BlockDependent, EquicorrelatedNormal, IidUniform, TwoSidedWrap
from fdrlink.experiments import PRESETS, load_config
from fdrlink.mc import McConfig
from spans import Recorder, install, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

ALPHA = 0.05
KS_1PCT = 1.628  # sqrt(n) * KS distance exceeds this with probability 1%


class CheckError(Exception):
    """An operation's output broke an exact invariant."""


StatCheck = tuple[str, float, float]


@dataclass
class Op:
    """One operation: `call(trace_file)` runs it, `check(result, done)`
    validates it against exact invariants (raising CheckError) and returns
    its statistical checks. `done` maps earlier op names of the same pass to
    their results. `cells` maps an estimate span name inside the op to the
    ``mc.cell.*`` metric it feeds."""

    name: str
    reps: int
    call: Callable[[Optional[Path]], object]
    check: Callable[[object, dict], list[StatCheck]]
    cells: dict[str, str] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], object]
    sizes: dict
    in_process: bool = True


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------


def unit(value: float, what: str) -> float:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckError(f"{what} = {value!r} lies outside [0, 1]")
    return value


def check_estimate(est, reps: int, what: str) -> None:
    unit(est.mean, f"{what} mean")
    if not (math.isfinite(est.stderr) and est.stderr >= 0.0):
        raise CheckError(f"{what} stderr = {est.stderr!r} is not finite and non-negative")
    if est.reps != reps:
        raise CheckError(f"{what} reports {est.reps} reps, asked for {reps}")


def z_above(value: float, bound: float, stderr: float) -> float:
    """Standard errors by which `value` exceeds `bound` (negative below it)."""
    if stderr > 0.0:
        return (value - bound) / stderr
    return 0.0 if value <= bound else math.inf


def ks_z(samples: np.ndarray) -> float:
    """sqrt(n) times the Kolmogorov distance of `samples` from Uniform(0, 1)."""
    x = np.sort(samples)
    n = x.size
    i = np.arange(1, n + 1)
    return math.sqrt(n) * float(max(np.max(i / n - x), np.max(x - (i - 1) / n)))


def _scaled(reps: int, scale: float) -> int:
    return max(8, int(round(reps * scale)))


# ---------------------------------------------------------------------------
# mc-iid: few large estimate calls on cheap nulls
# ---------------------------------------------------------------------------


def build_mc_iid(seed: int, scale: float = 1.0) -> Workload:
    c23 = IidUniform(1000, 10_000)
    c23_pi0 = c23.n0 / c23.n
    small = IidUniform(100, 1000)
    equi = EquicorrelatedNormal(100, 1000, 0.5)
    small_pi0 = small.n0 / small.n
    r_c23, r_limit, r_cell, r_simes = (_scaled(r, scale) for r in (3000, 600, 4000, 8000))
    ops: list[Op] = []

    def cfg(reps, workers=None):
        return McConfig(reps, seed, workers)

    def fdr_op(name, gen, adv, proc, alpha, reps, bound=None, k=3.0, cells=None):
        def call(_trace):
            return mc.estimate_fdr(gen, adv, proc, alpha, cfg(reps))

        def check(est, done):
            check_estimate(est, reps, name)
            if bound is None:
                return []
            return [(f"{name} <= bound", z_above(est.mean, bound, est.stderr), k)]

        ops.append(Op(name, reps, call, check, cells or {}))

    for alpha in (0.01, 0.05, 0.1, 0.2):
        fdr_op(f"c23-informed-a{alpha}", c23, InformedAdversary(), "step_up", alpha, r_c23,
               prdn_bound_pi0(c23_pi0, alpha))

    for alpha in (0.1, 0.05, 0.01):
        def limit_call(_trace, level=c23_pi0 * alpha):
            return mc.estimate_worst_fdr_limit(level, cfg(r_limit))

        def limit_check(lim, done, alpha=alpha):
            check_estimate(lim, r_limit, f"limit at {alpha}/11")
            fdr = done[f"c23-informed-a{alpha}"]
            slack_se = math.hypot(fdr.stderr, lim.stderr)
            return [(f"limit-a{alpha} <= c23 fdr", z_above(lim.mean, fdr.mean, slack_se), 6.0)]

        ops.append(Op(f"limit-a{alpha}", r_limit, limit_call, limit_check))

    for label, gen in (("iid", small), ("equi", equi)):
        fdr_op(f"{label}-informed", gen, InformedAdversary(), "step_up", ALPHA, r_cell,
               prdn_bound_pi0(small_pi0, ALPHA),
               cells={"mc.estimate_fdr": f"mc.cell.{label}-informed.us_per_rep"})
        fdr_op(f"{label}-none", gen, None, "step_up", ALPHA, r_cell, small_pi0 * ALPHA,
               cells={"mc.estimate_fdr": f"mc.cell.{label}-none.us_per_rep"})

    fdr_op("most-anti-conservative", small, MostAntiConservativeAdversary(),
           "most_anti_conservative", ALPHA, r_cell)
    for strategy in MASKED_STRATEGIES:
        fdr_op(f"masked-{strategy}", small, BonferroniMaskedAdversary(strategy), "step_up",
               ALPHA, r_cell, 3.5 * ALPHA)

    def simes_call(_trace):
        return mc.estimate_fdr0_curve(IidUniform(small.n0, 0), cfg(r_simes))

    def simes_check(curve, done):
        if curve.knots.size != r_simes:
            raise CheckError(f"Simes curve has {curve.knots.size} knots, expected {r_simes}")
        unit(float(curve.knots[0]), "smallest Simes value")
        unit(float(curve.knots[-1]), "largest Simes value")
        return [("simes-iid uniform (KS)", ks_z(curve.knots), KS_1PCT)]

    ops.append(Op("simes-iid", r_simes, simes_call, simes_check,
                  {"mc.estimate_fdr0_curve": "mc.cell.simes-iid.us_per_rep"}))

    # The seeding contract: the same (reps, master_seed) gives a bit-identical
    # estimate whatever the worker count. The pair also yields mc.pool_speedup.
    def pooled_call(_trace):
        return mc.estimate_fdr(small, InformedAdversary(), "step_up", ALPHA, cfg(r_cell, 2))

    def pooled_check(est, done):
        single = done["iid-informed"]
        if (est.mean, est.stderr) != (single.mean, single.stderr):
            raise CheckError(f"workers=2 gave {est.mean!r} +- {est.stderr!r}, "
                             f"workers=1 gave {single.mean!r} +- {single.stderr!r}")
        return []

    ops.append(Op("iid-informed-w2", r_cell, pooled_call, pooled_check))

    def warmup():
        return mc.estimate_fdr(small, InformedAdversary(), "step_up", ALPHA, cfg(64))

    sizes = dict(c23=[c23.n0, c23.n1], small=[small.n0, small.n1], equi_rho=equi.rho,
                 reps=dict(c23=r_c23, limit=r_limit, cell=r_cell, simes=r_simes))
    return Workload("mc-iid", ops, warmup, sizes)


# ---------------------------------------------------------------------------
# dependent-link: verify_linking on dependent generators
# ---------------------------------------------------------------------------


def linking_generators() -> dict:
    n0, n1 = 100, 1000
    sizes = tuple([3] * ((n0 + n1) // 3) + [2])  # E6's block_b3 layout
    mask = np.zeros(n0 + n1, dtype=bool)
    mask[:n0] = True
    return {
        "block": BlockDependent(sizes, null_mask=mask),
        "block-equi-two": BlockDependent(sizes, "equicorrelated", 0.5, mask, sided="two"),
        "equi-floor": EquicorrelatedNormal(n0, n1, -1.0 / (n0 - 1)),
        "wrap-equi": TwoSidedWrap(EquicorrelatedNormal(n0, n1, 0.5)),
    }


def build_dependent_link(seed: int, scale: float = 1.0) -> Workload:
    base = {"block": 1200, "block-equi-two": 200, "equi-floor": 800, "wrap-equi": 800}
    reps_of = {label: _scaled(r, scale) for label, r in base.items()}
    ops: list[Op] = []
    for (label, gen), (adv_label, adv) in itertools.product(
            linking_generators().items(), (("informed", InformedAdversary()), ("none", None))):
        reps = reps_of[label]
        name = f"{label}-{adv_label}"

        def call(_trace, gen=gen, adv=adv, reps=reps):
            return mc.verify_linking(gen, adv, ALPHA, McConfig(reps, seed))

        def check(report, done, name=name, reps=reps):
            check_estimate(report.lhs, reps, name)
            unit(report.rhs, f"{name} link bound")
            if report.slack != report.rhs - report.lhs.mean:
                raise CheckError(f"{name} slack {report.slack!r} != bound - mean")
            return [(f"{name} fdr <= link bound",
                     z_above(report.lhs.mean, report.rhs, report.lhs.stderr), 3.0)]

        cells = {}
        if label == "block":
            cells["mc.estimate_fdr"] = f"mc.cell.block-{adv_label}.us_per_rep"
            cells["mc.estimate_fdr0_curve"] = "mc.cell.simes-block.us_per_rep"
        # verify_linking draws an FDP pass and a Simes pass of `reps` each.
        ops.append(Op(name, 2 * reps, call, check, cells))

    def warmup():
        return mc.verify_linking(linking_generators()["block"], InformedAdversary(), ALPHA,
                                 McConfig(16, seed))

    return Workload("dependent-link", ops, warmup, dict(n0=100, n1=1000, alpha=ALPHA,
                                                         reps=reps_of))


# ---------------------------------------------------------------------------
# presets-cli: `fdrlink run E1` ... `E8`, one fresh process each
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    return env


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _pass_column(rows, mean_key, se_key, bound_key, what) -> list[StatCheck]:
    """Exact: `pass` equals mean <= bound + 3 se. Statistical: its z-score."""
    stats = []
    for i, row in enumerate(rows):
        mean, se, bound = float(row[mean_key]), float(row[se_key]), float(row[bound_key])
        unit(mean, f"{what} row {i} {mean_key}")
        unit(bound, f"{what} row {i} {bound_key}")
        if not (math.isfinite(se) and se >= 0.0):
            raise CheckError(f"{what} row {i} stderr {se!r}")
        if (row["pass"] == "true") != (mean <= bound + 3.0 * se):
            raise CheckError(f"{what} row {i} pass column disagrees with its values")
        stats.append((f"{what} row {i}", z_above(mean, bound, se), 3.0))
    return stats


def _check_e1(out: Path) -> list[StatCheck]:
    return _pass_column(read_csv(out / "E1_prdn_envelope.csv"), "fdr_mean", "fdr_stderr",
                        "prdn_bound", "E1")


def _check_e2(out: Path) -> list[StatCheck]:
    stats = []
    for i, row in enumerate(read_csv(out / "E2_tightness.csv")):
        for key in ("fdr_mean", "limit_mean", "upper_bound"):
            unit(float(row[key]), f"E2 row {i} {key}")
        fdr, bound = float(row["fdr_mean"]), float(row["upper_bound"])
        if float(row["tightness_ratio"]) != fdr / bound:
            raise CheckError(f"E2 row {i} tightness ratio != fdr / bound")
        se = math.hypot(float(row["fdr_stderr"]), float(row["limit_stderr"]))
        stats.append((f"E2 row {i} limit <= fdr",
                      z_above(float(row["limit_mean"]), fdr, se), 6.0))
    return stats


def _check_e3(out: Path) -> list[StatCheck]:
    return _pass_column(read_csv(out / "E3_bonferroni_masked.csv"), "fdr_mean", "fdr_stderr",
                        "envelope", "E3")


def _check_e4(out: Path) -> list[StatCheck]:
    rows = read_csv(out / "E4_improvement.csv")
    if not rows:
        raise CheckError("E4 table is empty")
    for i, row in enumerate(rows):
        new = unit(float(row["bound_new"]), f"E4 row {i} bound_new")
        old = unit(float(row["bound_log"]), f"E4 row {i} bound_log")
        if row["improved"] != "true" or not new < old:
            raise CheckError(f"E4 row {i}: the null-driven bound does not improve")
    return []


def _check_e5(out: Path) -> list[StatCheck]:
    rows = read_csv(out / "E5_consistency.csv")
    for i, row in enumerate(rows):
        unit(float(row["sup_fdr"]), f"E5 row {i} sup_fdr")
        if not math.isfinite(float(row["sup_stderr"])):
            raise CheckError(f"E5 row {i} stderr is not finite")
    for suffix in (".tsv", ".svg"):
        if (out / f"E5_consistency{suffix}").stat().st_size == 0:
            raise CheckError(f"E5_consistency{suffix} is empty")
    return []


def _check_e6(out: Path) -> list[StatCheck]:
    rows = read_csv(out / "E6_linking.csv")
    for i, row in enumerate(rows):
        if float(row["slack"]) != float(row["link_bound"]) - float(row["fdr_mean"]):
            raise CheckError(f"E6 row {i} slack != link_bound - fdr_mean")
    return _pass_column([dict(r, bound=r["link_bound"]) for r in rows], "fdr_mean",
                        "fdr_stderr", "bound", "E6")


def _check_e7(out: Path) -> list[StatCheck]:
    return _pass_column(read_csv(out / "E7_fdx.csv"), "fdx_mean", "fdx_stderr", "fdx_bound",
                        "E7")


# E8's battery as the preset defines it, except the random matrix, whose
# entries come from the preset's own RNG draw.
_E8_EXPLICIT = {
    "identity_3": (np.eye(3), [0, 1, 2]),
    "negative_null_nonnull": (np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.1],
                                        [-0.2, 0.1, 1.0]]), [0, 1]),
    "negative_within_nulls": (np.array([[1.0, -0.3, 0.2], [-0.3, 1.0, 0.1],
                                        [0.2, 0.1, 1.0]]), [0, 1]),
    "equicorrelated_pos_4": (0.5 * np.ones((4, 4)) + 0.5 * np.eye(4), [0, 1, 2, 3]),
    "equicorrelated_neg_3": (-0.2 * np.ones((3, 3)) + 1.2 * np.eye(3), [0, 1, 2]),
}


def _signs_valid(sigma0: np.ndarray, signs: np.ndarray) -> bool:
    """Whether ``-B inv(sigma0) B`` is nonnegative off the diagonal."""
    k_mat = -np.linalg.inv(sigma0)
    check = signs[:, None] * k_mat * signs[None, :]
    np.fill_diagonal(check, 0.0)
    return check.min() >= -1e-10 * np.abs(k_mat).max()


def e8_expected(sigma: np.ndarray, nulls: list[int]) -> tuple[bool, bool, bool]:
    """(prdn, prds, two-sided MTP2 feasible) by definition and brute force."""
    other = [i for i in range(sigma.shape[0]) if i not in nulls]
    prdn = bool(np.all(sigma[np.ix_(nulls, nulls)] >= 0.0))
    prds = prdn and bool(np.all(sigma[np.ix_(nulls, other)] >= 0.0))
    block = sigma[np.ix_(nulls, nulls)]
    feasible = any(_signs_valid(block, np.array((1,) + bits))
                   for bits in itertools.product((1, -1), repeat=len(nulls) - 1))
    return prdn, prds, feasible


def _check_e8(out: Path) -> list[StatCheck]:
    rows = {row["matrix"]: row for row in read_csv(out / "E8_structural.csv")}
    if "random_corr_5" not in rows or set(_E8_EXPLICIT) - set(rows):
        raise CheckError(f"E8 table lacks matrices: {sorted(rows)}")
    for label, row in rows.items():
        flags = tuple(row[k] == "true" for k in ("prdn", "prds", "mtp2_feasible"))
        if flags[1] and not flags[0]:
            raise CheckError(f"E8 {label}: prds without prdn")
        if flags[2] != (len(row["signs"]) == int(row["n0"])):
            raise CheckError(f"E8 {label}: signs {row['signs']!r} disagree with feasibility")
        if label not in _E8_EXPLICIT:
            continue
        sigma, nulls = _E8_EXPLICIT[label]
        if flags != e8_expected(sigma, nulls):
            raise CheckError(f"E8 {label}: flags {flags} != {e8_expected(sigma, nulls)}")
        if flags[2]:
            signs = np.array([1 if c == "+" else -1 for c in row["signs"]])
            if not _signs_valid(sigma[np.ix_(nulls, nulls)], signs):
                raise CheckError(f"E8 {label}: signs {row['signs']} do not satisfy MTP2")
    return []


PRESET_CHECKS = {"E1": _check_e1, "E2": _check_e2, "E3": _check_e3, "E4": _check_e4,
                 "E5": _check_e5, "E6": _check_e6, "E7": _check_e7, "E8": _check_e8}


@dataclass
class CliResult:
    returncode: int
    stderr: str
    out: Path


# The preset run again with `--workers 2`. It must write the same table byte
# for byte: the seeding contract makes the result independent of the worker
# count.
POOLED_PRESET = "E1"


def build_presets_cli(seed: int, out_root: Path, scale: float = 1.0,
                      reps_per_rep: Optional[dict] = None) -> Workload:
    """`reps_per_rep[preset]` is how many replications a preset draws per
    unit of ``--reps`` (see ``count_preset_reps``); it sets each op's reps.

    Each preset runs as a user runs it by default, in one process. Only
    ``POOLED_PRESET`` also runs with a process pool: a pool on every preset
    keeps both of the host's cores busy, and its wall time then follows how
    much CPU other tenants leave rather than the program.
    """
    reps = _scaled(100, scale)
    runs = [(p, p, False) for p in sorted(PRESET_CHECKS)]
    runs.append((POOLED_PRESET + "-w2", POOLED_PRESET, True))
    ops: list[Op] = []
    for name, preset, pooled in runs:
        out = out_root / name
        args = ["run", preset, "--reps", str(reps), "--seed", str(seed), "--out", str(out)]
        if pooled:
            args += ["--workers", "2"]

        def call(trace_file, args=args, out=out):
            shutil.rmtree(out, ignore_errors=True)  # check only what this run writes
            if trace_file is None:
                cmd = [sys.executable, "-m", "fdrlink.cli", *args]
            else:
                cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(trace_file), *args]
            proc = subprocess.run(cmd, env=cli_env(), capture_output=True, text=True,
                                  timeout=170)
            return CliResult(proc.returncode, proc.stderr, out)

        def check(result, done, name=name, preset=preset, pooled=pooled):
            if result.returncode != 0:
                raise CheckError(f"fdrlink run {name} exited {result.returncode}: "
                                 f"{result.stderr.strip()[-500:]}")
            stats = PRESET_CHECKS[preset](result.out)
            if pooled:
                for table in sorted(done[preset].out.iterdir()):
                    if (result.out / table.name).read_bytes() != table.read_bytes():
                        raise CheckError(f"{name} wrote a different {table.name} than "
                                         f"{preset} in one process")
                return []  # the same values as the preset's own statistical checks
            return stats

        per_rep = (reps_per_rep or {}).get(preset, 0)
        ops.append(Op(name, per_rep * reps, call, check))

    def warmup():
        configs = [load_config({"schema": 1, "preset": p, "reps": reps, "master_seed": seed,
                                "out_dir": str(out_root / p)}, env={})
                   for p in PRESETS]
        with contextlib.redirect_stdout(io.StringIO()):
            code = fdrlink.cli.main(["run", "E4", "--out", str(out_root / "warmup")])
        if code != 0:
            raise CheckError(f"warm-up `fdrlink run E4` exited {code}")
        return configs

    return Workload("presets-cli", ops, warmup,
                    dict(reps=reps, presets=sorted(PRESET_CHECKS), pooled=POOLED_PRESET),
                    in_process=False)


def count_preset_reps(seed: int, out_root: Path) -> dict[str, int]:
    """Replications each preset draws per unit of ``--reps``.

    Every estimate call of a preset uses the configured reps, so the count
    from a traced in-process run at reps=4 scales exactly.
    """
    from fdrlink import experiments

    per_rep = {}
    for preset in sorted(PRESET_CHECKS):
        rec = Recorder()
        undo = install(rec)
        try:
            experiments.run(load_config({"schema": 1, "preset": preset, "reps": 4,
                                         "master_seed": seed,
                                         "out_dir": str(out_root / "count" / preset)},
                                        env={}))
        finally:
            undo()
        per_rep[preset] = summarize(rec)["reps"] // 4
    return per_rep


WORKLOADS = ("mc-iid", "dependent-link", "presets-cli")
# (one process, pool of two) operation pairs that give mc.pool_speedup
POOL_PAIRS = (("iid-informed", "iid-informed-w2"), (POOLED_PRESET, POOLED_PRESET + "-w2"))


def build(name: str, seed: int, out_root: Path, scale: float = 1.0,
          reps_per_rep: Optional[dict] = None) -> Workload:
    if name == "mc-iid":
        return build_mc_iid(seed, scale)
    if name == "dependent-link":
        return build_dependent_link(seed, scale)
    if name == "presets-cli":
        return build_presets_cli(seed, out_root, scale, reps_per_rep)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
