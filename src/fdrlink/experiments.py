"""Config-driven experiment runner with named presets.

Presets (default sizes are desk scale; reps and seed are overridable):

  E1  step-up FDR of the informed construction on iid uniform nulls against
      the positive-dependence envelope, over a level grid
  E2  the same FDR against the Monte Carlo worst-case limit constant at the
      study's effective null level (tightness)
  E3  Bonferroni-masked constructions (both strategies) against the 3.5*alpha
      envelope
  E4  arbitrary-dependence bound against the log-correction bound across the
      improvement range (closed form)
  E5  FDR-consistency curves for the example dependence classes plus the
      non-consistent worst-case reference curve
  E6  linking-bound slack across a generator x adversary grid
  E7  exceedance probabilities against the FDX bound
  E8  structural positive-dependence checks on a battery of covariances

A preset returns ``{file name: (writer, *args)}``, and :func:`run` calls
each writer once all are computed. Outputs are CSV (RFC-4180-style, header
row, 17 significant digits), written atomically: files appear only after the
whole preset succeeds. E5 adds tab-separated series and an SVG line chart.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .adversaries import (
    AdversarySpec,
    BonferroniMaskedAdversary,
    FixedZerosAdversary,
    InformedAdversary,
    MostAntiConservativeAdversary,
    MASKED_STRATEGIES,
)
from .bounds import (
    fdx_bound,
    guo_rao_reference,
    improvement_range,
    log_correction_bound,
    arbitrary_dep_bound,
    prdn_bound_pi0,
)
from .dependence import (
    BlockDependent,
    EquicorrelatedNormal,
    GeneratorSpec,
    IidUniform,
    PrdnGaussian,
    TwoSidedWrap,
    check_covariance,
    structural_checks,
    vanishing_null_family,
)
from .mc import (McConfig, McEstimate, check_procedure, estimate_fdr, estimate_fdx,
                 estimate_worst_fdr_limit, verify_linking)
from .study import check_open_unit, is_int

__all__ = [
    "ConfigError",
    "UnknownPresetError",
    "OutputError",
    "ExperimentConfig",
    "load_config",
    "run",
    "consistency_curve",
    "curve_is_decreasing",
    "load_matrix",
    "write_csv",
    "emit_series",
    "render_svg_line_chart",
    "PRESETS",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


class UnknownPresetError(ConfigError):
    """Preset name not in the registry."""


class OutputError(OSError):
    """Output directory or file cannot be written."""


def format_value(x) -> str:
    """Render a cell: floats with 17 significant digits, others as str."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([format_value(c) for c in row] for row in rows)
    return buf.getvalue()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write `text` through a temporary file next to `path`, so that `path`
    appears only whole; a failed write leaves neither behind."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    path = Path(path)
    _atomic_write_text(path, _render_csv(header, rows))
    return path


def emit_series(path, x_label: str, xs: Sequence[float],
                series: Mapping[str, Sequence[float]]) -> Path:
    """Tab-separated x/y series: one x column, one column per labelled series."""
    path = Path(path)
    lines = ["\t".join([x_label, *series.keys()])]
    for i, x in enumerate(xs):
        lines.append("\t".join([format_value(float(x)),
                                *(format_value(float(ys[i])) for ys in series.values())]))
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def render_svg_line_chart(path, title: str, xs: Sequence[float],
                          series: Mapping[str, Sequence[float]]) -> Path:
    """Minimal static SVG line chart (no external dependencies)."""
    width, height, margin = 640, 400, 60
    xs = [float(x) for x in xs]
    lo_x, hi_x = min(xs), max(xs)
    all_y = [float(v) for ys in series.values() for v in ys]
    lo_y, hi_y = min(all_y + [0.0]), max(all_y + [1e-12])
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0

    def sx(x: float) -> float:
        return margin + (x - lo_x) / span_x * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - lo_y) / span_y * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for k, (label, ys) in enumerate(series.items()):
        pts = " ".join(f"{sx(x):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        color = palette[k % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * k}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    _atomic_write_text(Path(path), "\n".join(parts) + "\n")
    return Path(path)


def load_matrix(path) -> np.ndarray:
    """Dense covariance from a text file: one row per line, whitespace-separated,
    checked by :func:`fdrlink.dependence.check_covariance`."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, TypeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        rows = [[float(tok) for tok in line.split()] for line in lines if line.strip()]
    except ValueError as exc:
        raise ConfigError(f"{path} has a non-numeric entry: {exc}") from exc
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{path} has rows of different lengths")
    try:
        return check_covariance(rows, str(path))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# A config node's ``type`` names a spec constructor (a spec class, or
# TwoSidedWrap, which returns its inner spec two-sided); its other keys are
# the constructor's arguments (see _config_keys), checked by it.
_GENERATORS = {
    "iid_uniform": IidUniform,
    "equicorrelated_normal": EquicorrelatedNormal,
    "prdn_gaussian": PrdnGaussian,
    "block": BlockDependent,
    "two_sided_wrap": TwoSidedWrap,
}
_ADVERSARIES = {
    "informed": InformedAdversary,
    "most_anti_conservative": MostAntiConservativeAdversary,
    "bonferroni_masked": BonferroniMaskedAdversary,
    "fixed_zeros": FixedZerosAdversary,
}


def _config_keys(cls) -> set[str]:
    """The keys besides ``type`` of a config node of class `cls`: its
    constructor's arguments, except that a PrdnGaussian reads `sigma` from
    ``sigma_file`` and keeps its mean `mu` at zero."""
    keys = set(inspect.signature(cls).parameters)
    return keys - {"sigma", "mu"} | {"sigma_file"} if cls is PrdnGaussian else keys


def _spec_from_config(node, registry: Mapping[str, type], what: str):
    if not isinstance(node, Mapping) or "type" not in node:
        raise ConfigError(f"{what} config must be an object with a 'type' key")
    kind = node["type"]
    if not isinstance(kind, str) or kind not in registry:
        raise ConfigError(f"unknown {what} type {kind!r}")
    cls = registry[kind]
    args = {key: value for key, value in node.items() if key != "type"}
    extra = set(args) - _config_keys(cls)
    if extra:
        raise ConfigError(f"unknown {what} keys {sorted(extra)} for type {kind!r}")
    if cls is PrdnGaussian:
        if "sigma_file" not in args:
            raise ConfigError(f"{what} type {kind!r} needs a sigma_file")
        args["sigma"] = load_matrix(args.pop("sigma_file"))
    if "inner" in args:  # two_sided_wrap's generator
        args["inner"] = _spec_from_config(args["inner"], registry, what)
    try:
        return cls(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc


# The fields that describe a custom experiment; a preset fixes its own.
_CUSTOM_KEYS = ("generator", "adversary", "procedure", "alpha_grid", "gamma_grid")


def _check_preset_fields(given: Sequence[str]) -> None:
    if given:
        raise ConfigError(f"a preset config takes no {', '.join(given)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A preset reference or an explicit experiment description.

    `reps`, `master_seed` and `workers` are checked as :class:`McConfig`
    checks them. A preset config leaves the custom fields (generator,
    adversary, procedure and the grids) at their defaults.
    """

    preset: Optional[str] = None
    name: str = "custom"
    generator: Optional[GeneratorSpec] = None
    adversary: Optional[AdversarySpec] = None
    procedure: str = "step_up"
    alpha_grid: tuple[float, ...] = ()
    gamma_grid: tuple[float, ...] = ()
    reps: int = 20_000
    master_seed: int = 20_240_808
    out_dir: Path = field(default_factory=lambda: Path("fdrlink_out"))
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            self.mc()
            for key in ("alpha_grid", "gamma_grid"):
                values = getattr(self, key)
                if not isinstance(values, (list, tuple)):
                    raise ValueError(f"{key} must be a list of numbers, got {values!r}")
                object.__setattr__(self, key, tuple(check_open_unit(key, v) for v in values))
            if not isinstance(self.out_dir, (str, os.PathLike)):
                raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
            object.__setattr__(self, "out_dir", Path(self.out_dir))
            if self.preset is not None:
                if not isinstance(self.preset, str):
                    raise ValueError(f"preset must be a string, got {self.preset!r}")
                _check_preset_fields([f.name for f in fields(self) if f.name in _CUSTOM_KEYS
                                      and getattr(self, f.name) != f.default])
                return
            if self.generator is None:
                raise ValueError("custom configs need a generator")
            if not self.alpha_grid:
                raise ValueError("custom configs need a non-empty alpha_grid")
            if not (isinstance(self.name, str) and self.name
                    and Path(self.name).name == self.name):
                raise ValueError(f"name must be a plain file name, got {self.name!r}")
            check_procedure(self.procedure, self.adversary)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def mc(self) -> McConfig:
        return McConfig(reps=self.reps, master_seed=self.master_seed, workers=self.workers)


# A config document's keys: the config's fields and its schema version.
_TOP_KEYS = {f.name for f in fields(ExperimentConfig)} | {"schema"}


def load_config(source, *, env: Optional[Mapping[str, str]] = None,
                overrides: Optional[Mapping] = None) -> ExperimentConfig:
    """Parse a config document: a mapping, or the path of a JSON file.

    Unknown keys are rejected; a ``schema`` field equal to the integer 1 is
    required, and a preset document may hold none of the custom keys, even
    at their defaults. Each value is checked by the constructor that takes it.
    ``FDRLINK_SEED`` in `env` (default: the process environment) overrides the
    configured master seed, and `overrides` (e.g. from CLI flags) override
    both.
    """
    if isinstance(source, Mapping):
        doc = dict(source)
    else:
        import json

        try:
            text = Path(source).read_text()
        except (OSError, TypeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {source}: {exc}") from exc
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    schema = doc.pop("schema", None)
    if not (is_int(schema) and schema == SCHEMA_VERSION):
        raise ConfigError(f"config schema must be the integer {SCHEMA_VERSION}, got {schema!r}")
    custom = [key for key in _CUSTOM_KEYS if key in doc]

    doc.setdefault("name", doc.get("preset") or "custom")
    if "generator" in doc:
        doc["generator"] = _spec_from_config(doc["generator"], _GENERATORS, "generator")
    if doc.get("adversary") is not None:
        doc["adversary"] = _spec_from_config(doc["adversary"], _ADVERSARIES, "adversary")
    env = os.environ if env is None else env
    if "FDRLINK_SEED" in env:
        try:
            doc["master_seed"] = int(env["FDRLINK_SEED"])
        except ValueError as exc:
            raise ConfigError("FDRLINK_SEED must be an integer") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    cfg = ExperimentConfig(**doc)
    if cfg.preset is not None:
        _check_preset_fields(custom)
    return cfg


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def consistency_curve(members: Mapping[str, GeneratorSpec], alpha_grid: Sequence[float],
                      cfg: McConfig, adversary: Optional[AdversarySpec] = None) -> list[dict]:
    """Max-over-members estimated step-up FDR per level.

    Returns one row per level: the supremum estimate, its standard error, and
    the member attaining it. Levels are reported in the given order.
    """
    if not members or not alpha_grid:
        raise ValueError("need at least one member and one level")
    rows = []
    for alpha in alpha_grid:
        best = None
        for label, gen in members.items():
            est = estimate_fdr(gen, adversary, "step_up", alpha, cfg)
            if best is None or est.mean > best[1].mean:
                best = (label, est)
        label, est = best
        rows.append(dict(alpha=float(alpha), sup_fdr=est.mean, sup_stderr=est.stderr,
                         member=label))
    return rows


def curve_is_decreasing(rows: Sequence[Mapping]) -> bool:
    """Whether the supremum curve is non-increasing toward smaller levels,
    within 3 standard errors of each step's difference."""
    ordered = sorted(rows, key=lambda r: -r["alpha"])
    for prev, cur in zip(ordered[:-1], ordered[1:]):
        slack = 3.0 * math.hypot(prev["sup_stderr"], cur["sup_stderr"])
        if cur["sup_fdr"] > prev["sup_fdr"] + slack:
            return False
    return True


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _passes(est: McEstimate, bound: float) -> bool:
    """A preset's pass column: the estimate exceeds `bound` by at most 3
    standard errors."""
    return est.mean <= bound + 3.0 * est.stderr


def _preset_e1(cfg: ExperimentConfig) -> dict[str, tuple]:
    gen = IidUniform(200, 2000)
    pi0 = gen.n0 / gen.n
    rows = []
    for alpha in (0.01, 0.05, 0.1, 0.2):
        est = estimate_fdr(gen, InformedAdversary(), "step_up", alpha, cfg.mc())
        bound = prdn_bound_pi0(pi0, alpha)
        rows.append([alpha, est.mean, est.stderr, bound, _passes(est, bound)])
    header = ("alpha", "fdr_mean", "fdr_stderr", "prdn_bound", "pass")
    return {"E1_prdn_envelope.csv": (write_csv, header, rows)}


def _preset_e2(cfg: ExperimentConfig) -> dict[str, tuple]:
    gen = IidUniform(200, 2000)
    pi0 = gen.n0 / gen.n
    rows = []
    for alpha in (0.2, 0.1, 0.05):
        est = estimate_fdr(gen, InformedAdversary(), "step_up", alpha, cfg.mc())
        level = pi0 * alpha
        lim = estimate_worst_fdr_limit(level, cfg.mc())
        bound = prdn_bound_pi0(pi0, alpha)
        rows.append([alpha, level, est.mean, est.stderr, lim.mean, lim.stderr,
                     bound, est.mean / bound])
    header = ("alpha", "effective_level", "fdr_mean", "fdr_stderr",
              "limit_mean", "limit_stderr", "upper_bound", "tightness_ratio")
    return {"E2_tightness.csv": (write_csv, header, rows)}


def _preset_e3(cfg: ExperimentConfig) -> dict[str, tuple]:
    gen = IidUniform(100, 1000)
    rows = []
    for strategy in MASKED_STRATEGIES:
        adv = BonferroniMaskedAdversary(strategy)
        for alpha in (0.01, 0.05, 0.1):
            est = estimate_fdr(gen, adv, "step_up", alpha, cfg.mc())
            envelope = 3.5 * alpha
            rows.append([strategy, alpha, est.mean, est.stderr, envelope,
                         _passes(est, envelope)])
    header = ("strategy", "alpha", "fdr_mean", "fdr_stderr", "envelope", "pass")
    return {"E3_bonferroni_masked.csv": (write_csv, header, rows)}


def _preset_e4(cfg: ExperimentConfig) -> dict[str, tuple]:
    rows = []
    for n, n0 in ((200, 100), (1000, 500), (10_000, 1000)):
        pi0 = n0 / n
        rng = improvement_range(n, n0, pi0)
        for alpha in rng.grid(20):
            new = arbitrary_dep_bound(n0, pi0, alpha)
            old = log_correction_bound(n, pi0, alpha)
            rows.append([n, n0, pi0, float(alpha), new, old, new < old])
    header = ("n", "n0", "pi0", "alpha", "bound_new", "bound_log", "improved")
    return {"E4_improvement.csv": (write_csv, header, rows)}


def _consistency_members() -> dict[str, dict[str, GeneratorSpec]]:
    classes: dict[str, dict[str, GeneratorSpec]] = {}
    equi = {}
    for n0 in (50, 200):
        for rho in (-1.0 / (n0 - 1), 0.0, 0.5):
            equi[f"n0={n0},rho={rho:.4g}"] = EquicorrelatedNormal(n0, 0, rho)
    classes["equicorrelated_one_sided"] = equi
    classes["equicorrelated_two_sided"] = {
        label: TwoSidedWrap(gen) for label, gen in equi.items()}
    classes["block_b3"] = {
        f"m={m}": BlockDependent(tuple([3] * m)) for m in (20, 60)}
    vanish = {}
    for l in (8, 32, 128):
        n, n0 = vanishing_null_family(l)
        vanish[f"l={l}(n={n},n0={n0})"] = IidUniform(n0, n - n0)
    classes["vanishing_null_informed"] = vanish
    return classes


def _preset_e5(cfg: ExperimentConfig) -> dict[str, tuple]:
    alpha_grid = (0.2, 0.1, 0.05, 0.02)
    rows = []
    series: dict[str, list[float]] = {}
    for cls, members in _consistency_members().items():
        adv = InformedAdversary() if cls == "vanishing_null_informed" else None
        curve = consistency_curve(members, alpha_grid, cfg.mc(), adversary=adv)
        decreasing = curve_is_decreasing(curve)
        series[cls] = [r["sup_fdr"] for r in curve]
        for r in curve:
            rows.append([cls, r["alpha"], r["sup_fdr"], r["sup_stderr"],
                         r["member"], decreasing])
    reference = [guo_rao_reference(10_000, a) for a in alpha_grid]
    series["guo_rao_reference_n1e4"] = reference
    for alpha, value in zip(alpha_grid, reference):
        rows.append(["guo_rao_reference_n1e4", alpha, value, 0.0, "closed_form", False])
    header = ("class", "alpha", "sup_fdr", "sup_stderr", "member", "decreasing_flag")
    return {
        "E5_consistency.csv": (write_csv, header, rows),
        "E5_consistency.tsv": (emit_series, "alpha", alpha_grid, series),
        "E5_consistency.svg": (render_svg_line_chart, "E5_consistency", alpha_grid, series),
    }


def _linking_grid() -> dict[str, GeneratorSpec]:
    n0, n1 = 100, 1000
    gens: dict[str, GeneratorSpec] = {"iid": IidUniform(n0, n1)}
    for rho in (-1.0 / (n0 - 1), 0.0, 0.5):
        gens[f"equicorr(rho={rho:.4g})"] = EquicorrelatedNormal(n0, n1, rho)
    mask = np.zeros(n0 + n1, dtype=bool)
    mask[:n0] = True
    gens["block_b3"] = BlockDependent(tuple([3] * ((n0 + n1) // 3) + [2]),
                                      null_mask=mask)
    return gens


def _preset_e6(cfg: ExperimentConfig) -> dict[str, tuple]:
    alpha = 0.05
    adversaries: dict[str, Optional[AdversarySpec]] = {
        "informed": InformedAdversary(),
        "fixed_zeros_0": FixedZerosAdversary(0),
        "bonferroni_masked": BonferroniMaskedAdversary("shifted_argmax"),
    }
    rows = []
    for gen_label, gen in _linking_grid().items():
        for adv_label, adv in adversaries.items():
            report = verify_linking(gen, adv, alpha, cfg.mc())
            rows.append([gen_label, adv_label, alpha, report.lhs.mean,
                         report.lhs.stderr, report.rhs, report.slack,
                         _passes(report.lhs, report.rhs)])
    header = ("generator", "adversary", "alpha", "fdr_mean", "fdr_stderr",
              "link_bound", "slack", "pass")
    return {"E6_linking.csv": (write_csv, header, rows)}


def _preset_e7(cfg: ExperimentConfig) -> dict[str, tuple]:
    alpha = 0.1
    gens = {
        "iid(n0=100,n1=1000)": IidUniform(100, 1000),
        "equicorr(rho=0.5)": EquicorrelatedNormal(100, 1000, 0.5),
    }
    rows = []
    for label, gen in gens.items():
        pi0 = gen.n0 / gen.n
        for gamma in (0.1, 0.25, 0.5):
            est = estimate_fdx(gen, InformedAdversary(), "step_up", alpha, gamma, cfg.mc())
            bound = fdx_bound(pi0, alpha, gamma)
            rows.append([label, alpha, gamma, est.mean, est.stderr, bound,
                         _passes(est, bound)])
    header = ("generator", "alpha", "gamma", "fdx_mean", "fdx_stderr", "fdx_bound", "pass")
    return {"E7_fdx.csv": (write_csv, header, rows)}


def _structural_battery() -> dict[str, tuple[np.ndarray, list[int]]]:
    eye3 = np.eye(3)
    neg_cross = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.0]])
    neg_null = np.array([[1.0, -0.3, 0.2], [-0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
    equi_pos = 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4)
    equi_neg = -0.2 * np.ones((3, 3)) + 1.2 * np.eye(3)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((5, 5))
    random_psd = raw @ raw.T + 5 * np.eye(5)
    d = np.sqrt(np.diag(random_psd))
    random_corr = random_psd / np.outer(d, d)
    return {
        "identity_3": (eye3, [0, 1, 2]),
        "negative_null_nonnull": (neg_cross, [0, 1]),
        "negative_within_nulls": (neg_null, [0, 1]),
        "equicorrelated_pos_4": (equi_pos, [0, 1, 2, 3]),
        "equicorrelated_neg_3": (equi_neg, [0, 1, 2]),
        "random_corr_5": (random_corr, [0, 1, 2]),
    }


def _preset_e8(cfg: ExperimentConfig) -> dict[str, tuple]:
    rows = []
    for label, (sigma, null_idx) in _structural_battery().items():
        prdn, prds, signs = structural_checks(sigma, null_idx)
        rows.append([label, sigma.shape[0], len(null_idx), prdn, prds,
                     signs is not None, signs or ""])
    header = ("matrix", "n", "n0", "prdn", "prds", "mtp2_feasible", "signs")
    return {"E8_structural.csv": (write_csv, header, rows)}


PRESETS = {
    "E1": _preset_e1,
    "E2": _preset_e2,
    "E3": _preset_e3,
    "E4": _preset_e4,
    "E5": _preset_e5,
    "E6": _preset_e6,
    "E7": _preset_e7,
    "E8": _preset_e8,
}


def _run_custom(cfg: ExperimentConfig) -> dict[str, tuple]:
    rows = []
    mc = cfg.mc()
    try:
        for alpha in cfg.alpha_grid:
            est = estimate_fdr(cfg.generator, cfg.adversary, cfg.procedure, alpha, mc)
            rows.append(["fdr", alpha, "", est.mean, est.stderr])
            for gamma in cfg.gamma_grid:
                fx = estimate_fdx(cfg.generator, cfg.adversary, cfg.procedure, alpha, gamma, mc)
                rows.append(["fdx", alpha, gamma, fx.mean, fx.stderr])
    except ValueError as exc:  # the adversary cannot run on the generator
        raise ConfigError(f"cannot run {cfg.name!r}: {exc}") from exc
    header = ("target", "alpha", "gamma", "mean", "stderr")
    return {f"{cfg.name}.csv": (write_csv, header, rows)}


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute a preset or custom experiment; returns the written files.

    Every payload is computed before anything is written, so a failed
    computation leaves no partial outputs.
    """
    if cfg.preset is not None:
        if cfg.preset not in PRESETS:
            raise UnknownPresetError(
                f"unknown preset {cfg.preset!r}; choose from {sorted(PRESETS)}")
        outputs = PRESETS[cfg.preset](cfg)
    else:
        outputs = _run_custom(cfg)
    return [writer(cfg.out_dir / filename, *args)
            for filename, (writer, *args) in outputs.items()]
