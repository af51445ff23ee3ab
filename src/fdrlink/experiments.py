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

All outputs are CSV (RFC-4180-style, header row, 17 significant digits),
written atomically: files appear only after the whole preset succeeds.
E5 additionally emits tab-separated x/y series and a minimal SVG line chart.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
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
    bound_report,
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
    is_symmetric,
    mtp2_sign_check,
    prdn_check_gaussian,
    prds_check_gaussian,
    vanishing_null_family,
)
from .mc import (McConfig, check_procedure, estimate_fdr, estimate_fdx, estimate_worst_fdr_limit,
                 verify_linking)
from .study import is_int

__all__ = [
    "ConfigError",
    "UnknownPresetError",
    "OutputError",
    "ExperimentConfig",
    "load_config",
    "run",
    "bounds_table",
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


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    buf.write(",".join(_csv_quote(h) for h in header) + "\r\n")
    for row in rows:
        buf.write(",".join(_csv_quote(format_value(c)) for c in row) + "\r\n")
    return buf.getvalue()


def _atomic_write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
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
    """Dense covariance from a text file: one row per line, whitespace-separated.
    The matrix must be square, finite and symmetric."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        rows = [[float(tok) for tok in line.split()] for line in lines if line.strip()]
    except ValueError as exc:
        raise ConfigError(f"{path} has a non-numeric entry: {exc}") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ConfigError(f"{path} does not contain a square whitespace-separated matrix")
    mat = np.asarray(rows, dtype=float)
    if not np.isfinite(mat).all():
        raise ConfigError(f"{path} has non-finite entries")
    if not is_symmetric(mat):
        raise ConfigError(f"{path} does not contain a symmetric matrix")
    return mat


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_GENERATOR_KEYS = {
    "iid_uniform": {"n0", "n1"},
    "equicorrelated_normal": {"n0", "n1", "rho", "sided", "mu_alt"},
    "prdn_gaussian": {"sigma_file", "null_idx", "sided"},
    "block": {"block_sizes", "within", "rho_w", "null_mask", "mu_alt", "sided"},
    "two_sided_wrap": {"inner"},
}


def generator_from_config(node: Mapping) -> GeneratorSpec:
    if not isinstance(node, Mapping) or "type" not in node:
        raise ConfigError("generator config must be an object with a 'type' key")
    kind = node["type"]
    if kind not in _GENERATOR_KEYS:
        raise ConfigError(f"unknown generator type {kind!r}")
    extra = set(node) - _GENERATOR_KEYS[kind] - {"type"}
    if extra:
        raise ConfigError(f"unknown generator keys {sorted(extra)} for type {kind!r}")
    try:
        if kind == "iid_uniform":
            return IidUniform(_int_field(node, "n0"), _int_field(node, "n1", 0))
        if kind == "equicorrelated_normal":
            return EquicorrelatedNormal(
                _int_field(node, "n0"), _int_field(node, "n1", 0), _number_field(node, "rho", 0.0),
                str(node.get("sided", "one")), _number_field(node, "mu_alt", 2.0))
        if kind == "prdn_gaussian":
            null_idx = _int_list(node, "null_idx")
            return PrdnGaussian(load_matrix(node["sigma_file"]), null_idx, None,
                                str(node.get("sided", "one")))
        if kind == "block":
            mask = node.get("null_mask")
            if mask is not None and not (isinstance(mask, list)
                                         and all(isinstance(v, bool) for v in mask)):
                raise ConfigError(f"null_mask must be a list of booleans, got {mask!r}")
            return BlockDependent(
                _int_list(node, "block_sizes"), str(node.get("within", "identical")),
                None if node.get("rho_w") is None else _number_field(node, "rho_w", None),
                None if mask is None else np.asarray(mask, dtype=bool),
                _number_field(node, "mu_alt", 2.0), str(node.get("sided", "one")))
        return TwoSidedWrap(generator_from_config(node["inner"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid generator config: {exc}") from exc


def adversary_from_config(node: Optional[Mapping]) -> Optional[AdversarySpec]:
    if node is None:
        return None
    if not isinstance(node, Mapping) or "type" not in node:
        raise ConfigError("adversary config must be an object with a 'type' key")
    kind = node["type"]
    allowed = {
        "informed": set(),
        "most_anti_conservative": set(),
        "bonferroni_masked": {"strategy"},
        "fixed_zeros": {"zeros"},
    }
    if kind not in allowed:
        raise ConfigError(f"unknown adversary type {kind!r}")
    extra = set(node) - allowed[kind] - {"type"}
    if extra:
        raise ConfigError(f"unknown adversary keys {sorted(extra)} for type {kind!r}")
    try:
        if kind == "informed":
            return InformedAdversary()
        if kind == "most_anti_conservative":
            return MostAntiConservativeAdversary()
        if kind == "bonferroni_masked":
            return BonferroniMaskedAdversary(str(node.get("strategy", "shifted_argmax")))
        return FixedZerosAdversary(_int_field(node, "zeros", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid adversary config: {exc}") from exc


_TOP_KEYS = {"schema", "preset", "name", "generator", "adversary", "procedure",
             "alpha_grid", "gamma_grid", "reps", "master_seed", "out_dir", "workers"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A preset reference or an explicit experiment description."""

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
        if self.preset is None:
            if self.generator is None:
                raise ConfigError("custom configs need a generator")
            if not self.alpha_grid:
                raise ConfigError("custom configs need a non-empty alpha_grid")
            if not (isinstance(self.name, str) and self.name
                    and Path(self.name).name == self.name):
                raise ConfigError(f"name must be a plain file name, got {self.name!r}")
            try:
                check_procedure(self.procedure, self.adversary)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for a in self.alpha_grid:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"alpha grid values must lie in (0, 1), got {a}")
        for g in self.gamma_grid:
            if not 0.0 < g < 1.0:
                raise ConfigError(f"gamma grid values must lie in (0, 1), got {g}")
        if not is_int(self.reps) or self.reps < 1:
            raise ConfigError(f"reps must be an integer >= 1, got {self.reps!r}")
        if not is_int(self.master_seed):
            raise ConfigError(f"master_seed must be an integer, got {self.master_seed!r}")
        if self.workers is not None and (not is_int(self.workers) or self.workers < 1):
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")

    def mc(self) -> McConfig:
        return McConfig(reps=self.reps, master_seed=self.master_seed, workers=self.workers)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_field(node: Mapping, key: str, default: Optional[int] = None) -> int:
    """``node[key]`` (or `default` when given and the key is absent) as a
    plain integer."""
    value = node[key] if default is None else node.get(key, default)
    if not is_int(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _int_list(node: Mapping, key: str) -> tuple[int, ...]:
    values = node[key]
    if not isinstance(values, (list, tuple)) or not all(is_int(v) for v in values):
        raise ConfigError(f"{key} must be a list of integers, got {values!r}")
    return tuple(values)


def _number_field(node: Mapping, key: str, default: Optional[float]) -> float:
    value = node.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _grid(doc: Mapping, key: str) -> tuple[float, ...]:
    values = doc.get(key, ())
    if not isinstance(values, (list, tuple)) or not all(_is_number(v) for v in values):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _is_existing_path(text: str) -> bool:
    """Whether `text` names an existing file; text the OS refuses as a path
    (a component over 255 characters, say) names none."""
    try:
        return Path(text).exists()
    except OSError:
        return False


def load_config(source, *, env: Optional[Mapping[str, str]] = None,
                overrides: Optional[Mapping] = None) -> ExperimentConfig:
    """Parse a config document (dict, JSON text, or file path).

    Unknown keys are rejected; a ``schema`` field equal to 1 is required.
    ``FDRLINK_SEED`` in `env` (default: the process environment) overrides the
    configured master seed, and `overrides` (e.g. from CLI flags) override
    both.
    """
    if isinstance(source, Mapping):
        doc = dict(source)
    else:
        text = str(source)
        # A config document is a JSON object; never probe the filesystem with one.
        if not text.lstrip().startswith("{") and _is_existing_path(text):
            text = Path(text).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}, got {doc.get('schema')!r}")

    env = os.environ if env is None else env
    seed = doc.get("master_seed", 20_240_808)
    if "FDRLINK_SEED" in env:
        try:
            seed = int(env["FDRLINK_SEED"])
        except ValueError as exc:
            raise ConfigError("FDRLINK_SEED must be an integer") from exc
    out_dir = doc.get("out_dir", "fdrlink_out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    merged = dict(
        preset=doc.get("preset"),
        name=doc.get("name", doc.get("preset") or "custom"),
        generator=generator_from_config(doc["generator"]) if "generator" in doc else None,
        adversary=adversary_from_config(doc.get("adversary")),
        procedure=doc.get("procedure", "step_up"),
        alpha_grid=_grid(doc, "alpha_grid"),
        gamma_grid=_grid(doc, "gamma_grid"),
        reps=doc.get("reps", 20_000),
        master_seed=seed,
        out_dir=Path(out_dir),
        workers=doc.get("workers"),
    )
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

_TABLE_HEADER = ("bound_name", "n", "n0", "pi0", "alpha", "gamma", "value", "clamped_flag")


def bounds_table(n: int, n0: int, pi0: float, alphas: Sequence[float],
                 gammas: Sequence[float] = ()) -> tuple[tuple[str, ...], list[list]]:
    """All closed-form bounds over the level grid (and exceedance grid)."""
    if not alphas:
        raise ValueError("alpha grid must be non-empty")
    rows: list[list] = []
    for alpha in alphas:
        for name in ("prdn", "prdn_pi0", "log_correction", "arbitrary_dep", "guo_rao"):
            rep = bound_report(name, n=n, n0=n0, pi0=pi0, alpha=alpha)
            rows.append([name, n, n0, pi0, alpha, "", rep.value, rep.clamped])
        for gamma in gammas:
            rep = bound_report("fdx", n=n, n0=n0, pi0=pi0, alpha=alpha, gamma=gamma)
            rows.append(["fdx", n, n0, pi0, alpha, gamma, rep.value, rep.clamped])
    return _TABLE_HEADER, rows


def consistency_curve(members: Mapping[str, GeneratorSpec], alpha_grid: Sequence[float],
                      cfg: McConfig, adversary: Optional[AdversarySpec] = None,
                      procedure: str = "step_up") -> list[dict]:
    """Max-over-members estimated FDR per level.

    Returns one row per level: the supremum estimate, its standard error, and
    the member attaining it. Levels are reported in the given order.
    """
    if not members or not alpha_grid:
        raise ValueError("need at least one member and one level")
    rows = []
    for alpha in alpha_grid:
        best = None
        for label, gen in members.items():
            est = estimate_fdr(gen, adversary, procedure, alpha, cfg)
            if best is None or est.mean > best[1].mean:
                best = (label, est)
        label, est = best
        rows.append(dict(alpha=float(alpha), sup_fdr=est.mean, sup_stderr=est.stderr,
                         member=label))
    return rows


def curve_is_decreasing(rows: Sequence[Mapping], slack_multiplier: float = 3.0) -> bool:
    """Whether the supremum curve is non-increasing toward smaller levels,
    within Monte Carlo slack."""
    ordered = sorted(rows, key=lambda r: -r["alpha"])
    for prev, cur in zip(ordered[:-1], ordered[1:]):
        slack = slack_multiplier * math.hypot(prev["sup_stderr"], cur["sup_stderr"])
        if cur["sup_fdr"] > prev["sup_fdr"] + slack:
            return False
    return True


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _preset_e1(cfg: ExperimentConfig) -> dict[str, tuple]:
    gen = IidUniform(200, 2000)
    pi0 = gen.n0 / gen.n
    rows = []
    for alpha in (0.01, 0.05, 0.1, 0.2):
        est = estimate_fdr(gen, InformedAdversary(), "step_up", alpha, cfg.mc())
        bound = prdn_bound_pi0(pi0, alpha)
        rows.append([alpha, est.mean, est.stderr, bound,
                     est.mean <= bound + 3.0 * est.stderr])
    return {"E1_prdn_envelope.csv":
            (("alpha", "fdr_mean", "fdr_stderr", "prdn_bound", "pass"), rows)}


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
    return {"E2_tightness.csv": (header, rows)}


def _preset_e3(cfg: ExperimentConfig) -> dict[str, tuple]:
    gen = IidUniform(100, 1000)
    rows = []
    for strategy in MASKED_STRATEGIES:
        adv = BonferroniMaskedAdversary(strategy)
        for alpha in (0.01, 0.05, 0.1):
            est = estimate_fdr(gen, adv, "step_up", alpha, cfg.mc())
            envelope = 3.5 * alpha
            rows.append([strategy, alpha, est.mean, est.stderr, envelope,
                         est.mean <= envelope + 3.0 * est.stderr])
    return {"E3_bonferroni_masked.csv":
            (("strategy", "alpha", "fdr_mean", "fdr_stderr", "envelope", "pass"), rows)}


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
    return {"E4_improvement.csv": (header, rows)}


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
        "E5_consistency.csv": (header, rows),
        "E5_consistency.tsv": ("__series__", (alpha_grid, series)),
        "E5_consistency.svg": ("__svg__", (alpha_grid, series)),
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
                         report.slack >= -3.0 * report.lhs.stderr])
    header = ("generator", "adversary", "alpha", "fdr_mean", "fdr_stderr",
              "link_bound", "slack", "pass")
    return {"E6_linking.csv": (header, rows)}


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
                         est.mean <= bound + 3.0 * est.stderr])
    header = ("generator", "alpha", "gamma", "fdx_mean", "fdx_stderr", "fdx_bound", "pass")
    return {"E7_fdx.csv": (header, rows)}


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
        prdn = prdn_check_gaussian(sigma, null_idx)
        prds = prds_check_gaussian(sigma, null_idx)
        block = sigma[np.ix_(null_idx, null_idx)]
        signs = mtp2_sign_check(block)
        rows.append([label, sigma.shape[0], len(null_idx), prdn, prds,
                     signs is not None,
                     "" if signs is None else "".join("+" if s > 0 else "-" for s in signs)])
    header = ("matrix", "n", "n0", "prdn", "prds", "mtp2_feasible", "signs")
    return {"E8_structural.csv": (header, rows)}


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
    for alpha in cfg.alpha_grid:
        est = estimate_fdr(cfg.generator, cfg.adversary, cfg.procedure, alpha, mc)
        rows.append(["fdr", alpha, "", est.mean, est.stderr])
        for gamma in cfg.gamma_grid:
            fx = estimate_fdx(cfg.generator, cfg.adversary, cfg.procedure, alpha, gamma, mc)
            rows.append(["fdx", alpha, gamma, fx.mean, fx.stderr])
    header = ("target", "alpha", "gamma", "mean", "stderr")
    return {f"{cfg.name}.csv": (header, rows)}


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute a preset or custom experiment; returns the written files.

    All tables are computed before anything is written, so a failure leaves
    no partial outputs.
    """
    if cfg.preset is not None:
        if cfg.preset not in PRESETS:
            raise UnknownPresetError(
                f"unknown preset {cfg.preset!r}; choose from {sorted(PRESETS)}")
        outputs = PRESETS[cfg.preset](cfg)
    else:
        outputs = _run_custom(cfg)

    written = []
    for filename, payload in outputs.items():
        path = cfg.out_dir / filename
        kind = payload[0]
        if kind == "__series__":
            xs, series = payload[1]
            written.append(emit_series(path, "alpha", xs, series))
        elif kind == "__svg__":
            xs, series = payload[1]
            written.append(render_svg_line_chart(path, Path(filename).stem, xs, series))
        else:
            header, rows = payload
            written.append(write_csv(path, header, rows))
    return written
