"""The replication record: presets E1-E8 at ``--reps 2000 --seed 7``, rerun
in-process and compared cell by cell with the files under ``golden/``.

A change that moves a number on purpose regenerates the files in the same
commit (``fdrlink run E<k> --reps 2000 --seed 7 --out tests/golden``) and
lists each changed cell in CHANGES.md.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from fdrlink.experiments import PRESETS, load_config, run

GOLDEN = Path(__file__).parent / "golden"

# E6's link_bound and slack on Gaussian rows rest on numpy's exp and log,
# whose SIMD dispatch can move them: with AVX-512 dispatch off
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") the
# equicorr(rho=0.5) cells moved by one ulp of link_bound and every other
# cell stayed. Those cells may differ by up to GAUSSIAN_ULPS ulps of the
# row's golden link_bound; every other cell must match exactly. The spread
# at numpy 1.24 is unmeasured.
GAUSSIAN_ULPS = 4


def _rows(path: Path) -> list[list[str]]:
    """A CSV file's cells, or another file's lines split at tabs."""
    if path.suffix == ".csv":
        with path.open(newline="") as handle:
            return list(csv.reader(handle))
    return [line.split("\t") for line in path.read_text().splitlines()]


def _tolerance(name: str, header: list[str], column: str, row: list[str]) -> float:
    if name == "E6_linking.csv" and column in ("link_bound", "slack") and row[0] != "iid":
        return GAUSSIAN_ULPS * float(np.spacing(float(row[header.index("link_bound")])))
    return 0.0


# Every preset with the default lanes, and the two whose rows can take thread
# lanes (E2's limit rows are 1024 values wide) at one and at two workers.
_RUNS = [(preset, None) for preset in PRESETS] + [
    (preset, workers) for preset in ("E1", "E2") for workers in (1, 2)]


@pytest.mark.parametrize("preset, workers", _RUNS,
                         ids=[p if w is None else f"{p}-workers{w}" for p, w in _RUNS])
def test_preset_matches_the_golden_files(preset, workers, tmp_path):
    cfg = load_config({"schema": 1, "preset": preset}, env={}, overrides={
        "reps": 2000, "master_seed": 7, "out_dir": tmp_path, "workers": workers})
    written = run(cfg)
    expected = sorted(p.name for p in GOLDEN.glob(f"{preset}_*"))
    assert sorted(p.name for p in written) == expected
    for name in expected:
        got, want = _rows(tmp_path / name), _rows(GOLDEN / name)
        assert len(got) == len(want) and got[0] == want[0], name
        header = want[0]
        for line, (new, old) in enumerate(zip(got[1:], want[1:]), start=2):
            assert len(new) == len(old), f"{name} line {line}"
            for column, a, b in zip(header, new, old):
                tol = _tolerance(name, header, column, old)
                if tol:
                    assert abs(float(a) - float(b)) <= tol, f"{name} line {line} {column}"
                else:
                    assert a == b, f"{name} line {line} {column}: {a} != {b}"
