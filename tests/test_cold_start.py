"""The thread pool, JSON, argparse and CSV load on first use, not with the
package; scipy, Fractions and the process pool machinery not at all.

``import fdrlink, fdrlink.cli`` loads none of them; a command loads only
what it runs (argparse to parse, csv to write, json to read a config file,
the thread pool when a run starts lanes), and no step loads ``scipy``,
``fractions`` or ``multiprocessing``: Gaussian draws and cuts run on the
package's own normal CDF and quantile, which the second test holds to
scipy's as an oracle. The fresh-interpreter test below records, step by
step, which of the watched modules is loaded.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

import fdrlink
from fdrlink.dependence import normal_cdf, normal_quantile

# Each step runs in one interpreter, in this order, and records which of the
# watched modules are loaded after it.
_STEPS = r"""
import contextlib, io, sys
out, matrix, config = sys.argv[1], sys.argv[2], sys.argv[3]
WATCHED = ("scipy", "concurrent.futures", "concurrent.futures.process", "multiprocessing",
           "logging", "fractions", "decimal", "json", "argparse", "csv")
loaded = {}
def step(name):
    loaded[name] = [m for m in WATCHED if m in sys.modules]

import fdrlink, fdrlink.cli
step("import")
with contextlib.redirect_stdout(io.StringIO()):
    assert fdrlink.cli.main(["run", "E4", "--out", out]) == 0
    step("run E4")
    assert fdrlink.cli.main(["bounds", "--n", "100", "--n0", "60", "--alpha", "0.1"]) == 0
    step("bounds")
    assert fdrlink.cli.main(["check", matrix, "--nulls", "0,1"]) == 0
    step("check")
    assert fdrlink.cli.main(["run", config, "--reps", "20", "--out", out]) == 0
    step("run config.json")
from fdrlink import IidUniform, InformedAdversary, McConfig, estimate_fdr, fdp_values
estimate_fdr(IidUniform(20, 80), InformedAdversary(), "step_up", 0.1, McConfig(300, 1))
step("iid estimate")
two_sided = IidUniform(20, 80, sided="two")
estimate_fdr(two_sided, None, "step_up", 0.1, McConfig(300, 1))
estimate_fdr(two_sided, InformedAdversary(), "step_up", 0.1, McConfig(300, 1))
step("two-sided iid estimates")
import numpy as np
from fdrlink.adversaries import anchor_choice
# Ratios 1/1 and 2/2 tie in floats; the exact refine keeps rank 2.
assert anchor_choice(np.array([[0.005, 0.015]]), 10, 0.1)[0].tolist() == [2]
step("float-tied anchor row")
fdp_values(IidUniform(300, 30), None, "step_up", 0.1, McConfig(600, 1, workers=2))
step("lane run")
from fdrlink import EquicorrelatedNormal
EquicorrelatedNormal(5, 0, 0.3).draw(np.random.default_rng(0), 2)
step("equicorrelated draw")
estimate_fdr(EquicorrelatedNormal(20, 5, 0.3, sided="two"), InformedAdversary(), "step_up",
             0.1, McConfig(300, 1))
EquicorrelatedNormal(20, 5, 0.3).cuts(0.1 * np.arange(26.0) / 25)
step("two-sided Gaussian estimate and cuts")
with contextlib.redirect_stdout(io.StringIO()):
    for preset in ("E5", "E6", "E7"):
        assert fdrlink.cli.main(["run", preset, "--reps", "20", "--out", out]) == 0
step("run E5-E7")
import json
print(json.dumps(loaded))
"""


def test_no_step_loads_scipy(tmp_path):
    """And every other watched module only on its own first use."""
    matrix = tmp_path / "m.txt"
    matrix.write_text("1.0 0.5\n0.5 1.0\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schema": 1, "name": "cfg", "alpha_grid": [0.1],
                                  "generator": {"type": "iid_uniform", "n0": 20, "n1": 5},
                                  "adversary": {"type": "informed"}}))
    src = str(Path(fdrlink.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _STEPS, str(tmp_path / "out"), str(matrix),
                           str(config)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cli = ["argparse", "csv"]
    cli_json = ["json", "argparse", "csv"]
    lanes = ["concurrent.futures", "logging", "json", "argparse", "csv"]
    assert json.loads(proc.stdout) == {
        "import": [], "run E4": cli, "bounds": cli, "check": cli,
        "run config.json": cli_json, "iid estimate": cli_json,
        "two-sided iid estimates": cli_json, "float-tied anchor row": cli_json,
        "lane run": lanes, "equicorrelated draw": lanes,
        "two-sided Gaussian estimate and cuts": lanes, "run E5-E7": lanes,
    }


def _ulps(a, b):
    """The ulp distance of float64 arrays, across zero too: their bit
    patterns mapped onto one integer order."""
    def order(v):
        bits = v.view(np.int64)
        return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)
    return np.abs(order(a) - order(b))


def test_normal_kernels_are_within_4_ulps_of_scipy():
    """scipy's ``ndtr``/``ndtri`` are the oracle: the Cephes ports differ
    from them only through numpy's ``exp`` and ``log``."""
    rng = np.random.default_rng(1812)
    special_x = np.array([-np.inf, np.inf, np.nan, -40.0, 40.0, 0.0, -0.0])
    special_p = np.array([0.0, 1.0, 5e-324, 1 - 2**-53, np.nan, -0.0, -1e-300, 1.5, np.inf])
    x = np.concatenate([special_x, [-38.5, -10.0], np.linspace(-8.0, 8.0, 1601),
                        [10.0, 38.5], rng.uniform(-40.0, 40.0, 10**6)])
    low = np.logspace(-323.0, np.log10(0.5), 5 * 10**5)
    p = np.concatenate([special_p, [1e-300, 1e-100, 1e-17], np.linspace(1e-6, 1 - 1e-6, 999),
                        [1 - 1e-12], low, 1.0 - low])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, quantile = normal_cdf(x), normal_quantile(p)
        scalars = normal_cdf(-3.25), normal_quantile(0.025)
    assert cdf.shape == x.shape and quantile.shape == p.shape
    assert all(type(v) is np.float64 for v in scalars)
    assert abs(scalars[0] - ndtr(-3.25)) <= 1e-15 and abs(scalars[1] - ndtri(0.025)) <= 1e-15
    for ours, oracle in ((cdf[:special_x.size], ndtr(special_x)),
                         (quantile[:special_p.size], ndtri(special_p))):
        nan = np.isnan(oracle)
        assert np.array_equal(np.isnan(ours), nan)
        assert ours[~nan].tobytes() == oracle[~nan].tobytes()  # signed zeros too
    assert _ulps(cdf[special_x.size:], ndtr(x[special_x.size:])).max() <= 4
    assert _ulps(quantile[special_p.size:], ndtri(p[special_p.size:])).max() <= 4
