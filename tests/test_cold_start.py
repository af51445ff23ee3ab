"""scipy, the thread pool, Fractions, JSON, argparse and CSV load on first
use, not with the package, and the process pool machinery not at all.

``import fdrlink, fdrlink.cli`` loads none of them; a command loads only
what it runs (argparse to parse, csv to write, json to read a config file,
the thread pool when a run starts lanes, scipy on the first Gaussian draw),
and no step loads ``fractions`` or ``multiprocessing``. The fresh-interpreter
test below records, step by step, which of them is loaded.
"""

import json
import os
import subprocess
import sys
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
import json
print(json.dumps(loaded))
"""


def test_scipy_loads_only_on_the_first_gaussian_draw(tmp_path):
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
        "lane run": lanes, "equicorrelated draw": ["scipy"] + lanes,
    }


def test_normal_wrappers_are_scipy_bit_for_bit():
    x = np.concatenate([[-np.inf, -40.0, -38.5, -10.0], np.linspace(-8.0, 8.0, 1601),
                        [10.0, 38.5, 40.0, np.inf]])
    p = np.concatenate([[0.0, 5e-324, 1e-300, 1e-100, 1e-17], np.linspace(1e-6, 1 - 1e-6, 999),
                        [1 - 1e-12, 1 - 2**-53, 1.0]])
    assert normal_cdf(x).tobytes() == ndtr(x).tobytes()
    assert normal_quantile(p).tobytes() == ndtri(p).tobytes()
    assert normal_cdf(-3.25) == ndtr(-3.25) and normal_quantile(0.025) == ndtri(0.025)
