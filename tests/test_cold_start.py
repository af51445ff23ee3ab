"""scipy loads on the first Gaussian draw, not with the package, and the
process pool machinery not at all.

Commands and runs that never draw a Gaussian p-value start without scipy,
and no step loads ``multiprocessing``; the fresh-interpreter test below
records, step by step, which of them is loaded.
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

# Each step runs in one interpreter, in this order, and prints which of
# scipy, concurrent.futures.process and multiprocessing are loaded after it.
_STEPS = r"""
import contextlib, io, json, sys
out, matrix = sys.argv[1], sys.argv[2]
loaded = {}
def step(name):
    loaded[name] = [m for m in ("scipy", "concurrent.futures.process", "multiprocessing")
                    if m in sys.modules]

import fdrlink, fdrlink.cli
step("import")
with contextlib.redirect_stdout(io.StringIO()):
    assert fdrlink.cli.main(["run", "E4", "--out", out]) == 0
    step("run E4")
    assert fdrlink.cli.main(["bounds", "--n", "100", "--n0", "60", "--alpha", "0.1"]) == 0
    step("bounds")
    assert fdrlink.cli.main(["check", matrix, "--nulls", "0,1"]) == 0
    step("check")
from fdrlink import IidUniform, InformedAdversary, McConfig, estimate_fdr
estimate_fdr(IidUniform(20, 80), InformedAdversary(), "step_up", 0.1, McConfig(300, 1))
step("iid estimate")
two_sided = IidUniform(20, 80, sided="two")
estimate_fdr(two_sided, None, "step_up", 0.1, McConfig(300, 1))
estimate_fdr(two_sided, InformedAdversary(), "step_up", 0.1, McConfig(300, 1))
step("two-sided iid estimates")
import numpy as np
from fdrlink import EquicorrelatedNormal
EquicorrelatedNormal(5, 0, 0.3).draw(np.random.default_rng(0), 2)
step("equicorrelated draw")
print(json.dumps(loaded))
"""


def test_scipy_loads_only_on_the_first_gaussian_draw(tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("1.0 0.5\n0.5 1.0\n")
    src = str(Path(fdrlink.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _STEPS, str(tmp_path / "out"), str(matrix)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "run E4": [], "bounds": [], "check": [], "iid estimate": [],
        "two-sided iid estimates": [], "equicorrelated draw": ["scipy"],
    }


def test_normal_wrappers_are_scipy_bit_for_bit():
    x = np.concatenate([[-np.inf, -40.0, -38.5, -10.0], np.linspace(-8.0, 8.0, 1601),
                        [10.0, 38.5, 40.0, np.inf]])
    p = np.concatenate([[0.0, 5e-324, 1e-300, 1e-100, 1e-17], np.linspace(1e-6, 1 - 1e-6, 999),
                        [1 - 1e-12, 1 - 2**-53, 1.0]])
    assert normal_cdf(x).tobytes() == ndtr(x).tobytes()
    assert normal_quantile(p).tobytes() == ndtri(p).tobytes()
    assert normal_cdf(-3.25) == ndtr(-3.25) and normal_quantile(0.025) == ndtri(0.025)
