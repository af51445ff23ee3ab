"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import fdrlink.mc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = 0.002


def _tiny(name, tmp_path, **kwargs):
    return workloads.build(name, 7, tmp_path / "cli", TINY, **kwargs)


def test_spec_follows_its_own_rules():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", ["mc-iid", "dependent-link"])
def test_in_process_metric_names_and_units(name, tmp_path):
    workload = _tiny(name, tmp_path)
    passes = run.run_passes(workload, 0.0, True, tmp_path)
    assert [("summary" in p) for p in passes] == [False, True]
    assert all(p["failed"] == 0 for p in passes)

    layer = run.with_units(run.per_layer(passes), SPEC["per_layer"])
    assert {k: v["unit"] for k, v in layer.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer["mc.seeds_per_rep"]["value"] == 1.0
    assert layer["experiments.reps_drawn"]["value"] == 0
    assert layer["dependence.calls"]["value"] > 0

    e2e = run.with_units(run.end_to_end(passes, [0.5, 0.25]), SPEC["end_to_end"])
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())
    assert e2e["setup_s"]["value"] == 0.375


def test_presets_cli_pass_through_the_shim(tmp_path):
    per_rep = workloads.count_preset_reps(7, tmp_path / "count")
    assert per_rep["E4"] == per_rep["E8"] == 0 and per_rep["E1"] == 4
    workload = _tiny("presets-cli", tmp_path, reps_per_rep=per_rep)
    passes = run.run_passes(workload, 0.0, True, tmp_path)
    assert all(p["failed"] == 0 for p in passes)
    layer = run.per_layer(passes)
    assert layer["experiments.estimate_calls"] > 0
    pooled = per_rep[workloads.POOLED_PRESET]
    assert layer["experiments.reps_drawn"] == (sum(per_rep.values()) + pooled) * 8
    assert layer["mc.pools_started"] > 0 and layer["mc.pool_speedup"] > 0
    assert layer["experiments.bytes_written"] > 0
    assert layer["cli.import_s"] > 0 and layer["cli.exit_nonzero"] == 0


def test_injected_failure_raises_failed_frac(tmp_path, monkeypatch):
    workload = _tiny("mc-iid", tmp_path)
    clean = run.run_pass(workload)
    assert clean["failed"] == 0

    real = fdrlink.mc.estimate_fdr

    def broken(*args, **kwargs):
        est = real(*args, **kwargs)
        return fdrlink.mc.McEstimate(math.nan, est.stderr, est.reps, est.master_seed)

    monkeypatch.setattr(fdrlink.mc, "estimate_fdr", broken)
    result = run.run_pass(workload)
    fdr_ops = [op for op in workload.ops if op.name.startswith(("c23", "iid", "equi"))]
    assert result["failed"] >= len(fdr_ops)
    assert result["failed"] / result["attempted"] > 0


def test_pooled_preset_must_match_its_single_process_run(tmp_path):
    workload = _tiny("presets-cli", tmp_path)
    ops = {op.name: op for op in workload.ops}
    single = ops["E1"].call(None)
    assert ops["E1"].check(single, {})
    pooled = ops["E1-w2"].call(None)
    assert ops["E1-w2"].check(pooled, {"E1": single}) == []

    table = pooled.out / "E1_prdn_envelope.csv"
    table.write_text(table.read_text() + "\n")  # the same rows, other bytes
    with pytest.raises(workloads.CheckError, match="different"):
        ops["E1-w2"].check(pooled, {"E1": single})


def test_e8_oracle_matches_closed_forms():
    expected = {
        "identity_3": (True, True, True),
        "negative_null_nonnull": (True, False, True),
        "negative_within_nulls": (False, False, True),
        "equicorrelated_pos_4": (True, True, True),
        "equicorrelated_neg_3": (False, False, False),
    }
    for label, (sigma, nulls) in workloads._E8_EXPLICIT.items():
        assert workloads.e8_expected(sigma, nulls) == expected[label], label


def test_self_time_and_busy_time():
    rec = spans.Recorder()
    rec.names = ["mc.estimate_fdr", "dependence.sample_null_pvalues", "mc.pool",
                 "bounds.fdr_link_bound"]
    rec.starts = [0.0, 1.0, 3.0, 3.5]
    rec.ends = [10.0, 2.0, 6.0, 4.0]
    rec.parents = [-1, 0, 0, 2]
    rec.attrs = {0: {"reps": 4}}
    assert spans.self_times(rec) == [6.0, 1.0, 2.5, 0.5]
    summary = spans.summarize(rec)
    assert summary["mc.busy_s"] == 10.0 and summary["mc.self_s"] == 8.5
    assert summary["dependence.busy_s"] == 1.0 and summary["bounds.calls"] == 1
    assert summary["reps"] == 4 and summary["reps_in_process"] == 0


def test_ks_z_is_small_on_a_uniform_grid():
    grid = (np.arange(1000) + 0.5) / 1000
    assert workloads.ks_z(grid) < 0.1
