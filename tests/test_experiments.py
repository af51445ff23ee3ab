"""Tests for the experiment runner, config handling, and the CLI."""

import csv
import errno
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from fdrlink import (BlockDependent, EquicorrelatedNormal, FixedZerosAdversary, IidUniform,
                     McConfig, PrdnGaussian, TwoSidedWrap)
from fdrlink.adversaries import AdversarySpec
from fdrlink.cli import main
from fdrlink.dependence import GeneratorSpec
from fdrlink.experiments import (
    _ADVERSARIES,
    _GENERATORS,
    _config_keys,
    ConfigError,
    ExperimentConfig,
    OutputError,
    PRESETS,
    UnknownPresetError,
    consistency_curve,
    curve_is_decreasing,
    emit_series,
    load_config,
    load_matrix,
    render_svg_line_chart,
    run,
    write_csv,
)
from fdrlink.bounds import guo_rao_reference


class TestConfigParsing:
    def test_minimal_preset_config(self):
        cfg = load_config({"schema": 1, "preset": "E4"}, env={})
        assert cfg.preset == "E4" and cfg.reps == 20_000

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"schema": 1, "preset": "E4", "mystery": 2}, env={})

    def test_schema_required(self):
        with pytest.raises(ConfigError):
            load_config({"preset": "E4"}, env={})
        with pytest.raises(ConfigError):
            load_config({"schema": 2, "preset": "E4"}, env={})
        for schema in (True, 1.0):  # both equal 1
            with pytest.raises(ConfigError, match="schema must be the integer 1"):
                load_config({"schema": schema, "preset": "E4"}, env={})

    @pytest.mark.parametrize("registry, kind", [
        *((_GENERATORS, kind) for kind in _GENERATORS),
        *((_ADVERSARIES, kind) for kind in _ADVERSARIES),
    ])
    def test_config_keys_are_constructor_arguments(self, registry, kind):
        cls = registry[kind]
        params = set(inspect.signature(cls).parameters)
        if cls is PrdnGaussian:
            params = params - {"sigma", "mu"} | {"sigma_file"}
        assert _config_keys(cls) == params

    def test_every_spec_class_has_a_config_type(self):
        # two_sided_wrap builds a spec of its inner type.
        assert set(_GENERATORS.values()) - {TwoSidedWrap} == set(typing.get_args(GeneratorSpec))
        assert set(_ADVERSARIES.values()) == set(typing.get_args(AdversarySpec))

    def test_preset_takes_no_custom_fields(self):
        with pytest.raises(ConfigError, match="a preset config takes no procedure"):
            ExperimentConfig(preset="E1", procedure="bogus")
        with pytest.raises(ConfigError, match="generator, alpha_grid"):
            ExperimentConfig(preset="E1", generator=IidUniform(3), alpha_grid=(0.1,))
        with pytest.raises(ConfigError, match="preset must be a string"):
            ExperimentConfig(preset=["E1"])

    def test_env_seed_override_and_cli_precedence(self):
        doc = {"schema": 1, "preset": "E4", "master_seed": 1}
        assert load_config(doc, env={}).master_seed == 1
        assert load_config(doc, env={"FDRLINK_SEED": "77"}).master_seed == 77
        cfg = load_config(doc, env={"FDRLINK_SEED": "77"}, overrides={"master_seed": 5})
        assert cfg.master_seed == 5
        with pytest.raises(ConfigError):
            load_config(doc, env={"FDRLINK_SEED": "abc"})

    def test_generator_and_adversary_subconfigs(self):
        doc = {
            "schema": 1,
            "name": "custom_run",
            "generator": {"type": "two_sided_wrap",
                          "inner": {"type": "equicorrelated_normal", "n0": 6,
                                    "n1": 2, "rho": 0.2}},
            "adversary": {"type": "fixed_zeros", "zeros": 1},
            "alpha_grid": [0.1],
            "reps": 50,
        }
        cfg = load_config(doc, env={})
        assert type(cfg.generator) is EquicorrelatedNormal and cfg.generator.sided == "two"
        assert cfg.generator.n == 8
        assert cfg.adversary.zeros == 1

    def test_bad_subconfigs(self):
        base = {"schema": 1, "alpha_grid": [0.1], "reps": 10}
        with pytest.raises(ConfigError):
            load_config({**base, "generator": {"type": "warp"}}, env={})
        with pytest.raises(ConfigError, match="unknown generator type"):
            load_config({**base, "generator": {"type": ["warp"]}}, env={})
        with pytest.raises(ConfigError):
            load_config({**base, "generator": {"type": "iid_uniform", "n0": 4, "zap": 1}},
                        env={})
        with pytest.raises(ConfigError):
            load_config({**base,
                         "generator": {"type": "iid_uniform", "n0": 4},
                         "adversary": {"type": "sneaky"}}, env={})

    def test_custom_needs_generator_and_grid(self):
        with pytest.raises(ConfigError):
            load_config({"schema": 1, "name": "x", "alpha_grid": [0.1]}, env={})
        with pytest.raises(ConfigError):
            ExperimentConfig(generator=IidUniform(3, 0), alpha_grid=())

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_long_name_is_not_a_path(self):
        with pytest.raises(ConfigError):
            load_config("x" * 300, env={})


class TestOutputs:
    def test_csv_format(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ("a", "b"), [[1.0 / 3.0, "x,y"], [2, True]])
        text = path.read_bytes().decode()
        lines = text.split("\r\n")
        assert lines[0] == "a,b"
        assert lines[1] == '0.33333333333333331,"x,y"'
        assert lines[2] == "2,true"

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OutputError):
            write_csv(tmp_path / "x.csv", ("a",), [[1]])
        assert list(tmp_path.iterdir()) == []

    def test_series_and_svg(self, tmp_path):
        xs = [0.1, 0.2]
        series = {"one": [0.5, 0.6], "two": [0.1, 0.2]}
        tsv = emit_series(tmp_path / "s.tsv", "alpha", xs, series)
        body = tsv.read_text().splitlines()
        assert body[0] == "alpha\tone\ttwo"
        svg = render_svg_line_chart(tmp_path / "s.svg", "title", xs, series)
        content = svg.read_text()
        assert content.startswith("<svg") and "polyline" in content

    def test_load_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0 0.5\n0.5 1.0\n")
        mat = load_matrix(path)
        assert np.allclose(mat, [[1.0, 0.5], [0.5, 1.0]])
        path.write_text("1.0 0.5\n0.5\n")
        with pytest.raises(ConfigError):
            load_matrix(path)


class TestConsistencyCurve:
    def test_two_sided_class_stays_below_twice_alpha(self):
        members = {
            f"rho={rho}": TwoSidedWrap(EquicorrelatedNormal(30, 0, rho))
            for rho in (-1.0 / 29, 0.0, 0.5)
        }
        rows = consistency_curve(members, (0.2, 0.1, 0.05), McConfig(6_000, 3))
        for row in rows:
            assert row["sup_fdr"] <= 2.0 * row["alpha"] + 3.0 * row["sup_stderr"]
        assert curve_is_decreasing(rows)

    def test_a_rise_beyond_three_stderrs_is_not_decreasing(self):
        def rows(fdr_at_small_alpha):
            return [dict(alpha=0.2, sup_fdr=0.10, sup_stderr=0.01),
                    dict(alpha=0.05, sup_fdr=fdr_at_small_alpha, sup_stderr=0.01)]

        assert curve_is_decreasing(rows(0.14))  # within 3 * hypot(0.01, 0.01)
        assert not curve_is_decreasing(rows(0.15))

    def test_block_class_stays_below_block_size_times_alpha(self):
        members = {"m=20": BlockDependent((3,) * 20), "m=8": BlockDependent((3,) * 8)}
        rows = consistency_curve(members, (0.2, 0.1), McConfig(6_000, 5))
        for row in rows:
            assert row["sup_fdr"] <= 3.0 * row["alpha"] + 3.0 * row["sup_stderr"]

    def test_reference_curve_does_not_vanish(self):
        # The worst-case reference at n = 1e4 stays order-one on this grid.
        values = [guo_rao_reference(10_000, a) for a in (0.2, 0.1, 0.05, 0.02)]
        assert values[0] == 1.0
        assert min(values) > 0.15

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            consistency_curve({}, (0.1,), McConfig(10, 0))
        with pytest.raises(ValueError):
            consistency_curve({"a": IidUniform(3, 0)}, (), McConfig(10, 0))


# Each preset's files and CSV headers, and for a preset with a pass column,
# the bound that column tests the estimate against.
_PRESET_FILES = {
    "E1": {"E1_prdn_envelope.csv": "alpha,fdr_mean,fdr_stderr,prdn_bound,pass"},
    "E2": {"E2_tightness.csv": "alpha,effective_level,fdr_mean,fdr_stderr,limit_mean,"
                               "limit_stderr,upper_bound,tightness_ratio"},
    "E3": {"E3_bonferroni_masked.csv": "strategy,alpha,fdr_mean,fdr_stderr,envelope,pass"},
    "E4": {"E4_improvement.csv": "n,n0,pi0,alpha,bound_new,bound_log,improved"},
    "E5": {"E5_consistency.csv": "class,alpha,sup_fdr,sup_stderr,member,decreasing_flag",
           "E5_consistency.tsv": "alpha\tequicorrelated_one_sided\tequicorrelated_two_sided"
                                 "\tblock_b3\tvanishing_null_informed\tguo_rao_reference_n1e4",
           "E5_consistency.svg": '<svg xmlns="http://www.w3.org/2000/svg" width="640" '
                                 'height="400">'},
    "E6": {"E6_linking.csv": "generator,adversary,alpha,fdr_mean,fdr_stderr,link_bound,"
                             "slack,pass"},
    "E7": {"E7_fdx.csv": "generator,alpha,gamma,fdx_mean,fdx_stderr,fdx_bound,pass"},
    "E8": {"E8_structural.csv": "matrix,n,n0,prdn,prds,mtp2_feasible,signs"},
}
_PASS_BOUNDS = {"E1": "prdn_bound", "E3": "envelope", "E6": "link_bound", "E7": "fdx_bound"}


def _run_preset(name: str, out: Path, workers=None) -> dict[str, bytes]:
    cfg = ExperimentConfig(preset=name, reps=300, master_seed=7, out_dir=out, workers=workers)
    return {path.name: path.read_bytes() for path in run(cfg)}


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_every_preset_runs(self, tmp_path, name):
        files = _run_preset(name, tmp_path)
        assert {f: data.decode().splitlines()[0] for f, data in files.items()} == \
            _PRESET_FILES[name]
        fdp = "fdx" if name == "E7" else "fdr"
        for row in csv.DictReader(files[next(iter(_PRESET_FILES[name]))].decode().splitlines()):
            if name in _PASS_BOUNDS:
                mean, stderr, bound = (float(row[key]) for key in
                                       (f"{fdp}_mean", f"{fdp}_stderr", _PASS_BOUNDS[name]))
                assert row["pass"] == ("true" if mean <= bound + 3 * stderr else "false")
            if name == "E6":
                assert float(row["slack"]) == float(row["link_bound"]) - float(row["fdr_mean"])
            if name == "E2":
                assert float(row["tightness_ratio"]) == \
                    float(row["fdr_mean"]) / float(row["upper_bound"])
        if name == "E2":  # the 1024-wide limit rows start lanes at workers=2
            assert _run_preset(name, tmp_path / "w1", 1) == _run_preset(name, tmp_path / "w2", 2)

    def test_e4_runs_and_improves_everywhere(self, tmp_path):
        cfg = load_config({"schema": 1, "preset": "E4", "out_dir": str(tmp_path)}, env={})
        files = run(cfg)
        text = files[0].read_bytes().decode()
        rows = text.strip().split("\r\n")[1:]
        assert rows and all(row.endswith(",true") for row in rows)

    def test_e4_byte_identical_reruns(self, tmp_path):
        cfg_a = load_config({"schema": 1, "preset": "E4", "out_dir": str(tmp_path / "a")},
                            env={})
        cfg_b = load_config({"schema": 1, "preset": "E4", "out_dir": str(tmp_path / "b")},
                            env={})
        first = run(cfg_a)[0].read_bytes()
        second = run(cfg_b)[0].read_bytes()
        assert first == second

    def test_e1_byte_identical_through_the_mc_path(self, tmp_path):
        docs = [{"schema": 1, "preset": "E1", "reps": 500, "out_dir": str(tmp_path / d)}
                for d in ("a", "b")]
        first = run(load_config(docs[0], env={}))[0].read_bytes()
        second = run(load_config(docs[1], env={}))[0].read_bytes()
        assert first == second

    def test_e1_passes_at_small_reps(self, tmp_path):
        cfg = load_config({"schema": 1, "preset": "E1", "reps": 2_000,
                           "out_dir": str(tmp_path)}, env={})
        text = run(cfg)[0].read_bytes().decode()
        rows = text.strip().split("\r\n")[1:]
        assert len(rows) == 4 and all(row.endswith(",true") for row in rows)

    def test_e8_structural_table(self, tmp_path):
        cfg = load_config({"schema": 1, "preset": "E8", "out_dir": str(tmp_path)}, env={})
        text = run(cfg)[0].read_text()
        assert "negative_within_nulls,3,2,false,false" in text
        assert "equicorrelated_neg_3,3,3,false,false,false," in text
        assert "identity_3,3,3,true,true,true,+++" in text

    def test_e5_emits_csv_tsv_svg(self, tmp_path):
        cfg = load_config({"schema": 1, "preset": "E5", "reps": 400,
                           "out_dir": str(tmp_path)}, env={})
        files = {p.suffix for p in run(cfg)}
        assert files == {".csv", ".tsv", ".svg"}

    def test_unknown_preset(self):
        cfg = ExperimentConfig(preset="E99")
        with pytest.raises(UnknownPresetError):
            run(cfg)

    def test_custom_experiment(self, tmp_path):
        doc = {
            "schema": 1,
            "name": "tiny",
            "generator": {"type": "iid_uniform", "n0": 10, "n1": 20},
            "adversary": {"type": "informed"},
            "alpha_grid": [0.1, 0.2],
            "gamma_grid": [0.5],
            "reps": 300,
            "out_dir": str(tmp_path),
        }
        files = run(load_config(doc, env={}))
        text = files[0].read_text()
        assert text.count("fdr,") == 2 and text.count("fdx,") == 2


class TestCli:
    def test_bounds_to_stdout(self, capsys):
        code = main(["bounds", "--n", "100", "--n0", "60", "--alpha", "0.05", "0.1",
                     "--gamma", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("bound_name,")
        assert "fdx,100,60,0.59999999999999998,0.10000000000000001,0.25," in out

    def test_bounds_out_file_holds_the_stdout_csv(self, tmp_path, capsys):
        args = ["bounds", "--n", "100", "--n0", "60", "--alpha", "0.05", "0.1", "--gamma", "0.25"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "bounds.csv"
        assert main([*args, "--out", str(target)]) == 0
        assert capsys.readouterr().out == f"{target}\n"
        assert target.read_bytes() == stdout.encode()

    def test_check_matrix(self, tmp_path, capsys):
        matrix = tmp_path / "m.txt"
        matrix.write_text("1.0 0.5 0.0\n0.5 1.0 -0.2\n0.0 -0.2 1.0\n")
        code = main(["check", str(matrix), "--nulls", "0,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "prdn_one_sided: True" in out
        assert "prds_one_sided: False" in out
        assert "mtp2_two_sided: feasible" in out

    @pytest.mark.parametrize("nulls", ["0,5", "-1", "0,0", ",", "0,x"])
    def test_check_rejects_bad_nulls(self, tmp_path, capsys, nulls):
        matrix = tmp_path / "m.txt"
        matrix.write_text("1.0 0.5 0.0\n0.5 1.0 -0.2\n0.0 -0.2 1.0\n")
        assert main(["check", str(matrix), "--nulls", nulls]) == 2
        assert "--nulls" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("1.0 x\n0.5 1.0\n", "non-numeric"),
        ("1.0 nan\nnan 1.0\n", "non-finite"),
        ("1 2\n3 1\n", "symmetric"),
        ("1 1\n1 1\n", "singular"),
    ], ids=["token", "nan", "asymmetric", "singular"])
    def test_check_rejects_bad_matrices(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "m.txt"
        matrix.write_text(text)
        assert main(["check", str(matrix)]) == 2
        assert message in capsys.readouterr().err

    def test_check_missing_matrix_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_preset_via_cli(self, tmp_path, capsys):
        code = main(["run", "E4", "--out", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed and Path(printed[0]).exists()

    def test_unknown_preset_exit_code(self, capsys):
        assert main(["run", "E99"]) == 3

    def test_long_target_is_an_unknown_preset(self, capsys):
        # Probing a 300-character name as a path raises ENAMETOOLONG.
        assert main(["run", "x" * 300]) == 3
        assert "neither a preset" in capsys.readouterr().err

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": 1, \"preset\": \"E4\", \"bogus\": true}")
        assert main(["run", str(bad)]) == 2
        # No partial outputs appear on config failure.
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("workers", ["two", -3, 0, True, 1.5])
    def test_bad_workers_exit_code(self, tmp_path, capsys, workers):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "preset": "E1", "workers": workers,
                                   "out_dir": str(tmp_path / "out")}))
        assert main(["run", str(cfg)]) == 2
        assert "workers must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field", [
        ("reps", 2.5, "reps"), ("reps", True, "reps"), ("reps", "abc", "reps"),
        ("reps", None, "reps"), ("master_seed", "x", "master_seed"),
        ("alpha_grid", ["x"], "alpha_grid"), ("alpha_grid", [None], "alpha_grid"),
        ("gamma_grid", ["x"], "gamma_grid"),
        ("generator", {"type": "iid_uniform", "n0": 2.5}, "n0"),
        ("generator", {"type": "iid_uniform", "n0": 5, "n1": True}, "n1"),
        ("adversary", {"type": "fixed_zeros", "zeros": 1.9}, "zeros"),
        ("generator", {"type": "prdn_gaussian", "sigma_file": "s.txt", "null_idx": [0, 1.5]},
         "null_idx"),
        ("generator", {"type": "block", "block_sizes": [2, True]}, "block_sizes"),
        ("generator", {"type": "equicorrelated_normal", "n0": 5, "rho": "0.5"}, "rho"),
        ("generator", {"type": "block", "block_sizes": [2], "within": "equicorrelated",
                       "rho_w": [0.5]}, "rho_w"),
        ("generator", {"type": "equicorrelated_normal", "n0": 5, "mu_alt": False}, "mu_alt"),
        ("generator", {"type": "equicorrelated_normal", "n0": 5, "mu_alt": float("nan")},
         "mu_alt"),
    ], ids=["reps-2.5", "reps-true", "reps-abc", "reps-null", "master_seed-x", "alpha_grid-x",
            "alpha_grid-null", "gamma_grid-x", "n0-2.5", "n1-true", "zeros-1.9",
            "null_idx-1.5", "block_sizes-true", "rho-text", "rho_w-list", "mu_alt-false",
            "mu_alt-nan"])
    def test_bad_number_exit_code(self, tmp_path, capsys, key, value, field):
        if isinstance(value, dict) and "sigma_file" in value:
            # A readable matrix, so that PrdnGaussian gets to check null_idx.
            (tmp_path / "s.txt").write_text("1 0\n0 1\n")
            value = {**value, "sigma_file": str(tmp_path / "s.txt")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "preset": "E1", key: value,
                                   "out_dir": str(tmp_path / "out")}))
        assert main(["run", str(cfg)]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"procedure": "bogus"}, "unknown procedure"),
        ({"procedure": "most_anti_conservative", "adversary": None}, "needs an informed"),
        ({"generator": {"type": "block", "block_sizes": [2, 2], "null_mask": [1, 0, 2, "x"]}},
         "null_mask must be"),
        ({"out_dir": 5}, "out_dir must be"),
        ({"name": "../escape"}, "name must be a plain file name"),
        ({"generator": {"type": "iid_uniform", "n0": 3, "n1": 2},
          "adversary": {"type": "fixed_zeros", "zeros": 5}}, "cannot plant 5 zeros"),
        ({"generator": {"type": "iid_uniform", "n0": 1, "n1": 2},
          "adversary": {"type": "bonferroni_masked"}}, "at least two nulls"),
        ({"generator": {"type": "block", "block_sizes": [2, 2], "null_mask": [False] * 4}},
         "no null components"),
        ({"generator": {"type": "prdn_gaussian", "null_idx": [0]}},
         "generator type 'prdn_gaussian' needs a sigma_file"),
        ({"generator": {"type": "block", "block_sizes": [3, 3], "rho_w": 0.5}},
         "identical blocks take no rho_w"),
        ({"generator": {"type": "equicorrelated_normal", "n0": 3, "sided": "left"}},
         "sided must be 'one' or 'two'"),
        ({"generator": {"type": "block", "block_sizes": [3], "within": "nested"}},
         "within must be"),
        ({"generator": [{"type": "iid_uniform", "n0": 3}]}, "generator config must be an object"),
        ({"alpha_grid": 0.1}, "alpha_grid must be a list"),
        ({"generator": {"type": "two_sided_wrap", "inner": {
            "type": "equicorrelated_normal", "n0": 3, "sided": "two"}}}, "two-sided already"),
        ({"generator": {"type": "two_sided_wrap", "inner": {
            "type": "two_sided_wrap", "inner": {"type": "iid_uniform", "n0": 3}}}},
         "two-sided already"),
    ], ids=["procedure-bogus", "mac-without-zeros", "null_mask-ints", "out_dir-int",
            "name-with-dir", "zeros-above-n1", "masked-one-null", "block-no-nulls",
            "prdn-without-sigma_file", "identical-with-rho_w",
            "sided-left", "within-nested", "generator-list", "alpha_grid-number",
            "fold-of-two-sided", "fold-of-fold"])
    def test_bad_custom_field_exit_code(self, tmp_path, capsys, changes, message):
        doc = {"schema": 1, "name": "tiny", "generator": {"type": "iid_uniform", "n0": 10},
               "adversary": {"type": "informed"}, "alpha_grid": [0.1], "reps": 10,
               "out_dir": str(tmp_path / "out")}
        doc.update(changes)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key, value", [
        ("generator", {"type": "iid_uniform", "n0": 3}), ("adversary", {"type": "informed"}),
        ("procedure", "step_down"), ("alpha_grid", [0.3]), ("gamma_grid", [0.5]),
        # Keys are rejected even at their defaults.
        ("adversary", None), ("procedure", "step_up"), ("alpha_grid", []), ("gamma_grid", []),
    ])
    def test_preset_rejects_custom_keys(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "preset": "E4", key: value,
                                   "out_dir": str(tmp_path / "out")}))
        assert main(["run", str(cfg)]) == 2
        assert f"a preset config takes no {key}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("content, message", [
        (None, "Is a directory"),
        (b"\xff\xfe{\x00}\x00", "codec can't decode"),
        (b'{"schema": 1, "alpha_grid": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "recursion"),
        (b'[{"schema": 1, "preset": "E4"}]', "must be a JSON object"),
    ], ids=["directory", "utf-16", "deep-nesting", "json-list"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, monkeypatch, content, message):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "cfg"
        if content is None:
            target.mkdir()
        else:
            target.write_bytes(content)
        assert main(["run", str(target)]) == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("args", [
        ["--n", "0", "--n0", "0", "--alpha", "0.1"],
        ["--n", "5", "--n0", "10", "--alpha", "0.1"],
        ["--n", "10", "--n0", "5", "--alpha", "1.5"],
        ["--n", "10", "--n0", "5", "--alpha", "0.1", "--gamma", "0"],
    ], ids=["n-zero", "n0-above-n", "alpha-1.5", "gamma-zero"])
    def test_bounds_rejects_bad_numbers(self, capsys, args):
        assert main(["bounds", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("build", [
        lambda: IidUniform(2.5, 1),
        lambda: IidUniform(3, True),
        lambda: IidUniform(np.int64(3), 1),
        lambda: EquicorrelatedNormal(3, True, 0.2),
        lambda: EquicorrelatedNormal(3.0, 0, 0.2),
        lambda: FixedZerosAdversary(1.9),
        lambda: FixedZerosAdversary(-1),
        lambda: BlockDependent((2.5,)),
        lambda: BlockDependent((2, True)),
        lambda: PrdnGaussian(np.eye(3), (0, 1.0)),
    ], ids=["iid-n0-2.5", "iid-n1-true", "iid-n0-int64", "equi-n1-true", "equi-n0-3.0",
            "zeros-1.9", "zeros-negative", "block-2.5", "block-true", "prdn-1.0"])
    def test_api_counts_must_be_plain_integers(self, build):
        # The config loader's (and McConfig's) rule, applied where the
        # Python API builds specs.
        with pytest.raises(ValueError):
            build()

    def test_unwritable_output_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        target = blocker / "sub"  # path through a regular file
        assert main(["run", "E4", "--out", str(target)]) == 4

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FDRLINK_SEED", "123")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "schema": 1,
            "name": "seeded",
            "generator": {"type": "iid_uniform", "n0": 5, "n1": 0},
            "alpha_grid": [0.1],
            "reps": 50,
            "out_dir": str(tmp_path / "out"),
        }))
        cfg = load_config(cfg_file)
        assert cfg.master_seed == 123

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fdrlink.cli", "bounds", "--n", "10", "--n0", "5",
             "--alpha", "0.1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("bound_name,")
