"""Tests for the command-line interface: parsing, artifacts, exit codes."""

import argparse
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from fritpid import cli
from fritpid.benchlab import builtin_case, collect_data
from fritpid.folib import ControllerKind, ControllerTemplate, realize
from fritpid.cli import (
    DEFAULT_SEEDS,
    EXIT_ASSUMPTION,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    _cell,
    _config_payload,
    _jsonable,
    _parse_seed_list,
    _with_flags,
    load_data_record,
    load_run_config,
    main,
)
from fritpid.lti_core import DiscreteZpk
from fritpid.swarm_opt import PsoConfig

from .strategies import run_fresh_python

SMOKE = ["--swarm-size", "8", "--iterations", "12"]


# ---------------------------------------------------------------------------
# shared artifact runs (one reproduce per example3 family, reused below)


@pytest.fixture(scope="module")
def repro_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    assert main(["reproduce", "example3_io", "--seeds", "2", *SMOKE, "--out-dir", str(out)]) == EXIT_OK
    assert main(["reproduce", "example3_fo", "--seeds", "2", *SMOKE, "--out-dir", str(out)]) == EXIT_OK
    return out


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# pure parsing helpers


class TestSeedParsing:
    def test_range_form(self):
        assert _parse_seed_list("1..5") == (1, 2, 3, 4, 5)

    def test_comma_form(self):
        assert _parse_seed_list("4, 8,15") == (4, 8, 15)
        assert _parse_seed_list(" 7 ") == (7,)

    @pytest.mark.parametrize("bad", ["5..3", "a", "", "1..b", ","])
    def test_malformed_lists_rejected(self, bad):
        with pytest.raises(CliError) as err:
            _parse_seed_list(bad)
        assert err.value.exit_code == EXIT_USAGE

    def test_flag_beats_config(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json", seeds=[2, 9]))
        flags = argparse.Namespace(seeds="3", swarm_size=None, iterations=None)
        assert _with_flags(cfg, flags).seeds == (3,)

    def test_default_seed_set(self, tmp_path):
        assert load_run_config(write_config(tmp_path / "c.json")).seeds == DEFAULT_SEEDS

    @pytest.mark.parametrize("flag", ["-1..2", "", "1,,2", "1,", ",1", "1..0"])
    def test_invalid_seed_flag_is_a_usage_error(self, tmp_path, flag):
        # a negative seed used to reach the swarm and exit as a numeric
        # failure; an empty flag used to fall back to the config's seeds,
        # and an empty list item used to be dropped
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        flags = argparse.Namespace(seeds=flag, swarm_size=None, iterations=None)
        with pytest.raises(CliError) as err:
            _with_flags(cfg, flags)
        assert err.value.exit_code == EXIT_USAGE


class TestJsonAndCsvCells:
    def test_booleans_stay_booleans(self):
        out = _jsonable({"a": np.bool_(True), "b": False})
        assert out == {"a": True, "b": False}
        assert isinstance(out["a"], bool)

    def test_complex_becomes_a_pair(self):
        assert _jsonable(1.5 - 2.0j) == [1.5, -2.0]

    def test_non_finite_floats_become_null(self):
        assert _jsonable(float("nan")) is None
        assert _jsonable({"v": np.float64("inf")}) == {"v": None}

    def test_arrays_flatten_recursively(self):
        assert _jsonable({"v": np.array([1.0, 2.0])}) == {"v": [1.0, 2.0]}

    @pytest.mark.parametrize(
        "value",
        [1.0 / 3.0, np.pi, 1e-300, 9007199254740993.0, -0.1, 5.0],
    )
    def test_csv_cells_reparse_to_the_exact_float(self, value):
        assert float(_cell(value)) == value

    def test_integer_cells_have_no_decoration(self):
        assert _cell(42) == "42"
        assert _cell(np.int64(-3)) == "-3"


# ---------------------------------------------------------------------------
# config loading


def write_config(path, **overrides):
    cfg = {
        "sample_time": 0.05,
        "controller": {"kind": "iopid"},
        "bounds": {"lower": [0.0, 0.0, 0.0], "upper": [5.0, 5.0, 5.0]},
        "reference_model": {"num": [0.5], "den": [1.0, -0.5], "sample_time": 0.05},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestLoadRunConfig:
    def test_minimal_config_loads(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        assert cfg.template.theta_dim == 3
        assert cfg.bounds.dim == 3
        assert cfg.seeds == DEFAULT_SEEDS
        assert cfg.theta0 is None and cfg.plant is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError) as err:
            load_run_config(tmp_path / "absent.json")
        assert err.value.exit_code == EXIT_USAGE

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(CliError, match="not valid JSON"):
            load_run_config(p)

    def test_missing_bounds(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sample_time": 0.05, "controller": {"kind": "iopid"},
                                 "reference_model": {"num": [0.5], "den": [1.0, -0.5],
                                                     "sample_time": 0.05}}))
        with pytest.raises(CliError, match="bounds"):
            load_run_config(p)

    def test_unknown_controller_kind(self, tmp_path):
        p = write_config(tmp_path / "c.json", controller={"kind": "pidd"})
        with pytest.raises(CliError, match="valid kinds"):
            load_run_config(p)

    def test_unknown_pso_key(self, tmp_path):
        # a misspelt key, the swarm's fixed constants, which are no settings,
        # and the one-value discretization key, which is gone
        pso_keys = "valid keys: swarm_size, max_iterations"
        cases = [
            ({"pso": {key: value}}, pso_keys)
            for key, value in (
                ("swarm", 8), ("inertia_range", [0.4, 0.9]), ("cognitive_coeff", 1.49),
                ("social_coeff", 1.49), ("stall_iterations", 40), ("tolerance", 1e-8),
            )
        ]
        cases.append((
            {"reference_model": {"num": [1.0], "den": [1.0, 1.0], "discretization": "tustin"}},
            "valid keys: num, den, sample_time, delay_samples, dead_time",
        ))
        for overrides, valid in cases:
            with pytest.raises(CliError) as err:
                load_run_config(write_config(tmp_path / "c.json", **overrides))
            assert err.value.exit_code == EXIT_USAGE
            assert valid in str(err.value)

    def test_oustaloup_block_is_rejected(self, tmp_path):
        # the ladder is fixed: the block every config.json exported before
        # carries is an unknown controller key
        block = {"order": 5, "w_b": 1e-6, "w_h": 1e3}
        for kind in ("fopid", "iopid"):
            controller = {"kind": kind, "oustaloup": block}
            with pytest.raises(CliError) as err:
                load_run_config(write_config(tmp_path / "c.json", controller=controller))
            assert err.value.exit_code == EXIT_USAGE
            assert "valid keys: kind" in str(err.value)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seeds": []},
            {"seeds": [1.7]},
            {"seeds": [-1]},
            {"pso": {"swarm_size": 8.9}},
            {"pso": {"max_iterations": "12"}},
            {"controller": {"kind": "iopid", "oustaloup": {"order": 4.5}}},
            {"reference_model": {"num": [0.5], "den": [1.0, -0.5],
                                 "sample_time": 0.05, "delay_samples": 1.5}},
            {"controller": {"kind": "iopid", "oustaloup": {"w_hh": 100.0}}},
            {"seed": [7]},
            {"seeds": [True, False]},
            {"pso": {"max_iterations": True}},
            {"sample_time": "0.05"},
            {"theta0": ["1.0", 0.0, 0.0]},
            {"bounds": {"lower": [False, 0.0, 0.0], "upper": [5.0, 5.0, 5.0]}},
            {"controller": {"kind": "iopid", "oustaloup": {"w_h": "1e3"}}},
            {"sim_time": 10**400},
            {"sim_time": math.inf},
            {"plant": {"num": [math.nan], "den": [1.0, -0.5], "sample_time": 0.05}},
            {"reference_model": {"num": [math.inf], "den": [1.0, -0.5], "sample_time": 0.05}},
            {"seeds": [1, 1]},
        ],
        ids=["no-seeds", "fractional-seed", "negative-seed", "fractional-swarm",
             "string-iterations", "fractional-order", "fractional-delay",
             "unknown-oustaloup-key", "unknown-top-level-key", "boolean-seeds",
             "boolean-iterations", "string-sample-time", "string-theta0",
             "boolean-bound", "string-band-edge", "integer-beyond-float-range",
             "infinite-sim-time", "nan-plant-num", "infinite-reference-num",
             "repeated-seed"],
    )
    def test_malformed_values_are_rejected_not_rewritten(self, tmp_path, overrides):
        with pytest.raises(CliError) as err:
            load_run_config(write_config(tmp_path / "c.json", **overrides))
        assert err.value.exit_code == EXIT_USAGE

    def test_documented_schema_names_exactly_the_accepted_keys(self):
        doc = cli.__doc__
        schema = doc[doc.index("The config schema"):]
        schema = schema[schema.index("{"):schema.index("\n    }\n")]
        documented = set(re.findall(r'"(\w+)"\s*:', schema))
        accepted = {
            *cli._CONFIG_KEYS, *cli._CONTROLLER_KEYS, *cli._BOUNDS_KEYS, *cli._TF_KEYS,
            *(f.name for f in fields(PsoConfig)),
        }
        assert documented == accepted

    def test_whole_floats_are_taken_as_integers(self, tmp_path):
        cfg = load_run_config(
            write_config(tmp_path / "c.json", seeds=[3.0], pso={"swarm_size": 8.0})
        )
        assert cfg.seeds == (3,) and cfg.pso.swarm_size == 8
        assert isinstance(cfg.seeds[0], int) and isinstance(cfg.pso.swarm_size, int)

    @pytest.mark.parametrize(
        "block, key",
        [
            ({"num": [0.5], "den": [1.0, -0.5], "sample_time": 0.05, "dead_time": 3.0},
             "dead_time"),
            ({"num": [1.0], "den": [1.0, 1.0], "delay_samples": 3}, "delay_samples"),
        ],
        ids=["dead-time-on-a-discrete-block", "delay-samples-on-a-continuous-block"],
    )
    def test_a_delay_key_of_the_other_block_kind_is_rejected(self, tmp_path, block, key):
        # either delay would otherwise be dropped without a word
        with pytest.raises(CliError, match=f"reference_model {key} applies only") as err:
            load_run_config(write_config(tmp_path / "c.json", reference_model=block))
        assert err.value.exit_code == EXIT_USAGE

    def test_bounds_must_match_the_controller_dimension(self, tmp_path):
        p = write_config(
            tmp_path / "c.json",
            bounds={"lower": [0.0, 0.0], "upper": [5.0, 5.0]},
        )
        with pytest.raises(CliError) as err:
            load_run_config(p)
        assert err.value.exit_code == EXIT_USAGE


class TestLoadDataRecord:
    def write_rows(self, path, rows, header="k,r0,u0,y0"):
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def test_valid_file(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", [f"{k},1.0,0.5,0.25" for k in range(6)])
        rec = load_data_record(p, 0.05)
        assert len(rec) == 6
        assert rec.sample_time == 0.05

    def test_wrong_header(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", ["0,1,1,1"], header="t,r,u,y")
        with pytest.raises(CliError) as err:
            load_data_record(p, 0.05)
        assert err.value.exit_code == EXIT_DATA

    def test_short_row(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", ["0,1.0,0.5,0.25", "1,1.0,0.5"])
        with pytest.raises(CliError, match="expected 4 columns"):
            load_data_record(p, 0.05)

    def test_non_contiguous_index(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", ["0,1,0,0", "2,1,0,0"])
        with pytest.raises(CliError, match="not contiguous"):
            load_data_record(p, 0.05)

    def test_unparsable_number(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", ["0,1,zero,0"])
        with pytest.raises(CliError, match="unparsable"):
            load_data_record(p, 0.05)

    def test_non_finite_value(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", ["0,1,nan,0"])
        with pytest.raises(CliError, match="non-finite"):
            load_data_record(p, 0.05)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(CliError, match="empty"):
            load_data_record(p, 0.05)

    def test_zero_reference_head_is_an_assumption_error(self, tmp_path):
        p = self.write_rows(tmp_path / "d.csv", ["0,0.0,0.5,0.25", "1,1.0,0.5,0.25"])
        with pytest.raises(CliError, match="reference head is numerically zero") as err:
            load_data_record(p, 0.05)
        assert err.value.exit_code == EXIT_ASSUMPTION


# ---------------------------------------------------------------------------
# reproduce artifacts


class TestImportGraph:
    def test_reproduce_loads_neither_scipy_signal_nor_optimize(self, tmp_path):
        # those packages (and scipy.stats, which scipy.signal pulls in)
        # take most of a process's start-up; the program needs two
        # compiled filter kernels and one Nelder-Mead, and takes them
        # without the packages
        code = (
            "import sys\n"
            "import fritpid.cli\n"
            "code = fritpid.cli.main(['reproduce', 'example3_io', '--seeds', '1',"
            f" '--swarm-size', '10', '--iterations', '5', '--out-dir', {str(tmp_path)!r}])\n"
            "print(code)\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize', 'scipy.stats')"
            " if m in sys.modules))\n"
        )
        lines = run_fresh_python(code).splitlines()
        assert lines[-2:] == [str(EXIT_OK), "[]"]
        assert (tmp_path / "example3_io" / "summary.json").exists()

    def test_reproduce_and_validate_load_only_scipys_four_kernels(self, tmp_path):
        # the scipy.linalg package pulls in numpy.f2py and numpy.testing,
        # most of what was left of a process's start-up; the program
        # calls dtrsv and dgeev from its compiled BLAS and LAPACK modules
        # and two filters from scipy.signal's, and loads those alone. The
        # FOPID validate reads the controller's zeros, so it calls dgeev
        cfg = write_config(
            tmp_path / "c.json",
            controller={"kind": "fopid"},
            bounds={"lower": [0.0] * 5, "upper": [2.0] * 5},
            plant={"num": [1.0], "den": [1.0], "sample_time": 0.05},
            sim_time=1.0,
        )
        code = (
            "import sys\n"
            "import fritpid.cli\n"
            "codes = [fritpid.cli.main(['reproduce', 'example3_fo', '--seeds', '1',"
            " '--swarm-size', '10', '--iterations', '5',"
            f" '--out-dir', {str(tmp_path / 'r')!r}]),"
            f" fritpid.cli.main(['validate', '1,1,0.5,0,1', '--config', {str(cfg)!r},"
            f" '--out-dir', {str(tmp_path / 'v')!r}])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[:2] in"
            " (['scipy', 'linalg'], ['scipy', 'signal'], ['scipy', 'optimize'],"
            " ['numpy', 'f2py'], ['numpy', 'testing'])))\n"
        )
        codes = [EXIT_OK, EXIT_OK]
        kernels = [
            "scipy.linalg._fblas",
            "scipy.linalg._flapack",
            "scipy.signal._sigtools",
            "scipy.signal._sosfilt",
        ]
        assert run_fresh_python(code).splitlines()[-1] == f"{codes} {kernels}"
        assert (tmp_path / "r" / "example3_fo" / "summary.json").exists()
        assert (tmp_path / "v" / "validation.json").exists()


class TestReproduce:
    def test_unknown_example_exits_with_usage(self, capsys):
        assert main(["reproduce", "example9"]) == EXIT_USAGE
        assert "example1" in capsys.readouterr().err

    def test_a_repeated_seed_exits_with_usage(self, tmp_path, capsys):
        # it used to tune seed 2 twice and write each trace row twice
        out = tmp_path / "out"
        code = main(["reproduce", "example3_io", "--seeds", "2,2", "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert "seeds must not repeat, got [2, 2]" in capsys.readouterr().err
        assert not out.exists()

    def test_artifact_set_is_complete(self, repro_dir):
        d = repro_dir / "example3_io"
        for name in ("summary.json", "config.json", "trace.csv",
                     "step_response.csv", "initial_data.csv"):
            assert (d / name).exists()

    def test_summary_shape(self, repro_dir):
        s = read_json(repro_dir / "example3_io" / "summary.json")
        assert s["example"] == "example3_io"
        assert set(s) == {"example", "targets", "tuning", "validation",
                          "acceptance", "controller"}
        acc = s["acceptance"]
        assert acc["pass"] == (acc["j_theta0_reproduced"] and acc["j_star_within_band"])
        assert acc["j_theta0_reproduced"] is True
        tuning = s["tuning"]
        assert tuning["best_seed"] == 2
        assert tuning["seeds"][0]["seed"] == 2
        assert tuning["j_star"] <= tuning["j_theta0"]
        assert tuning["bound_checks"] > 0
        assert tuning["bound_violations"] == 0
        counts = tuning["penalty_counts"]
        assert set(counts) == {"non_invertible_controller", "fictitious_head_zero",
                               "nonfinite_signal"}
        assert sum(counts.values()) == tuning["penalized_evaluations"]
        # the smoke swarm runs 12 iterations unless it stalls first
        seed = tuning["seeds"][0]
        assert (seed["iterations"], seed["stop"]) == (12, "cap")
        assert 0.4 <= seed["inertia"] <= 0.9
        assert acc["closed_loop_stable"] is s["validation"]["stable"]

    def test_acceptance_reports_an_unstable_loop_without_failing_on_it(self, tmp_path):
        # example2's winner keeps the hidden z = -1 mode; the verdict is
        # reported, and pass still grades only J(theta0) and the J* band
        assert main(["reproduce", "example2", "--seeds", "1", *SMOKE,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        s = read_json(tmp_path / "example2" / "summary.json")
        acc = s["acceptance"]
        assert acc["closed_loop_stable"] is False
        assert s["validation"]["stable"] is False
        assert acc["pass"] == (acc["j_theta0_reproduced"] and acc["j_star_within_band"])

    def test_sibling_comparison_is_written(self, repro_dir):
        cmp = read_json(repro_dir / "comparison.json")
        fo = read_json(repro_dir / "example3_fo" / "summary.json")
        io = read_json(repro_dir / "example3_io" / "summary.json")
        want = {"fo_beats_io": fo["tuning"]["j_star"] < io["tuning"]["j_star"]}
        for suffix, s in (("fo", fo), ("io", io)):
            want[f"j_{suffix}"] = s["tuning"]["j_star"]
            want[f"theta_{suffix}"] = s["tuning"]["theta_star"]
            want[f"tracking_error_{suffix}"] = s["validation"]["tracking_error_l1"]
            want[f"max_input_{suffix}"] = s["validation"]["max_abs_input"]
            want[f"input_l1_{suffix}"] = s["validation"]["input_l1"]
        assert cmp == want

    def test_exported_data_reparses_to_the_recorded_experiment(self, repro_dir):
        case = builtin_case("example3_io")
        rec = collect_data(case)
        back = load_data_record(repro_dir / "example3_io" / "initial_data.csv",
                                case.sample_time)
        np.testing.assert_array_equal(back.r0.samples, rec.r0.samples)
        np.testing.assert_array_equal(back.u0.samples, rec.u0.samples)
        np.testing.assert_array_equal(back.y0.samples, rec.y0.samples)

    def test_reproduce_is_byte_deterministic(self, repro_dir, tmp_path):
        assert main(["reproduce", "example3_io", "--seeds", "2", *SMOKE,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        for name in ("summary.json", "config.json", "trace.csv",
                     "step_response.csv", "initial_data.csv"):
            assert (tmp_path / "example3_io" / name).read_bytes() == (
                repro_dir / "example3_io" / name
            ).read_bytes(), name

    @pytest.mark.parametrize("name", ["example3_io", "example3_fo"])
    def test_exported_config_reads_back_to_the_same_document(self, repro_dir, name):
        path = repro_dir / name / "config.json"
        assert _jsonable(_config_payload(load_run_config(path))) == read_json(path)


# ---------------------------------------------------------------------------
# tune from exported artifacts


class TestTune:
    @pytest.mark.parametrize("name", ["example3_io", "example3_fo"])
    def test_round_trip_reproduces_the_tuning_subtree(self, repro_dir, tmp_path, name):
        src = repro_dir / name
        assert main(["tune",
                     "--config", str(src / "config.json"),
                     "--data", str(src / "initial_data.csv"),
                     "--seeds", "2",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        tuned = read_json(tmp_path / "summary.json")
        original = read_json(src / "summary.json")
        assert tuned["tuning"] == original["tuning"]
        assert (tmp_path / "trace.csv").read_bytes() == (src / "trace.csv").read_bytes()

    def test_config_seeds_apply_without_a_flag(self, repro_dir, tmp_path):
        src = repro_dir / "example3_io"
        assert main(["tune",
                     "--config", str(src / "config.json"),
                     "--data", str(src / "initial_data.csv"),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        tuned = read_json(tmp_path / "summary.json")
        assert [s["seed"] for s in tuned["tuning"]["seeds"]] == [2]

    def test_seed_flag_beats_config_seeds(self, repro_dir, tmp_path):
        src = repro_dir / "example3_io"
        assert read_json(src / "config.json")["seeds"] == [2]
        assert main(["tune",
                     "--config", str(src / "config.json"),
                     "--data", str(src / "initial_data.csv"),
                     "--seeds", "4,3",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        tuned = read_json(tmp_path / "summary.json")
        assert [s["seed"] for s in tuned["tuning"]["seeds"]] == [4, 3]
        assert tuned["config"]["seeds"] == [4, 3]

    def test_empty_config_seed_list_is_a_usage_error(self, repro_dir, tmp_path, capsys):
        src = repro_dir / "example3_io"
        cfg = read_json(src / "config.json")
        cfg["seeds"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["tune", "--config", str(bad),
                     "--data", str(src / "initial_data.csv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonfinite_theta0_is_a_config_error(self, repro_dir, tmp_path, capsys):
        # json reads the NaN literal; unchecked, the NaN start point took
        # over the swarm and the run ended as a numeric error (exit 5)
        src = repro_dir / "example3_io"
        cfg = read_json(src / "config.json")
        cfg["theta0"] = [math.nan, 0.5, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["tune", "--config", str(bad),
                     "--data", str(src / "initial_data.csv"),
                     "--seeds", "1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "theta0 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sample_time_mismatch_is_a_config_error(self, repro_dir, tmp_path, capsys):
        src = repro_dir / "example3_io"
        cfg = read_json(src / "config.json")
        cfg["reference_model"]["sample_time"] = 0.1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["tune", "--config", str(bad),
                     "--data", str(src / "initial_data.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "sample time" in capsys.readouterr().err

    def test_unstable_reference_model_is_a_config_error(self, repro_dir, tmp_path, capsys):
        src = repro_dir / "example3_io"
        cfg = read_json(src / "config.json")
        cfg["reference_model"].update(num=[1.0], den=[1.0, -1.0], delay_samples=0)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["tune", "--config", str(bad),
                     "--data", str(src / "initial_data.csv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "BIBO stable" in capsys.readouterr().err

    def test_a_box_of_penalized_candidates_is_a_numeric_error(
        self, repro_dir, tmp_path, capsys
    ):
        # every candidate in a box pinned at the zero controller is
        # non-invertible, and without theta0 nothing else is scored
        src = repro_dir / "example3_io"
        cfg = read_json(src / "config.json")
        cfg["bounds"] = {"lower": [0.0, 0.0, 0.0], "upper": [0.0, 0.0, 0.0]}
        del cfg["theta0"]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(cfg))
        code = main(["tune", "--config", str(bad),
                     "--data", str(src / "initial_data.csv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "never found an evaluable candidate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def tune_with_head(self, repro_dir, tmp_path, head):
        src = repro_dir / "example3_io"
        rows = (src / "initial_data.csv").read_text().splitlines()
        parts = rows[1].split(",")
        parts[1] = head
        rows[1] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        return main(["tune", "--config", str(src / "config.json"),
                     "--data", str(bad), "--out-dir", str(tmp_path)])

    def test_zero_head_data_is_an_assumption_error(self, repro_dir, tmp_path, capsys):
        assert self.tune_with_head(repro_dir, tmp_path, "0.0") == EXIT_ASSUMPTION
        assert "reference head is numerically zero" in capsys.readouterr().err

    def test_tiny_head_data_is_the_same_assumption_error(self, repro_dir, tmp_path, capsys):
        # the record holds its head to the Toeplitz solver's own tolerance
        assert self.tune_with_head(repro_dir, tmp_path, "1e-13") == EXIT_ASSUMPTION
        assert "reference head is numerically zero" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def write_validate_config(path):
    return write_config(
        path,
        plant={"num": [1.0], "den": [1.0], "sample_time": 0.05},
        sim_time=1.0,
        bounds={"lower": [0.0, 0.0, 0.0], "upper": [2.0, 2.0, 2.0]},
    )


class TestValidate:
    def test_static_unity_loop(self, tmp_path, capsys):
        cfg = write_validate_config(tmp_path / "c.json")
        assert main(["validate", "1,0,0", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_OK
        out = read_json(tmp_path / "v" / "validation.json")
        # unit plant with unit controller: y = r / 2 at every sample
        assert out["validation"]["stable"] is True
        assert out["validation"]["max_abs_input"] == pytest.approx(0.5)
        assert "PASS" not in capsys.readouterr().out  # informational, not graded

    def test_plant_block_is_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", sim_time=1.0)
        assert main(["validate", "1,0,0", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_USAGE
        assert "plant" in capsys.readouterr().err

    def test_wrong_theta_dimension(self, tmp_path, capsys):
        cfg = write_validate_config(tmp_path / "c.json")
        assert main(["validate", "1,0", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_USAGE
        assert "dimension" in capsys.readouterr().err

    def test_negative_first_parameter_after_the_separator(self, tmp_path, capsys):
        # argparse reads "-0.5,0,0" as an option; after "--" it is theta,
        # and the subcommand's help says so
        cfg = write_validate_config(tmp_path / "c.json")
        assert main(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "v"),
                     "--", "-0.5,0,0"]) == EXIT_OK
        out = read_json(tmp_path / "v" / "validation.json")
        assert out["theta"] == [-0.5, 0.0, 0.0]
        # unit plant, static gain -0.5: y = -0.5 r / (1 - 0.5) = -r, u = -0.5 (r - y) = -r
        assert out["validation"]["max_abs_input"] == pytest.approx(1.0)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["validate", "-h"])
        assert "-- -0.16,1,0.5,0,1" in capsys.readouterr().out

    def test_malformed_theta(self, tmp_path, capsys):
        # an empty item is malformed too, not dropped: "1,,0,0" once
        # validated the three-parameter theta [1, 0, 0]
        cfg = write_validate_config(tmp_path / "c.json")
        for theta in ("1,a,0", "1,,0,0", "1,0,0,", ",1,0,0"):
            assert main(["validate", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "v"), "--", theta]) == EXIT_USAGE
            assert "invalid theta" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_plant_sample_time_mismatch_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            plant={"num": [1.0], "den": [1.0], "sample_time": 0.1},
            sim_time=1.0,
        )
        assert main(["validate", "1,0,0", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_USAGE
        assert "plant sample time" in capsys.readouterr().err

    def test_nonpositive_sim_time_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            plant={"num": [1.0], "den": [1.0], "sample_time": 0.05},
            sim_time=-1.0,
        )
        assert main(["validate", "1,0,0", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_USAGE
        assert "sim_time must be > 0" in capsys.readouterr().err

    def test_nonfinite_theta_is_a_numeric_error(self, tmp_path, capsys):
        cfg = write_validate_config(tmp_path / "c.json")
        assert main(["validate", "nan,0,0", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_NUMERIC
        assert "cannot realize theta" in capsys.readouterr().err

    def test_order_beyond_the_cap_is_a_numeric_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            controller={"kind": "fopid"},
            bounds={"lower": [0.0] * 5, "upper": [2.0] * 5},
            plant={"num": [1.0], "den": [1.0], "sample_time": 0.05},
            sim_time=1.0,
        )
        assert main(["validate", "1,1,1e5,0,1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_NUMERIC
        assert "cannot realize theta: orders lam and mu" in capsys.readouterr().err

    def test_cancelled_feedthrough_is_a_numeric_error(self, tmp_path, capsys):
        # kfp cancels the integral branch's feedthrough, so C has no inverse
        cfg = write_config(
            tmp_path / "c.json",
            controller={"kind": "fopid"},
            bounds={"lower": [0.0] * 5, "upper": [2.0] * 5},
            plant={"num": [1.0], "den": [1.0], "sample_time": 0.05},
            sim_time=1.0,
        )
        branch = realize([0.0, 1.0, 0.5, 0.0, 1.0], ControllerTemplate(ControllerKind.FOPID, 0.05))
        theta = f"{-branch.gain!r},1,0.5,0,1"
        assert main(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "v"),
                     "--", theta]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "cannot realize theta: realization has no usable feedthrough" in err

    def test_a_failed_zeros_solve_is_a_numeric_error(self, tmp_path, capsys, monkeypatch):
        # a factored controller's zeros are computed when the payload
        # reads them, after the loop is graded
        def unconverged(c):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(DiscreteZpk, "zeros", property(unconverged))
        cfg = write_config(
            tmp_path / "c.json",
            controller={"kind": "fopid"},
            bounds={"lower": [0.0] * 5, "upper": [2.0] * 5},
            plant={"num": [1.0], "den": [1.0], "sample_time": 0.05},
            sim_time=1.0,
        )
        assert main(["validate", "1,1,0.5,0,1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "cannot realize theta: Eigenvalues did not converge" in err
        assert not (tmp_path / "v" / "validation.json").exists()

    def test_out_of_bounds_theta_warns_but_runs(self, tmp_path, capsys):
        cfg = write_validate_config(tmp_path / "c.json")
        assert main(["validate", "1.5,0,1e9", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_OK
        assert "outside the configured bounds" in capsys.readouterr().err

    def test_unstable_loops_still_exit_cleanly(self, tmp_path):
        # an aggressively detuned controller destabilizes this loop; the
        # verdict belongs in the report, not in the exit code
        cfg = write_config(
            tmp_path / "c.json",
            plant={"num": [2.0], "den": [1.0, -1.1], "sample_time": 0.05},
            sim_time=0.5,
        )
        assert main(["validate", "0,0,0.001", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "v")]) == EXIT_OK
        out = read_json(tmp_path / "v" / "validation.json")
        assert out["validation"]["stable"] is False


class TestParserBasics:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
