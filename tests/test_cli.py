"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from softprob.cli import TABLE1_ROWS, _build_parser, main
from softprob.distributions import Gaussian, joint_gaussian_additive
from softprob.errors import DomainError
from softprob.information import InfoConfig, soft_mutual_information
from softprob.moments import MixedSet
from softprob.quadrature import QuadratureConfig
from softprob.softnum import ext_from_dict, soft_from_dict, soft_to_dict

UNIFORM_01 = '{"kind": "uniform", "lo": 0, "hi": 1}'
UNIFORM_02 = '{"kind": "uniform", "lo": 0, "hi": 2}'
GAUSSIAN_STD = '{"kind": "gaussian", "mean": 0, "variance": 1}'
ADDITIVE = ('{"kind": "joint_gaussian_additive", '
            '"input": {"mean": 0, "variance": 1}, '
            '"noise": {"mean": 0, "variance": 1}}')
INDEPENDENT = ('{"kind": "bivariate_gaussian", "mean_x": 0, "mean_y": 0, '
               '"var_x": 1, "var_y": 1, "correlation": 0}')


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "json-like"])
    return code, json.loads(out), err


class TestTable1:
    def test_reports_one_known_miss(self, capsys):
        code, out, err = _run(capsys, ["table1"])
        assert code == 1
        assert "table1: 4/5 rows within tolerance" in out
        assert out.count("FAIL") == 1
        assert err == ""

    def test_json_payload_structure(self, capsys):
        code, payload, _ = _run_json(capsys, ["table1"])
        assert code == 1
        assert payload["all_pass"] is False
        rows = payload["rows"]
        assert len(rows) == 5
        misses = [(r["row"], r["soft_pass"], r["real_pass"]) for r in rows
                  if not (r["soft_pass"] and r["real_pass"])]
        assert misses == [(4, True, False)]
        assert rows[0]["computed"]["soft"] == pytest.approx(0.055159, abs=1e-5)

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = _run(capsys, ["table1", "--format", "json-like"])
        _, second, _ = _run(capsys, ["table1", "--format", "json-like"])
        assert first == second

    def test_rel_tol_still_acts(self, capsys):
        # row 4's deep-tail real part stops earlier at a loose tolerance
        _, default, _ = _run_json(capsys, ["table1"])
        _, loose, _ = _run_json(capsys, ["table1", "--rel-tol", "1e-3"])
        x0, y0, xiv, yiv = TABLE1_ROWS[3][:4]
        value = soft_mutual_information(
            joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)),
            MixedSet([x0], [xiv]), MixedSet([y0], [yiv]),
            InfoConfig(quadrature=QuadratureConfig(rel_tol=1e-3)))
        assert loose["rows"][3]["computed"] == soft_to_dict(value)
        assert loose["rows"][3]["computed"] != default["rows"][3]["computed"]


class TestPs:
    def test_eq_human_format(self, capsys):
        code, out, _ = _run(capsys, ["ps", "--op", "eq", "--dist", UNIFORM_01,
                                     "--x", "0.5"])
        assert code == 0
        assert out.splitlines()[0] == "value = 1.0*0~ + 0.0"

    def test_leq_json(self, capsys):
        code, payload, _ = _run_json(capsys, ["ps", "--op", "leq", "--dist",
                                              GAUSSIAN_STD, "--x", "0"])
        assert code == 0
        assert payload["value"]["soft"] == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        assert payload["value"]["real"] == pytest.approx(0.5)

    def test_neq_and_lt(self, capsys):
        code, payload, _ = _run_json(capsys, ["ps", "--op", "neq", "--dist",
                                              UNIFORM_01, "--x", "0.25"])
        assert code == 0
        assert payload["value"] == {"soft": -1.0, "real": 1.0}
        code, payload, _ = _run_json(capsys, ["ps", "--op", "lt", "--dist",
                                              UNIFORM_01, "--x", "0.25"])
        assert payload["value"] == {"soft": 0.0, "real": 0.25}

    def test_interval_strict_and_closed(self, capsys):
        _, payload, _ = _run_json(capsys, ["ps", "--op", "interval", "--dist",
                                           UNIFORM_01, "--interval", "0.25,0.75"])
        assert payload["value"] == {"soft": 0.0, "real": 0.5}
        _, payload, _ = _run_json(capsys, ["ps", "--op", "interval", "--dist",
                                           UNIFORM_01, "--interval", "0.25,0.75",
                                           "--closed"])
        assert payload["value"] == {"soft": 2.0, "real": 0.5}

    def test_negative_interval_and_points_join_their_flag_with_equals(self, capsys):
        code, payload, err = _run_json(capsys, ["ps", "--op", "interval", "--dist", GAUSSIAN_STD,
                                                "--interval=-0.5,1.5"])
        assert code == 0 and err == ""
        assert payload["value"]["real"] == pytest.approx(0.624655260005155, rel=1e-12)
        code, payload, err = _run_json(capsys, ["ps", "--op", "points-union", "--dist",
                                                GAUSSIAN_STD, "--points=-1,2"])
        assert code == 0 and err == ""
        assert payload["value"]["soft"] > 0.0

    @pytest.mark.parametrize("flag, value", [("--interval", "-0.5,1.5"), ("--points", "-1,2")])
    def test_negative_value_after_a_space_is_a_usage_error(self, capsys, flag, value):
        op = "interval" if flag == "--interval" else "points-union"
        with pytest.raises(SystemExit) as exc:
            main(["ps", "--op", op, "--dist", GAUSSIAN_STD, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: softprob ps")
        assert f"argument {flag}: expected one argument" in captured.err
        assert "Traceback" not in captured.err

    def test_help_names_the_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["ps", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--interval=-0.5,1.5" in out and "--points=-1,2" in out

    def test_points_union_and_intersection(self, capsys):
        _, payload, _ = _run_json(capsys, ["ps", "--op", "points-union", "--dist",
                                           UNIFORM_01, "--points", "0.1,0.2,0.3"])
        assert payload["value"]["soft"] == pytest.approx(3.0)
        _, payload, _ = _run_json(capsys, ["ps", "--op", "points-intersect",
                                           "--dist", UNIFORM_01,
                                           "--points", "0.1,0.2"])
        assert payload["value"] == {"soft": 0.0, "real": 0.0}

    def test_union_and_intersect_point_interval(self, capsys):
        _, payload, _ = _run_json(capsys, ["ps", "--op", "union", "--dist",
                                           UNIFORM_01, "--x", "0.9",
                                           "--interval", "0.25,0.75"])
        assert payload["value"] == {"soft": 1.0, "real": 0.5}
        _, payload, _ = _run_json(capsys, ["ps", "--op", "intersect", "--dist",
                                           UNIFORM_01, "--x", "0.5",
                                           "--interval", "0.25,0.75"])
        assert payload["value"] == {"soft": 1.0, "real": 0.0}

    def test_conditionals(self, capsys):
        _, payload, _ = _run_json(capsys, ["ps", "--op", "cond-interval", "--dist",
                                           UNIFORM_01, "--x", "0.5",
                                           "--interval", "0.25,0.75"])
        assert payload["value"] == {"soft": 2.0, "real": 0.0}
        code, out, _ = _run(capsys, ["ps", "--op", "cond-point", "--dist",
                                     GAUSSIAN_STD, "--x", "0", "--y", "0"])
        assert code == 0
        assert out.strip() == "value = 1.0"

    def test_ps2_independent_quadrant(self, capsys):
        code, payload, _ = _run_json(capsys, ["ps", "--op", "ps2", "--joint",
                                              INDEPENDENT, "--x", "0", "--y", "0",
                                              "--rx", "leq", "--ry", "leq"])
        assert code == 0
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        expected_soft = 2.0 * phi0 * 0.5 + 1.0 / (2.0 * math.pi)
        assert payload["value"]["soft"] == pytest.approx(expected_soft, abs=1e-6)
        assert payload["value"]["real"] == pytest.approx(0.25, abs=1e-6)

    def test_ps2_correlated_model_accepted(self, capsys):
        joint = ('{"kind": "bivariate_gaussian", "mean_x": 0, "mean_y": 0, '
                 '"var_x": 1, "var_y": 2, "correlation": 0.5}')
        code, payload, _ = _run_json(capsys, ["ps", "--op", "ps2", "--joint",
                                              joint, "--x", "0.2", "--y", "-0.1",
                                              "--rx", "lt", "--ry", "lt"])
        assert code == 0
        assert payload["value"]["soft"] == 0.0
        assert 0.0 < payload["value"]["real"] < 1.0

    def test_ps2_on_variances_too_far_apart_fails(self, capsys):
        # the slope of X given Y overflows; cdf_partial_y read 0.0 at y = 1e-160
        joint = ('{"kind": "bivariate_gaussian", "mean_x": 0, "mean_y": 0, '
                 '"var_x": 1e300, "var_y": 1e-300, "correlation": 0.5}')
        for y in ("1e-160", "0"):
            code, out, err = _run(capsys, ["ps", "--op", "ps2", "--joint", joint,
                                           "--rx", "lt", "--ry", "eq", "--x=0", f"--y={y}"])
            assert (code, out) == (1, "")
            assert err == ("error: variances (1e+300, 1e-300) are too far apart "
                           "for a conditional model\n")

    def test_missing_required_input_fails(self, capsys):
        code, out, err = _run(capsys, ["ps", "--op", "eq", "--dist", UNIFORM_01])
        assert code == 1
        assert err.startswith("error:")
        code, _, err = _run(capsys, ["ps", "--op", "interval", "--dist", UNIFORM_01])
        assert code == 1
        assert err.startswith("error:")
        # ps2 reads y as it reads x: without --y it is an error, not the value at y = 0
        code, out, err = _run(capsys, ["ps", "--op", "ps2", "--joint", ADDITIVE, "--x", "0.3",
                                       "--rx", "leq", "--ry", "leq"])
        assert (code, out, err) == (1, "", "error: operation 'ps2' needs --y\n")


class TestEntropyCommands:
    SPLIT_SET = '{"points": [0.5], "intervals": [[0, 0.5], [0.5, 1]]}'

    def test_entropy_human(self, capsys):
        code, out, _ = _run(capsys, ["entropy", "--dist", UNIFORM_01,
                                     "--set", self.SPLIT_SET])
        assert code == 0
        assert out.splitlines()[0] == "entropy = -1.0*0log0~ + 0.0*0~ + 0.0"

    def test_entropy_collapse_mode(self, capsys):
        code, payload, _ = _run_json(capsys, ["entropy", "--dist", UNIFORM_01,
                                              "--set", self.SPLIT_SET,
                                              "--zlogz", "collapse"])
        assert code == 0
        assert payload["entropy"]["zlogz"] == 0.0

    def test_cross_entropy(self, capsys):
        code, payload, _ = _run_json(capsys, ["entropy", "--dist", UNIFORM_01,
                                              "--dist-hat", UNIFORM_02,
                                              "--set",
                                              '{"points": [], "intervals": [[0, 1]]}'])
        assert code == 0
        assert payload["cross_entropy"]["real"] == pytest.approx(math.log(2.0))

    def test_kld_self_is_absolute_zero(self, capsys):
        code, payload, _ = _run_json(capsys, ["kld", "--dist", GAUSSIAN_STD,
                                              "--dist-hat", GAUSSIAN_STD,
                                              "--set",
                                              '{"points": [0.3], "intervals": [[1, 2]]}'])
        assert code == 0
        assert payload["kld"] == {"soft": 0.0, "real": 0.0}

    def test_kld_ln2_and_base_change(self, capsys):
        args = ["kld", "--dist", UNIFORM_01, "--dist-hat", UNIFORM_02,
                "--set", '{"points": [], "intervals": [[0, 1]]}']
        _, payload, _ = _run_json(capsys, args)
        assert payload["kld"]["real"] == pytest.approx(math.log(2.0), rel=1e-9)
        _, payload, _ = _run_json(capsys, args + ["--log-base", "2"])
        assert payload["kld"]["real"] == pytest.approx(1.0, rel=1e-9)

    def test_mi_benchmark_row_and_forms(self, capsys):
        # the CLI's joint models are Gaussian, where both forms give the same bits
        ms = '{"points": [0], "intervals": [[1, 2]]}'
        _, payload, _ = _run_json(capsys, ["mi", "--joint", ADDITIVE, "--set-x", ms,
                                           "--set-y", ms])
        assert payload["mi"]["soft"] == pytest.approx(0.055159, abs=1e-5)
        assert payload["mi"]["real"] == pytest.approx(0.042381, abs=1e-5)
        model = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
        sets = MixedSet([0.0], [(1.0, 2.0)]), MixedSet([0.0], [(1.0, 2.0)])
        for form in ("symmetric", "conditional"):
            value = soft_mutual_information(model, *sets, form=form)
            assert payload["mi"] == soft_to_dict(value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", ["symmetric", "conditional"])
    def test_mi_far_point_fails_without_warnings(self, capsys, form):
        # the CLI has no form flag; its error is the one either library form raises
        code, _, err = _run(capsys, ["mi", "--joint", ADDITIVE,
                                     "--set-x", '{"points": [1e200]}',
                                     "--set-y", '{"points": [0]}'])
        assert code == 1
        assert err.startswith("error:")
        model = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
        with pytest.raises(DomainError) as raised:
            soft_mutual_information(model, MixedSet([1e200], []), MixedSet([0.0], []),
                                    form=form)
        assert str(raised.value) in err

    def test_mi_underflowing_marginal_product_on_rectangle_is_computed(self, capsys):
        # f_X * f_Y underflows on this box; the Gaussian closed form never forms it
        box = '{"intervals": [[29.9, 30.1]]}'
        code, out, err = _run(capsys, [
            "mi", "--set-x", box, "--set-y", box, "--joint",
            '{"kind": "bivariate_gaussian", "mean_x": 0, "mean_y": 0, '
            '"var_x": 1, "var_y": 1, "correlation": 0.999}'])
        assert code == 0
        assert err == ""
        assert out.startswith("mi = ")

    def test_mi_underflowing_marginal_product_at_a_point_pair_is_computed(self, capsys):
        # f_X * f_Y underflows at (27.3, 27.3); the Gaussian pair sum never forms it
        point = '{"points": [27.3]}'
        code, out, err = _run(capsys, [
            "mi", "--set-x", point, "--set-y", point, "--joint",
            '{"kind": "bivariate_gaussian", "mean_x": 0, "mean_y": 0, '
            '"var_x": 1, "var_y": 1, "correlation": 0.999}'])
        assert code == 0
        assert err == ""
        assert out.startswith("mi = ")

    def test_mi_reruns_byte_identical(self, capsys):
        args = ["mi", "--joint", ADDITIVE,
                "--set-x", '{"points": [0], "intervals": [[1, 2]]}',
                "--set-y", '{"points": [0], "intervals": [[1, 2]]}',
                "--format", "json-like"]
        _, first, _ = _run(capsys, args)
        _, second, _ = _run(capsys, args)
        assert first == second

    def test_invalid_set_fails_cleanly(self, capsys):
        code, _, err = _run(capsys, ["entropy", "--dist", UNIFORM_01,
                                     "--set", '{"points": [0.5], "intervals": [[0, 1]]}'])
        assert code == 1
        assert err.startswith("error:")


    def test_an_unknown_set_field_is_named(self, capsys):
        # a misspelt "points" used to be ignored, giving the entropy of the empty set
        code, out, err = _run(capsys, ["entropy", "--dist", GAUSSIAN_STD,
                                       "--set", '{"point": [1.0]}'])
        assert (code, out) == (1, "")
        assert err == "error: mixed-set record has unknown field 'point'\n"

    def test_malformed_set_records_fail_cleanly(self, capsys):
        for record in ('{"points": 5}', '{"intervals": [5]}', '{"points": "12"}',
                       '{"points": [null]}', '{"intervals": [[0, 1, 2]]}',
                       '{"points": [1' + '0' * 400 + ']}',
                       '{"intervals": [[0, 1' + '0' * 400 + ']]}'):
            code, _, err = _run(capsys, ["entropy", "--dist", GAUSSIAN_STD,
                                         "--set", record])
            assert code == 1, record
            assert err.startswith("error:"), record


class TestMoments:
    def test_uniform_example(self, capsys):
        code, payload, _ = _run_json(capsys, ["moments", "--dist", UNIFORM_01,
                                              "--set",
                                              '{"points": [0.5], "intervals": [[0, 0.25]]}'])
        assert code == 0
        assert payload["expectation"]["soft"] == pytest.approx(0.5, abs=1e-12)
        assert payload["expectation"]["real"] == pytest.approx(0.03125, abs=1e-9)
        assert payload["components"]["nu"] == pytest.approx(0.5)
        assert payload["components"]["kappa"] == pytest.approx(0.03125)

    def test_full_coverage_variance(self, capsys):
        code, payload, _ = _run_json(capsys, ["moments", "--dist", UNIFORM_01,
                                              "--set",
                                              '{"points": [], "intervals": [[0, 1]]}'])
        assert code == 0
        assert payload["variance"]["soft"] == pytest.approx(0.0, abs=1e-12)
        assert payload["variance"]["real"] == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_interval_beyond_the_support(self, capsys):
        # both support edges lie inside the interval; this exited 1 with a
        # ConvergenceError
        code, payload, err = _run_json(capsys, ["moments", "--dist", UNIFORM_01,
                                                "--set",
                                                '{"points": [], "intervals": [[-1, 2]]}'])
        assert (code, err) == (0, "")
        assert payload["expectation"]["real"] == pytest.approx(0.5, rel=1e-12)
        assert payload["variance"]["real"] == pytest.approx(1.0 / 12.0, rel=1e-12)


TRAIN_CSV = "\n".join(["x1,x2,y"] + [
    f"{i * 0.1:.3f},{(i * 7 % 11) * 0.1:.3f},{i * 0.1 + 0.05:.3f}"
    for i in range(24)
]) + "\n0.05..0.15,0.3,0.1\n"


MODEL_LEAF = '{"kind": "leaf", "prediction": %s, "count": %s}'
# feature_index, threshold and the gain's real part of a split over two leaves
MODEL_SPLIT = ('{"kind": "split", "feature": "x1", "feature_index": %s, "threshold": %s, '
               '"gain": {"soft": 0.0, "real": %s}, "left": ' + MODEL_LEAF % ("0.0", "1")
               + ', "right": ' + MODEL_LEAF % ("1.0", "1") + '}')


class TestTreeCommands:
    def test_train_predict_round_trip(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        model = tmp_path / "model.json"
        code, out, _ = _run(capsys, ["tree-train", "--data", str(data),
                                     "--out", str(model), "--max-depth", "2"])
        assert code == 0
        assert f"wrote model to {model}" in out
        doc = json.loads(model.read_text(encoding="utf-8"))
        assert doc["feature_names"] == ["x1", "x2"]
        assert doc["label_name"] == "y"
        assert doc["tree"]["kind"] in ("leaf", "split")

        code, payload, _ = _run_json(capsys, ["tree-predict", "--model", str(model),
                                              "--data", str(data)])
        assert code == 0
        assert len(payload["predictions"]) == 25
        assert all(isinstance(p, float) for p in payload["predictions"])

    def test_train_to_stdout_and_seed_echo(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        code, out, _ = _run(capsys, ["tree-train", "--data", str(data),
                                     "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7
        assert doc["config"] == {"max_depth": 5, "min_rows": 4}

    def test_train_is_deterministic(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        _, first, _ = _run(capsys, ["tree-train", "--data", str(data)])
        _, second, _ = _run(capsys, ["tree-train", "--data", str(data)])
        assert first == second

    def test_predict_without_label_column(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        model = tmp_path / "model.json"
        _run(capsys, ["tree-train", "--data", str(data), "--out", str(model)])
        bare = tmp_path / "bare.csv"
        bare.write_text("x1,x2\n0.3,0.1\n1.9,0.4\n", encoding="utf-8")
        code, payload, _ = _run_json(capsys, ["tree-predict", "--model", str(model),
                                              "--data", str(bare)])
        assert code == 0
        assert len(payload["predictions"]) == 2

    def test_predict_schema_mismatch_fails(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        model = tmp_path / "model.json"
        _run(capsys, ["tree-train", "--data", str(data), "--out", str(model)])
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("a,b\n1,2\n", encoding="utf-8")
        code, _, err = _run(capsys, ["tree-predict", "--model", str(model),
                                     "--data", str(wrong)])
        assert code == 1
        assert err.startswith("error:")

    def test_train_on_overflowing_column_fails_cleanly(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        for text in ("x1,y\n1e308,1\n-1e308,2\n1e308,3\n-1e308,4\n1,5\n",
                     "x1,y\n1,1\n2,2\n1e308..1.7e308,3\n3,4\n4,5\n"):
            data.write_text(text, encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _run(capsys, ["tree-train", "--data", str(data)])
            assert code == 1
            assert out == ""
            assert err.startswith("error:")
            assert err.count("\n") == 1

    def test_predict_with_model_lacking_feature_names_fails_cleanly(self, capsys,
                                                                     tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        model = tmp_path / "model.json"
        _run(capsys, ["tree-train", "--data", str(data), "--out", str(model)])
        doc = json.loads(model.read_text(encoding="utf-8"))
        del doc["feature_names"]
        model.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = _run(capsys, ["tree-predict", "--model", str(model),
                                       "--data", str(data)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_predict_parse_error_names_the_physical_line(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        model = tmp_path / "model.json"
        _run(capsys, ["tree-train", "--data", str(data), "--out", str(model)])
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.3,0.1\n\n0.5,zz\n", encoding="utf-8")
        code, out, err = _run(capsys, ["tree-predict", "--model", str(model),
                                       "--data", str(bad)])
        assert code == 1
        assert out == ""
        assert err == "error: line 4: malformed numeric cell 'zz'\n"

    @pytest.mark.parametrize("tree", [
        MODEL_LEAF % ("0.5", "1e999"),
        MODEL_LEAF % ("NaN", "3"),
        MODEL_SPLIT % ("0", "1" + "0" * 400, "1.0"),
        MODEL_SPLIT % ("0", "0.5", "1" + "0" * 400),
        MODEL_SPLIT % ("-1", "0.5", "1.0"),
        MODEL_SPLIT % ("true", "0.5", "1.0"),
        MODEL_LEAF % ("0.5", "2.7"),
        MODEL_LEAF % ("0.5", "-3"),
        MODEL_SPLIT.replace('"x1"', "null") % ("0", "0.5", "1.0"),
        MODEL_LEAF % ('"0.5"', "1"),
        MODEL_SPLIT % ("0", "true", "1.0"),
        MODEL_SPLIT % ("0", "0.5", '"1"'),
    ], ids=["infinite-count", "nan-prediction", "huge-threshold", "huge-gain",
            "negative-feature-index", "boolean-feature-index", "fractional-count",
            "negative-count", "null-feature", "string-prediction", "boolean-threshold",
            "string-gain"])
    def test_predict_rejects_out_of_range_model_records(self, capsys, tmp_path, tree):
        model = tmp_path / "model.json"
        model.write_text('{"feature_names": ["x1"], "tree": %s}' % tree, encoding="utf-8")
        data = tmp_path / "rows.csv"
        data.write_text("x1\n0.25\n", encoding="utf-8")
        code, out, err = _run(capsys, ["tree-predict", "--model", str(model),
                                       "--data", str(data)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_an_empty_delimiter_is_named(self, capsys, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text(TRAIN_CSV, encoding="utf-8")
        model = tmp_path / "model.json"
        _run(capsys, ["tree-train", "--data", str(data), "--out", str(model)])
        for argv in (["tree-train", "--data", str(data)],
                     ["tree-predict", "--model", str(model), "--data", str(data)]):
            code, out, err = _run(capsys, argv + ["--delimiter", ""])
            assert (code, out) == (1, "")
            assert err == "error: delimiter must be a non-empty string, got ''\n"

    def test_missing_files_fail_cleanly(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["tree-train", "--data",
                                     str(tmp_path / "absent.csv")])
        assert code == 1
        assert err.startswith("error:")
        code, _, err = _run(capsys, ["tree-predict", "--model",
                                     str(tmp_path / "absent.json"),
                                     "--data", str(tmp_path / "absent.csv")])
        assert code == 1
        assert err.startswith("error:")


class TestStatsFlag:
    SET = '{"points": [0.5], "intervals": [[-50, 0], [1, 100]]}'

    @pytest.mark.parametrize("argv", [
        ["entropy", "--dist", GAUSSIAN_STD, "--set", SET],
        ["moments", "--dist", GAUSSIAN_STD, "--set", SET],
        ["mi", "--joint", ADDITIVE, "--set-x", '{"points": [0], "intervals": [[1, 2], [3, 4]]}',
         "--set-y", '{"points": [1], "intervals": [[1, 3]]}'],
    ])
    @pytest.mark.parametrize("fmt", ["human", "json-like"])
    def test_stdout_is_byte_identical(self, capsys, argv, fmt):
        code, out, err = _run(capsys, argv + ["--format", fmt])
        assert (code, err) == (0, "")
        code, out_with_stats, err = _run(capsys, argv + ["--format", fmt, "--stats"])
        assert code == 0 and out_with_stats == out
        [line] = err.splitlines()
        stats = json.loads(line)
        assert set(stats) == {"runs", "nodes", "calls", "panels", "max_depth", "error", "stuck"}
        assert stats["runs"] >= 1 and stats["calls"] >= stats["runs"]
        assert stats["nodes"] >= 48 * stats["runs"] and stats["stuck"] == 0

    def test_table1_totals(self, capsys):
        _, _, err = _run(capsys, ["table1", "--stats"])
        stats = json.loads(err)
        assert (stats["runs"], stats["calls"], stats["nodes"]) == (5, 8, 432)


class TestErrorHandling:
    def test_bad_json_descriptor(self, capsys):
        code, _, err = _run(capsys, ["ps", "--op", "eq", "--dist", "{nope",
                                     "--x", "0"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("points, bad", [("1,abc", "'abc'"), ("1,,2", "''")])
    def test_a_bad_points_entry_is_named(self, capsys, points, bad):
        for op in ("points-union", "points-intersect"):
            code, out, err = _run(capsys, ["ps", "--op", op, "--dist", GAUSSIAN_STD,
                                           f"--points={points}"])
            assert (code, out) == (1, "")
            assert err == f"error: --points entry must be a number, got {bad}\n"

    def test_unknown_distribution_kind(self, capsys):
        code, _, err = _run(capsys, ["ps", "--op", "eq", "--dist",
                                     '{"kind": "cauchy"}', "--x", "0"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--dist", "--dist-hat", "--set", "--joint", "--set-x",
                                      "--set-y", "--model"])
    def test_deeply_nested_json_gives_one_error_line(self, capsys, tmp_path, flag):
        deep = '{"a": ' * 1200 + "1" + "}" * 1200
        one_point = '{"points": [0.5]}'
        argv = {
            "--dist": ["entropy", "--dist", deep, "--set", one_point],
            "--dist-hat": ["kld", "--dist", GAUSSIAN_STD, "--dist-hat", deep, "--set", one_point],
            "--set": ["entropy", "--dist", GAUSSIAN_STD, "--set", deep],
            "--joint": ["mi", "--joint", deep, "--set-x", one_point, "--set-y", one_point],
            "--set-x": ["mi", "--joint", ADDITIVE, "--set-x", deep, "--set-y", one_point],
            "--set-y": ["mi", "--joint", ADDITIVE, "--set-x", one_point, "--set-y", deep],
        }.get(flag)
        if flag == "--model":
            # a tree of 1,200 nested splits
            leaf = MODEL_LEAF % ("1.0", "1")
            node = ('{"kind": "split", "feature": "x1", "feature_index": 0, "threshold": 0.0, '
                    '"gain": {"soft": 0.0, "real": 0.0}, "left": ' * 1200 + leaf
                    + (', "right": ' + leaf + '}') * 1200)
            model = tmp_path / "model.json"
            model.write_text('{"feature_names": ["x1"], "tree": %s}' % node, encoding="utf-8")
            data = tmp_path / "rows.csv"
            data.write_text("x1\n0.5\n", encoding="utf-8")
            argv = ["tree-predict", "--model", str(model), "--data", str(data)]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["table1", "--format", "bogus"])


def _human_form(record: dict) -> str:
    if set(record) == {"soft", "real"}:
        return str(soft_from_dict(record))
    return str(ext_from_dict(record))


def _flattened(record: dict, prefix: str = "") -> list[str]:
    """"name = value" lines of a JSON record, a nested field named name.field."""
    lines = []
    for name, value in record.items():
        if isinstance(value, dict):
            lines += _flattened(value, f"{prefix}{name}.")
        else:
            lines.append(f"{prefix}{name} = {value!r}")
    return lines


class TestOutputFormats:
    MIXED = '{"points": [0.3], "intervals": [[1, 2]]}'

    @pytest.mark.parametrize("argv", [
        ["ps", "--op", "leq", "--dist", GAUSSIAN_STD, "--x", "0.3"],
        ["ps", "--op", "cond-point", "--dist", GAUSSIAN_STD, "--x", "0", "--y", "1"],
        ["ps", "--op", "ps2", "--joint", ADDITIVE, "--x", "0.2", "--y", "-0.1",
         "--rx", "leq", "--ry", "eq"],
        ["entropy", "--dist", GAUSSIAN_STD, "--set", MIXED],
        ["entropy", "--dist", GAUSSIAN_STD, "--dist-hat", UNIFORM_02, "--set",
         '{"points": [0.3], "intervals": [[0.5, 1.5]]}'],
        ["kld", "--dist", GAUSSIAN_STD, "--dist-hat", GAUSSIAN_STD.replace("1}", "2}"),
         "--set", MIXED],
        ["mi", "--joint", ADDITIVE, "--set-x", MIXED, "--set-y", MIXED],
        ["moments", "--dist", GAUSSIAN_STD, "--set", MIXED],
    ], ids=["ps", "cond-point", "ps2", "entropy", "cross-entropy", "kld", "mi", "moments"])
    def test_human_lines_are_the_flattened_json_record(self, capsys, argv):
        code, human, _ = _run(capsys, argv)
        assert code == 0
        _, record, _ = _run_json(capsys, argv)
        # each soft value also shows its human form on a line of its own
        headlines = [f"{name} = {_human_form(value)}" for name, value in record.items()
                     if isinstance(value, dict) and {"soft", "real"} <= set(value)]
        assert sorted(human.splitlines()) == sorted(_flattened(record) + headlines)


# flags a subcommand, or a ps operation, never reads, with a value for each
# that takes one
REFUSED_FLAGS = {
    "ps": [("--rel-tol", "1e-3"), ("--log-base", "2"), ("--zlogz", "collapse"),
           ("--dist", GAUSSIAN_STD), ("--points", "1"), ("--interval", "0,1"),
           ("--closed", None)],
    "ps eq": [("--y", "5"), ("--rx", "leq"), ("--ry", "lt"), ("--joint", ADDITIVE),
              ("--interval", "0,1"), ("--points", "1"), ("--closed", None)],
    "ps interval": [("--x", "0.5"), ("--y", "5"), ("--points", "1")],
    "ps points-union": [("--x", "0.5"), ("--interval", "0,1"), ("--closed", None)],
    "ps union": [("--y", "5"), ("--points", "1"), ("--rx", "lt")],
    "ps cond-point": [("--interval", "0,1"), ("--closed", None), ("--joint", ADDITIVE)],
    "kld": [("--zlogz", "collapse")],
    "mi": [("--zlogz", "collapse"), ("--form", "symmetric")],
    "moments": [("--log-base", "2"), ("--zlogz", "collapse")],
    "table1": [("--zlogz", "collapse"), ("--log-base", "2")],
    "tree-train": [("--zlogz", "collapse"), ("--format", "json-like")],
    "tree-predict": [("--rel-tol", "1e-3"), ("--log-base", "2"), ("--zlogz", "collapse"),
                     ("--seed", "7")],
}
# a command line each subcommand accepts
ACCEPTED_ARGV = {
    "ps": ["ps", "--op", "ps2", "--joint", ADDITIVE, "--x", "0.2", "--y", "-0.1",
           "--rx", "leq", "--ry", "leq"],
    "ps eq": ["ps", "--op", "eq", "--dist", GAUSSIAN_STD, "--x", "0.3"],
    "ps interval": ["ps", "--op", "interval", "--dist", GAUSSIAN_STD, "--interval", "0,1",
                    "--closed"],
    "ps points-union": ["ps", "--op", "points-union", "--dist", GAUSSIAN_STD, "--points", "1,2"],
    "ps union": ["ps", "--op", "union", "--dist", GAUSSIAN_STD, "--x", "0.5",
                 "--interval", "0,1"],
    "ps cond-point": ["ps", "--op", "cond-point", "--dist", GAUSSIAN_STD, "--x", "0", "--y", "1"],
    "kld": ["kld", "--dist", GAUSSIAN_STD, "--dist-hat", GAUSSIAN_STD, "--set", '{"points": [0]}'],
    "mi": ["mi", "--joint", ADDITIVE, "--set-x", '{"points": [0]}', "--set-y", '{"points": [0]}'],
    "moments": ["moments", "--dist", GAUSSIAN_STD, "--set", '{"points": [0]}'],
    "table1": ["table1"],
    "tree-train": ["tree-train", "--data", "absent.csv"],
    "tree-predict": ["tree-predict", "--model", "absent.json", "--data", "absent.csv"],
}


class TestFlags:
    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command, flags in REFUSED_FLAGS.items()
        for flag, value in flags])
    def test_a_flag_the_command_never_reads_is_a_usage_error(self, capsys, command, flag,
                                                             value):
        refused = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            main(ACCEPTED_ARGV[command] + refused)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(refused)}\n" in captured.err

    @pytest.mark.parametrize("command", [name for name in ACCEPTED_ARGV if name.startswith("ps")])
    def test_each_accepted_ps_command_runs(self, capsys, command):
        code, out, err = _run(capsys, ACCEPTED_ARGV[command])
        assert (code, err) == (0, "") and out.startswith("value = ")

    def test_each_subcommand_accepts_only_the_flags_it_reads(self):
        # a flag added to a shared parent parser shows up here for every
        # subcommand that takes that parent
        [sub] = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        accepted = {name: sorted(p._option_string_actions) for name, p in sub.choices.items()}
        shown = ["--format", "--help", "--stats", "-h"]
        info = ["--log-base", "--rel-tol"]
        assert accepted == {
            "table1": sorted(shown + ["--rel-tol"]),
            "ps": sorted(shown + ["--closed", "--dist", "--interval", "--joint", "--op",
                                  "--points", "--rx", "--ry", "--x", "--y"]),
            "entropy": sorted(shown + info + ["--dist", "--dist-hat", "--set", "--zlogz"]),
            "kld": sorted(shown + info + ["--dist", "--dist-hat", "--set"]),
            "mi": sorted(shown + info + ["--joint", "--set-x", "--set-y"]),
            "moments": sorted(shown + ["--dist", "--rel-tol", "--set"]),
            "tree-train": sorted(["--help", "--stats", "-h"] + info
                                 + ["--data", "--delimiter", "--max-depth", "--min-rows",
                                    "--out", "--seed"]),
            "tree-predict": sorted(shown + ["--data", "--delimiter", "--model"]),
        }


# Random JSON-ish descriptors for the mi command: mostly well-formed models
# and sets with extreme or out-of-range numbers, plus arbitrary JSON values
# and text that is not JSON at all.
_NUMBERS = st.one_of(
    st.floats(-40.0, 40.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 400, 10 ** 400),
    st.sampled_from([0, 1, -1, 0.999, 1e-300, 5e-324, 1e300, 1e308]),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_FIELD = st.one_of(_NUMBERS, _NUMBERS, _JSON)
_GAUSSIAN = st.one_of(st.fixed_dictionaries({"mean": _FIELD, "variance": _FIELD}), _JSON)
_JOINT = st.one_of(
    st.fixed_dictionaries({"kind": st.just("bivariate_gaussian"), "mean_x": _FIELD,
                           "mean_y": _FIELD, "var_x": _FIELD, "var_y": _FIELD,
                           "correlation": _FIELD}),
    st.fixed_dictionaries({"kind": st.just("joint_gaussian_additive"),
                           "input": _GAUSSIAN, "noise": _GAUSSIAN}),
    _JSON)
_DIST = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gaussian"), "mean": _FIELD, "variance": _FIELD}),
    st.fixed_dictionaries({"kind": st.just("uniform"), "lo": _FIELD, "hi": _FIELD}),
    _JSON)
_SET = st.one_of(
    st.fixed_dictionaries({"points": st.lists(_FIELD, max_size=3),
                           "intervals": st.lists(st.lists(_FIELD, min_size=2, max_size=2),
                                                 max_size=2)}),
    _JSON)


def _json_ish(strategy):
    return st.one_of(strategy.map(json.dumps), strategy.map(json.dumps), st.text(max_size=8))


def _assert_exits_cleanly(argv):
    """main(argv) returns 0, or 1 with an error line and no output; no warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert out.getvalue() == ""


# the flags each ps operation reads (the flag table of the README)
_PS_OP_FLAGS = {
    **dict.fromkeys(["eq", "lt", "leq", "neq"], ["--dist", "--x"]),
    "interval": ["--dist", "--interval", "--closed"],
    **dict.fromkeys(["points-union", "points-intersect"], ["--dist", "--points"]),
    **dict.fromkeys(["union", "intersect", "cond-interval"],
                    ["--dist", "--x", "--interval", "--closed"]),
    "cond-point": ["--dist", "--x", "--y"],
}
_FLOAT_TEXT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e308])).map(repr)
_LIST_TEXT = st.one_of(st.lists(_NUMBERS, max_size=3).map(lambda v: ",".join(map(str, v))),
                       st.text(max_size=8))


def test_mi_over_an_interval_wider_than_the_largest_float():
    # found by test_mi_never_raises: hi - lo overflowed in the panel nodes
    _assert_exits_cleanly(["mi", "--joint", ADDITIVE,
                           "--set-x", '{"points": [], "intervals": [[0.0, 1.0]]}',
                           "--set-y", '{"points": [], "intervals": [[-8e307, 1e308]]}'])


class TestRandomDescriptors:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(joint=_json_ish(_JOINT), set_x=_json_ish(_SET), set_y=_json_ish(_SET))
    def test_mi_never_raises(self, joint, set_x, set_y):
        _assert_exits_cleanly(["mi", f"--joint={joint}", f"--set-x={set_x}",
                               f"--set-y={set_y}"])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(op=st.sampled_from(sorted(_PS_OP_FLAGS)), dist=_json_ish(_DIST), x=_FLOAT_TEXT,
           y=_FLOAT_TEXT, interval=_LIST_TEXT, points=_LIST_TEXT, closed=st.booleans())
    def test_ps_never_raises(self, op, dist, x, y, interval, points, closed):
        # each operation gets the flags it reads, and no other, which it would refuse
        values = {"--dist": dist, "--x": x, "--y": y, "--interval": interval, "--points": points}
        flags = _PS_OP_FLAGS[op]
        _assert_exits_cleanly(["ps", f"--op={op}"]
                              + [f"{flag}={values[flag]}" for flag in flags if flag in values]
                              + (["--closed"] if closed and "--closed" in flags else []))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dist=_json_ish(_DIST), dist_hat=st.none() | _json_ish(_DIST), ms=_json_ish(_SET))
    def test_entropy_never_raises(self, dist, dist_hat, ms):
        _assert_exits_cleanly(["entropy", f"--dist={dist}", f"--set={ms}"]
                              + ([] if dist_hat is None else [f"--dist-hat={dist_hat}"]))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dist=_json_ish(_DIST), dist_hat=_json_ish(_DIST), ms=_json_ish(_SET))
    def test_kld_never_raises(self, dist, dist_hat, ms):
        _assert_exits_cleanly(["kld", f"--dist={dist}", f"--dist-hat={dist_hat}", f"--set={ms}"])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dist=_json_ish(_DIST), ms=_json_ish(_SET))
    def test_moments_never_raises(self, dist, ms):
        _assert_exits_cleanly(["moments", f"--dist={dist}", f"--set={ms}"])


# Random tables for tree-train and tree-predict: header names, delimiters and
# numeric or interval cells, then up to two faults: a cell that is junk,
# non-finite or too large for a float, or a row of the wrong length. Blank
# lines go anywhere.
_DELIMITERS = st.sampled_from([",", ";", "\t", " ", "|", "."])
_GOOD_CELL = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-3, 3).map(str),
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 5.0)).map(
        lambda t: f"{t[0]!r}..{t[0] + t[1]!r}"))
_BAD_CELL = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1.7e308", "5e-324", "1e308..1.7e308",
                     "1" + "0" * 400, "3..1", "..", ""]),
    st.text(alphabet=" ,;.|\t-+e019xy", max_size=5))
_HEADER = st.one_of(st.sampled_from([["x1", "x2"], ["x1", "x2", "y"]]),
                    st.lists(st.text(alphabet=" ,;.xy12", max_size=3), min_size=1, max_size=3))


@st.composite
def _tables(draw):
    delimiter = draw(_DELIMITERS)
    header = draw(_HEADER)
    width = len(header)
    rows = draw(st.lists(st.lists(_GOOD_CELL, min_size=width, max_size=width),
                         min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows) - 1))
        if rows[at] and draw(st.booleans()):
            rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(_BAD_CELL)
        else:
            rows[at] = draw(st.lists(_GOOD_CELL, max_size=4))
    lines = [delimiter.join(header)] + [delimiter.join(r) for r in rows]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, "")
    return delimiter, "\n".join(lines) + "\n"


_LEAF_RECORD = st.fixed_dictionaries({"kind": st.just("leaf"), "prediction": _FIELD,
                                      "count": _FIELD})
_TREE_RECORD = st.recursive(
    _LEAF_RECORD | _JSON,
    lambda inner: st.fixed_dictionaries({
        "kind": st.just("split"), "feature": st.sampled_from(["x1", "x2"]) | _FIELD,
        "feature_index": st.integers(-2, 3) | _FIELD, "threshold": _FIELD,
        "gain": st.fixed_dictionaries({"soft": _FIELD, "real": _FIELD}) | _JSON,
        "left": inner, "right": inner}),
    max_leaves=4)
_MODEL = st.fixed_dictionaries({"feature_names": st.just(["x1", "x2"]) | _JSON,
                                "tree": _TREE_RECORD}) | _JSON


class TestRandomTables:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=_tables(), max_depth=st.integers(1, 3), min_rows=st.integers(2, 5))
    def test_train_then_predict_never_raises(self, table, max_depth, min_rows):
        delimiter, text = table
        with tempfile.TemporaryDirectory() as tmp:
            data, model = Path(tmp, "data.csv"), Path(tmp, "model.json")
            data.write_text(text, encoding="utf-8")
            _assert_exits_cleanly(["tree-train", "--data", str(data), "--out", str(model),
                                   "--delimiter", delimiter, "--max-depth", str(max_depth),
                                   "--min-rows", str(min_rows)])
            if model.exists():
                _assert_exits_cleanly(["tree-predict", "--model", str(model),
                                       "--data", str(data), "--delimiter", delimiter])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model_text=_json_ish(_MODEL), table=_tables())
    def test_predict_with_random_model_records_never_raises(self, model_text, table):
        delimiter, text = table
        with tempfile.TemporaryDirectory() as tmp:
            data, model = Path(tmp, "data.csv"), Path(tmp, "model.json")
            data.write_text(text, encoding="utf-8")
            model.write_text(model_text, encoding="utf-8")
            _assert_exits_cleanly(["tree-predict", "--model", str(model),
                                   "--data", str(data), "--delimiter", delimiter])


def test_importing_the_cli_generates_no_record_code_and_loads_no_polynomial_module():
    # every CLI process would pay for either import: the records define their
    # own methods, and the Gauss-Legendre rule is a literal table
    probe = ("import sys, softprob.cli; print(sorted(m for m in sys.modules if m == "
             "'dataclasses' or m.startswith('numpy.polynomial')))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out == "[]\n"
