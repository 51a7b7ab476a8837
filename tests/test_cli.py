"""Tests for the command-line interface."""

import json
import math

import pytest

from softprob.cli import main

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

    def test_missing_required_input_fails(self, capsys):
        code, out, err = _run(capsys, ["ps", "--op", "eq", "--dist", UNIFORM_01])
        assert code == 1
        assert err.startswith("error:")
        code, _, err = _run(capsys, ["ps", "--op", "interval", "--dist", UNIFORM_01])
        assert code == 1
        assert err.startswith("error:")


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
        args = ["mi", "--joint", ADDITIVE,
                "--set-x", '{"points": [0], "intervals": [[1, 2]]}',
                "--set-y", '{"points": [0], "intervals": [[1, 2]]}']
        _, sym, _ = _run_json(capsys, args + ["--form", "symmetric"])
        _, cond, _ = _run_json(capsys, args + ["--form", "conditional"])
        assert cond["mi"]["soft"] == pytest.approx(0.055159, abs=1e-5)
        assert cond["mi"]["real"] == pytest.approx(0.042381, abs=1e-5)
        assert sym["mi"]["soft"] == pytest.approx(cond["mi"]["soft"], abs=1e-8)
        assert sym["mi"]["real"] == pytest.approx(cond["mi"]["real"], abs=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", ["symmetric", "conditional"])
    def test_mi_far_point_fails_without_warnings(self, capsys, form):
        code, _, err = _run(capsys, ["mi", "--joint", ADDITIVE, "--form", form,
                                     "--set-x", '{"points": [1e200]}',
                                     "--set-y", '{"points": [0]}'])
        assert code == 1
        assert err.startswith("error:")

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


TRAIN_CSV = "\n".join(["x1,x2,y"] + [
    f"{i * 0.1:.3f},{(i * 7 % 11) * 0.1:.3f},{i * 0.1 + 0.05:.3f}"
    for i in range(24)
]) + "\n0.05..0.15,0.3,0.1\n"


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
        data.write_text("x1,y\n1e308,1\n-1e308,2\n1e308,3\n-1e308,4\n1,5\n",
                        encoding="utf-8")
        code, out, err = _run(capsys, ["tree-train", "--data", str(data)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

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


class TestErrorHandling:
    def test_bad_json_descriptor(self, capsys):
        code, _, err = _run(capsys, ["ps", "--op", "eq", "--dist", "{nope",
                                     "--x", "0"])
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_distribution_kind(self, capsys):
        code, _, err = _run(capsys, ["ps", "--op", "eq", "--dist",
                                     '{"kind": "cauchy"}', "--x", "0"])
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["table1", "--format", "bogus"])
