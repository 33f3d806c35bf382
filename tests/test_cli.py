import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gluecop import (ClaytonCopula, EmpiricalMarginal, FrankCopula,
                     FrechetLowerCopula, FrechetUpperCopula, GumbelCopula,
                     PiecewiseRegressionModel, UniformMarginal, dependence, glue,
                     load_model, piecewise_regression, save_model,
                     simulate_copula, simulate_example1, simulate_example4)
from gluecop import cli
from gluecop.cli import _read_xy_numpy, _read_xy_rows, main, read_xy_csv
from gluecop.empirical import pseudo_observations, sample_dependence_report
from gluecop.errors import DataError

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _TOOL)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def tent_csv(tmp_path, capsys):
    path = tmp_path / "tent.csv"
    code, _, _ = run(capsys, "simulate", "example1", "--theta", "0.5",
                     "--n", "800", "--seed", "1", "--out", str(path))
    assert code == 0
    return path


class TestReadCsv:
    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        s = read_xy_csv(str(p))
        assert s.n == 2 and s.x[1] == 3.0

    def test_no_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n")
        assert read_xy_csv(str(p)).n == 2

    @pytest.mark.parametrize("cell", ["oops", "nan", "inf", "-inf"])
    def test_bad_row_reports_line_number(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"1,2\n{cell},4\n5,6\n")
        with pytest.raises(DataError, match="lines: 2$"):
            read_xy_csv(str(p))

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, command):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.1,0.2\n0.3,nan\n0.5,0.6\n0.7,0.8\n")
        extra = ["--out-model", str(tmp_path / "m.json")] if command == "fit" else []
        code, out, err = run(capsys, command, str(p), *extra)
        assert code == 2
        assert "lines: 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad,rest", [(5, ""), (100_000, " and 99995 more")])
    def test_bad_rows_past_the_fifth_are_counted(self, tmp_path, capsys, bad, rest):
        # numpy 2 writes a float as "np.float64(0.5)", which no reader parses
        p = tmp_path / "d.csv"
        p.write_text("x,y\n" + "np.float64(0.5),1\n" * bad + "0.5,1\n")
        with pytest.raises(DataError) as info:
            read_xy_csv(str(p))
        assert str(info.value) == f"unparseable CSV rows at lines: 2, 3, 4, 5, 6{rest}"
        code, out, err = run(capsys, "analyze", str(p))
        assert (code, out) == (2, "")
        assert err == f"gluecop: data error: {info.value}\n"

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_xy_csv("/nonexistent/path.csv")

    @pytest.mark.parametrize("text", ["\ufeffx,y\n1,2\n3,4\n5,6\n",
                                      "\ufeff1,2\n3,4\n5,6\n"],
                             ids=["header", "no-header"])
    def test_byte_order_mark_keeps_every_row(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        s = read_xy_csv(str(p))
        assert s.x.tolist() == [1.0, 3.0, 5.0] and s.y.tolist() == [2.0, 4.0, 6.0]

    @staticmethod
    def _assert_same_as_row_reader(path):
        try:
            want = _read_xy_rows(path.read_bytes(), str(path))
        except DataError as exc:
            with pytest.raises(DataError) as got:
                read_xy_csv(str(path))
            assert str(got.value) == str(exc)
            return
        got = read_xy_csv(str(path))
        for a, b in ((got.x, want.x), (got.y, want.y)):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes()

    # the same files run through the CLI in tools/same_outputs.py
    @pytest.mark.parametrize("name", list(same_outputs.CSV_EDGE_FILES))
    def test_numpy_parse_is_the_row_reader(self, tmp_path, name):
        p = tmp_path / "d.csv"
        p.write_bytes(same_outputs.CSV_EDGE_FILES[name])
        self._assert_same_as_row_reader(p)

    # the benchmark's three generators, in the format `gluecop simulate` writes
    @pytest.mark.parametrize("name", ["tent", "parabola", "glued-three"])
    def test_generator_csv_is_parsed_by_numpy(self, tmp_path, name):
        if name == "glued-three":
            glued = glue([ClaytonCopula(3.0), FrankCopula(-8.0),
                          GumbelCopula(3.0)], (0.3, 0.65))
            ps = simulate_copula(glued, 2000, seed=5)
            x, y = ps.u, ps.v
        else:
            s = (simulate_example1(2000, 0.6, 5) if name == "tent"
                 else simulate_example4(2000, 0.1, 5))
            x, y = s.x, s.y
        p = tmp_path / "d.csv"
        p.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                       zip(x.tolist(), y.tolist())))
        assert _read_xy_numpy(p.read_bytes()) is not None
        self._assert_same_as_row_reader(p)
        got = read_xy_csv(str(p))
        assert got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("command", ["analyze", "fit", "measures"])
    @pytest.mark.parametrize("content", [
        b"x,y\n0.1,0.2\n0.3," + b"1" * 140_000 + b"\n",
        b"x,y\n0.1,0.2\n0.3,0.\xff4\n",
    ], ids=["cell-over-field-limit", "non-utf8-byte"])
    def test_unparseable_file_is_data_error(self, tmp_path, capsys, command,
                                            content):
        p = tmp_path / "d.csv"
        p.write_bytes(content)
        extra = ["--out-model", str(tmp_path / "m.json")] if command == "fit" else []
        code, out, err = run(capsys, command, str(p), *extra)
        assert code == 2
        assert out == ""
        assert f"cannot parse {p}" in err and "Traceback" not in err


class TestSimulate:
    def test_stdout_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "simulate", "example1", "--n", "5",
                           "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 6

    def test_deterministic(self, capsys):
        a = run(capsys, "simulate", "example4", "--n", "20", "--seed", "9")
        b = run(capsys, "simulate", "example4", "--n", "20", "--seed", "9")
        assert a == b

    def test_n_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "example1", "--n", "0")
        assert code == 1
        assert "error" in err

    def test_unknown_model_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "example9", "--n", "10")
        assert code == 1

    @pytest.mark.parametrize("argv, code_want, err_want", [
        (["example1", "--theta", "1e-320"], 0, ""),
        (["example4", "--k", "1e308"], 1,
         "gluecop: error: sample values must be finite\n"),
    ], ids=["tent-tiny-theta", "parabola-huge-k"])
    def test_overflow_shows_no_numpy_warning(self, tmp_path, capsys, argv,
                                             code_want, err_want):
        code, out, err = run(capsys, "simulate", *argv, "--n", "20000",
                             "--out", str(tmp_path / "s.csv"))
        assert (code, out, err) == (code_want, "", err_want)


class TestAnalyze:
    def test_tent_report(self, tent_csv, capsys):
        code, out, _ = run(capsys, "analyze", str(tent_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["n"] == 800
        assert doc["mixed_dependence"] is True
        assert len(doc["candidates"]) == 1
        assert abs(doc["candidates"][0] - 0.5) < 0.07
        assert abs(doc["rho_hat"]) < 0.2
        assert doc["sigma_hat"] > 0.3

    def test_small_sample_warning_field(self, tmp_path, capsys):
        p = tmp_path / "small.csv"
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{a},{b}" for a, b in rng.uniform(size=(20, 2)))
        p.write_text(rows + "\n")
        code, out, _ = run(capsys, "analyze", str(p))
        assert code == 0
        assert json.loads(out)["warning"] == ("only 20 points; detection is "
                                              "unreliable below 50")

    def test_dependence_classes_are_not_computed(self, tent_csv, capsys,
                                                 monkeypatch):
        # the report holds rho and sigma only, so neither class is needed
        def refuse(*args, **kwargs):
            raise AssertionError("analyze computed a dependence class")

        monkeypatch.setattr(dependence, "classify_quadrant", refuse)
        monkeypatch.setattr(dependence, "classify_regression_dependence", refuse)
        code, out, err = run(capsys, "analyze", str(tent_csv))
        assert (code, err) == (0, "")
        assert {"rho_hat", "sigma_hat"} <= set(json.loads(out))

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nope.csv")
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("flag, value", [("--grid-n", "3"),
                                             ("--persistence", "0"),
                                             ("--tol", "-1"),
                                             ("--tol", "nan")])
    def test_out_of_range_is_usage_error(self, tent_csv, capsys, flag, value):
        code, _, err = run(capsys, "analyze", str(tent_csv), flag, value)
        assert code == 1
        assert "must be >= " in err

    def test_mixed_dependence_uses_the_grid_n_grid(self, tmp_path, capsys):
        # the 512-point empirical diagonal dips below -tol, the 64-point one
        # does not: the flag must come from the grid the crossings use
        path = tmp_path / "ex4.csv"
        assert run(capsys, "simulate", "example4", "--n", "300", "--seed", "0",
                   "--out", str(path))[0] == 0
        verdicts = {}
        for grid_n in ("64", "512"):
            code, out, _ = run(capsys, "analyze", str(path), "--grid-n", grid_n,
                               "--tol", "0.0369")
            assert code == 0
            verdicts[grid_n] = json.loads(out)["mixed_dependence"]
        assert verdicts == {"64": False, "512": True}


class TestDiscreteX:
    """x with 3 distinct values: several diagonal crossings fall inside the
    tie group x = 2 and map to the same break-point candidate, max(x), which
    is dropped."""

    @pytest.fixture()
    def three_level_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 3, size=600).astype(float)
        y = (x - 1.0) ** 2 + 0.1 * rng.normal(size=600)
        path = tmp_path / "d.csv"
        path.write_text("x,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        return path

    def test_analyze_lists_no_duplicate_candidates(self, three_level_csv, capsys):
        code, out, _ = run(capsys, "analyze", str(three_level_csv))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["crossings"]) > len(doc["candidates"]) > 0
        assert len(set(doc["candidates"])) == len(doc["candidates"])
        assert max(read_xy_csv(str(three_level_csv)).x) not in doc["candidates"]

    def test_fit_gives_model_or_data_error(self, three_level_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        code, _, err = run(capsys, "fit", str(three_level_csv),
                           "--out-model", str(model))
        assert "Traceback" not in err
        if code == 0:
            assert run(capsys, "predict", str(model), "--num", "5")[0] == 0
        else:
            assert code == 2 and "data error" in err
            assert not model.exists()


class TestFitPredict:
    def test_round_trip(self, tent_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, out, _ = run(capsys, "fit", str(tent_csv),
                           "--out-model", str(model_path))
        assert code == 0
        assert "frechet-upper" in out and "frechet-lower" in out
        doc = json.loads(model_path.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["segment_copulas"]) == 2

        pred_path = tmp_path / "pred.csv"
        code, _, _ = run(capsys, "predict", str(model_path),
                         "--x-min", "0.05", "--x-max", "0.95",
                         "--num", "91", "--out", str(pred_path))
        assert code == 0
        rows = pred_path.read_text().strip().split("\n")
        assert rows[0] == "x,mu"
        data = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
        tent_true = np.where(data[:, 0] <= 0.5, data[:, 0] / 0.5,
                             (1 - data[:, 0]) / 0.5)
        assert np.sqrt(np.mean((data[:, 1] - tent_true) ** 2)) < 0.05

    @pytest.mark.parametrize("extra, code_want", [([], 0),
                                                  (["--breakpoints", "0.5"], 2)],
                             ids=["fits", "segment too small"])
    def test_small_sample_note_goes_to_stderr(self, tmp_path, capsys, extra,
                                              code_want):
        ps = simulate_copula(ClaytonCopula(3.0), 30, seed=1)
        path = tmp_path / "small.csv"
        rows = zip(ps.u.tolist(), ps.v.tolist())
        path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        code, out, err = run(capsys, "fit", str(path), *extra,
                             "--out-model", str(tmp_path / "m.json"))
        assert code == code_want
        note = ("gluecop: warning: only 30 points; piecewise fitting is "
                "unreliable below 50\n")
        if code == 0:
            assert err == note
            assert out.startswith(" segment ") and len(out.splitlines()) == 2
            assert (tmp_path / "m.json").exists()
        else:  # the note comes first, then the error that ends the run
            assert err.startswith(note)
            assert err[len(note):].startswith("gluecop: data error: segment ")
            assert out == ""

    def test_analyze_candidates_are_fit_break_points(self, tent_csv, tmp_path,
                                                     capsys):
        code, out, _ = run(capsys, "analyze", str(tent_csv))
        assert code == 0
        model_path = tmp_path / "model.json"
        assert run(capsys, "fit", str(tent_csv), "--out-model", str(model_path))[0] == 0
        assert (json.loads(out)["candidates"]
                == json.loads(model_path.read_text())["break_points"])

    def test_explicit_breakpoints_and_families(self, tent_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "fit", str(tent_csv), "--breakpoints", "0.5",
                         "--families", "frechet-upper,frechet-lower,product",
                         "--out-model", str(model_path))
        assert code == 0
        assert json.loads(model_path.read_text())["break_points"] == [0.5]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.5,nan", "abc"])
    def test_bad_breakpoint_is_usage_error(self, tent_csv, tmp_path, capsys,
                                           value):
        model_path = tmp_path / "m.json"
        code, out, err = run(capsys, "fit", str(tent_csv), f"--breakpoints={value}",
                             "--out-model", str(model_path))
        assert code == 1
        assert out == ""
        assert "break-point" in err and "Traceback" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize("argv,code,words", [
        # a value that starts with "-" is a value, not an option
        (["--breakpoints", "-inf"], 1, ["break-points must be finite"]),
        (["--breakpoints", "-0.5,0.3"], 2, ["-0.5", "outside", "x range"]),
        (["--breakpoints=-0.5"], 2, ["-0.5", "outside", "x range"]),
        (["--breakpoints=1.5"], 2, ["1.5", "outside", "x range"]),
        (["--breakpoints=0.3,0.3"], 2, ["0.3", "twice"]),
    ], ids=["space-inf", "space-negative-list", "below", "above", "duplicate"])
    def test_breakpoint_values_are_checked(self, tent_csv, tmp_path, capsys,
                                           argv, code, words):
        model_path = tmp_path / "m.json"
        got, out, err = run(capsys, "fit", str(tent_csv), *argv,
                            "--out-model", str(model_path))
        assert got == code
        assert out == ""
        assert all(w in err for w in words), err
        assert "Traceback" not in err
        assert not model_path.exists()

    def test_unknown_family_is_usage_error(self, tent_csv, tmp_path, capsys):
        code, _, _ = run(capsys, "fit", str(tent_csv), "--families", "gaussian",
                         "--out-model", str(tmp_path / "m.json"))
        assert code == 1

    @pytest.mark.parametrize("families", [",", "", " , "])
    def test_empty_family_list_is_usage_error(self, tent_csv, tmp_path, capsys,
                                              families):
        code, out, err = run(capsys, "fit", str(tent_csv), "--families", families,
                             "--out-model", str(tmp_path / "m.json"))
        assert code == 1
        assert out == ""
        assert "--families list is empty" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_predict_outside_support_nan_vs_strict(self, tent_csv, tmp_path,
                                                   capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "fit", str(tent_csv), "--breakpoints", "0.5",
            "--out-model", str(model_path))
        code, out, err = run(capsys, "predict", str(model_path),
                             "--x-min", "-1", "--x-max", "2", "--num", "7")
        assert code == 0
        assert "outside" in err
        assert "nan" in out
        code, _, _ = run(capsys, "predict", str(model_path), "--x-min", "-1",
                         "--x-max", "2", "--num", "7", "--strict")
        assert code == 2

    def test_predict_bad_range(self, tent_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "fit", str(tent_csv), "--breakpoints", "0.5",
            "--out-model", str(model_path))
        code, _, _ = run(capsys, "predict", str(model_path), "--x-min", "0.9",
                         "--x-max", "0.1")
        assert code == 1


class TestPredictCurve:
    """``predict`` writes the bytes of the ``piecewise_regression`` curve on
    the grid it builds, for both statistics."""

    @pytest.mark.parametrize("statistic", ["median", "mean"])
    @pytest.mark.parametrize("segments", [
        (ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)),
        (FrechetUpperCopula(), FrankCopula(-8.0), FrechetLowerCopula()),
    ], ids=["smooth", "frechet-ends"])
    def test_writes_the_piecewise_curve(self, tmp_path, capsys, segments,
                                        statistic):
        rng = np.random.default_rng(11)
        pm = PiecewiseRegressionModel(
            [0.3, 0.65], segments, UniformMarginal(-0.5, 1.5),
            EmpiricalMarginal(rng.normal(0.2, 1.0, 500)))
        path = tmp_path / "m.json"
        save_model(pm, str(path))
        code, out, err = run(capsys, "predict", str(path), "--num", "201",
                             "--statistic", statistic)
        assert code == 0 and err == ""
        xs = np.linspace(-0.5, 1.5, 201)
        mu = piecewise_regression(load_model(str(path)), xs,
                                  statistic=statistic)
        assert out == "x,mu\n" + "".join(f"{x!r},{m!r}\n"
                                          for x, m in zip(xs.tolist(), mu.tolist()))


def _model_doc(**changes):
    """A valid two-segment model document; a key changed to None is dropped."""
    doc = {"schema_version": 1, "break_points": [0.5],
           "segment_copulas": [{"family": "frechet-upper"},
                               {"family": "frechet-lower"}],
           "marginal_x": {"type": "uniform", "a": 0.0, "b": 1.0},
           "marginal_y": {"type": "uniform", "a": 0.0, "b": 1.0}}
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


def _nested_glue_model(depth):
    """A model document whose one segment is a glued copula with its left
    piece glued again, ``depth`` levels deep; written as text, since
    ``json.dumps`` cannot encode the deepest of them."""
    copula = ('{"family":"glued","gluing_points":[0.5],"pieces":[' * depth
              + '{"family":"product"}' + ',{"family":"product"}]}' * depth)
    return json.dumps(_model_doc(break_points=[], segment_copulas=["*"])).replace(
        '"*"', copula)


class TestPredictInputs:
    @pytest.mark.parametrize("num", ["0", "-3"])
    def test_num_below_one_is_usage_error(self, tmp_path, capsys, num):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc()))
        assert run(capsys, "predict", str(path), "--num", "3")[0] == 0
        code, out, err = run(capsys, "predict", str(path), "--num", num)
        assert code == 1
        assert out == ""
        assert "--num" in err

    @pytest.mark.parametrize("flag", ["--x-min", "--x-max"])
    @pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
    def test_non_finite_grid_bound_is_usage_error(self, tmp_path, capsys, flag,
                                                  value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc()))
        code, out, err = run(capsys, "predict", str(path), flag, value)
        assert code == 1
        assert out == ""
        assert f"{flag} must be finite" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("statistic", ["median", "mean"])
    def test_overflowing_support_span_gives_finite_grid(self, tmp_path, capsys,
                                                        statistic):
        # x on +-1.7e308: max(x) - min(x) overflows to inf
        rng = np.random.default_rng(5)
        x, y = 1.7e308 * rng.uniform(-1.0, 1.0, 400), rng.normal(size=400)
        data, path = tmp_path / "huge.csv", tmp_path / "m.json"
        np.savetxt(data, np.column_stack((x, y)), delimiter=",", header="x,y",
                   comments="")
        assert run(capsys, "fit", str(data), "--out-model", str(path))[0] == 0
        code, out, err = run(capsys, "predict", str(path), "--num", "5",
                             "--statistic", statistic)
        assert code == 0 and err == ""
        xs, mu = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1).T
        assert xs[0] == x.min() and xs[-1] == x.max()
        assert np.all(np.diff(xs) > 0) and np.all(np.isfinite(mu))

    @pytest.mark.parametrize("statistic", ["median", "mean"])
    def test_overflowing_grid_span_gives_finite_grid(self, tmp_path, capsys,
                                                     statistic):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc()))
        code, out, err = run(capsys, "predict", str(path), "--num", "5",
                             "--x-min", "-1e308", "--x-max", "1e308",
                             "--statistic", statistic)
        assert code == 0
        assert err == ("gluecop: warning: 4 grid points outside model support "
                       "emitted as NaN\n")
        xs, mu = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1).T
        assert xs.tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]
        assert np.isnan(mu).tolist() == [True, True, False, True, True]

    @pytest.mark.parametrize("flags", [[], ["--x-min", "0.5", "--x-max", "0.6"]],
                             ids=["default-range", "explicit-range"])
    def test_equal_empirical_knots_are_data_error(self, tmp_path, capsys, flags):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc(
            marginal_x={"type": "empirical", "knots": [0.5, 0.5]})))
        code, out, err = run(capsys, "predict", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err == ("gluecop: data error: empirical marginal needs >= 2 "
                       "distinct values\n")

    @pytest.mark.parametrize("statistic", ["median", "mean"])
    @pytest.mark.parametrize("side", ["marginal_x", "marginal_y"])
    def test_overflowing_uniform_span_is_data_error(self, tmp_path, capsys,
                                                   side, statistic):
        # b - a overflows: the median exited 1 after two RuntimeWarnings, and
        # the mean on such a y marginal exited 0 writing inf for every mu
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc(
            break_points=[], segment_copulas=[{"family": "frank", "theta": -8.0}],
            **{side: {"type": "uniform", "a": -1e308, "b": 1e308}})))
        code, out, err = run(capsys, "predict", str(path), "--statistic", statistic)
        assert code == 2
        assert out == ""
        assert err == ("gluecop: data error: uniform marginal needs a finite "
                       "span b - a\n")

    @pytest.mark.parametrize("text", [
        None,
        "[1, 2]",
        json.dumps(_model_doc(break_points=None)),
        json.dumps(_model_doc(segment_copulas=[{"family": "clayton", "theta": -5.0},
                                               {"family": "product"}])),
        json.dumps(_model_doc(break_points=[], segment_copulas=[
            {"family": "glued", "gluing_points": [float("nan")],
             "pieces": [{"family": "frechet-upper"}, {"family": "frechet-lower"}]}])),
        json.dumps(_model_doc(marginal_y=[0.0, 1.0])),
        json.dumps(_model_doc(break_points=[0.6, 0.4], segment_copulas=[
            {"family": "frechet-upper"}, {"family": "product"},
            {"family": "frechet-lower"}])),
        json.dumps(_model_doc(break_points=[-0.5])),
    ], ids=["missing-file", "json-array", "no-break-points", "bad-theta",
            "nan-gluing-point", "marginal-not-object", "decreasing-break-points",
            "break-point-below-support"])
    def test_malformed_model_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2
        assert out == ""
        assert "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("changes, message", [
        ({"segment_copulas": [{"family": "clayton", "theta": True},
                              {"family": "frechet-lower"}]},
         "theta must be a number within float range, not True"),
        ({"marginal_x": {"type": "uniform", "a": False, "b": 1.0}},
         "a must be a number within float range, not False"),
        ({"break_points": [True]},
         "each of break_points must be a number within float range, not True"),
        ({"marginal_y": {"type": "empirical", "knots": [[0, 1], [2, 3]]}},
         "knots must be a flat list of numbers"),
        ({"marginal_y": {"type": "empirical", "knots": [False, True]}},
         "knots must be a flat list of numbers"),
        ({"marginal_y": {"type": "empirical", "knots": [True, 1.5]}},
         "knots must be a flat list of numbers"),
    ], ids=["theta-true", "a-false", "break-point-true", "knots-nested",
            "knots-bools", "knots-true-among-floats"])
    def test_non_number_in_model_is_data_error(self, tmp_path, capsys, changes,
                                               message):
        # each of these once loaded as a number and exited 0
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc(**changes)))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2
        assert out == ""
        assert err == f"gluecop: data error: malformed model document: {message}\n"

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        _nested_glue_model(500),
        _nested_glue_model(65),
    ], ids=["brackets", "glued-500-deep", "glued-65-deep"])
    def test_deeply_nested_model_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2
        assert out == ""
        assert "data error" in err and "Traceback" not in err


    @pytest.mark.parametrize("break_points, segments, named", [
        ([-0.5], 2, "break-point -0.5 has gluing point F_X(b) = 0.0;"),
        ([0.6, 0.4], 3, "break-point 0.4 has gluing point F_X(b) = 0.4;"),
    ], ids=["below-support", "decreasing"])
    def test_misplaced_break_point_is_named(self, tmp_path, capsys, break_points,
                                            segments, named):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_model_doc(
            break_points=break_points,
            segment_copulas=[{"family": "product"}] * segments)))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2
        assert out == ""
        assert named in err and "strictly increasing in (0, 1)" in err
        assert err.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["simulate", "example1", "--n", "5", "--out"],
        ["analyze", "{csv}", "--out"],
        ["measures", "{csv}", "--out"],
        ["fit", "{csv}", "--breakpoints", "0.5", "--out-model"],
        ["predict", "{model}", "--out"],
    ], ids=["simulate", "analyze", "measures", "fit", "predict"])
    def test_unwritable_path_is_data_error(self, tent_csv, tmp_path, capsys, argv):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(_model_doc()))
        target = str(tmp_path / "missing" / "out")
        argv = [a.format(csv=tent_csv, model=model_path) for a in argv]
        code, out, err = run(capsys, *argv, target)
        assert code == 2
        assert out == ""
        assert f"data error: cannot write {target}: " in err
        assert "Traceback" not in err


class TestTypedErrorPath:
    """Inputs that ended in a traceback or in invalid JSON: each now exits
    with a documented code and one error line.  Every count here fails
    before numpy allocates anything: 10**15 float64 values are 7.11 PiB,
    beyond any address space, and 10**20 is refused outright."""

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", "example1", "--n", "5",
                             "--seed", "-1")
        assert (code, out, err) == (1, "", "gluecop: error: seed must be >= 0\n")

    @pytest.mark.parametrize("count", [10**20, 10**15], ids=["1e20", "1e15"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "example1", "--n"],
        ["predict", "{model}", "--num"],
        ["analyze", "{csv}", "--grid-n"],
    ], ids=["simulate", "predict", "analyze"])
    def test_oversized_count_is_out_of_memory(self, tent_csv, tmp_path, capsys,
                                              argv, count):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(_model_doc()))
        argv = [a.format(csv=tent_csv, model=model_path) for a in argv]
        code, out, err = run(capsys, *argv, str(count))
        assert code == 3
        assert out == ""
        assert err.startswith("gluecop: numerical error: out of memory: ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_non_finite_report_is_numerical_error(self, tmp_path, capsys,
                                                  monkeypatch, to_file):
        # no family's report holds a non-finite number, so one is planted
        monkeypatch.setattr(dependence, "spearman_rho", lambda c: float("nan"))
        target = tmp_path / "r.json"
        extra = ["--out", str(target)] if to_file else []
        code, out, err = run(capsys, "measures", "--family", "clayton",
                             "--theta", "2", *extra)
        assert code == 3
        assert out == ""
        assert err == ("gluecop: numerical error: a non-finite number (NaN or "
                       "infinity) cannot be written as JSON\n")
        assert not target.exists()

    def test_dataset_report_is_the_library_report(self, tent_csv, capsys):
        code, out, _ = run(capsys, "measures", str(tent_csv))
        assert code == 0
        report = sample_dependence_report(pseudo_observations(read_xy_csv(str(tent_csv))))
        assert json.loads(out) == {"schema_version": 1, **report.to_dict()}


def _overflow_first(f):
    """``f`` that overflows a numpy multiplication before it runs."""
    def wrapped(*args, **kwargs):
        np.multiply(np.array([1e308]), 10.0)
        return f(*args, **kwargs)
    return wrapped


class TestOneReportingPath:
    """``main`` prints every warning a command raises as one line, before the
    error line of a command that then fails; filters that make a warning an
    error still apply."""

    @pytest.mark.parametrize("times", [1, 2])
    def test_user_warning_is_one_line(self, tent_csv, capsys, monkeypatch,
                                      times):
        expected = run(capsys, "measures", str(tent_csv))

        def measure(ps):
            for _ in range(times):  # repeats from one place all show
                warnings.warn("planted note")
            return sample_dependence_report(ps)

        monkeypatch.setattr(cli, "sample_dependence_report", measure)
        code, out, err = run(capsys, "measures", str(tent_csv))
        assert (code, out) == expected[:2]
        assert err == times * "gluecop: warning: planted note\n"

    def test_warning_line_comes_before_error_line(self, tent_csv, capsys,
                                                  monkeypatch):
        def fail(ps):
            warnings.warn("planted note")
            raise DataError("planted failure")

        monkeypatch.setattr(cli, "sample_dependence_report", fail)
        code, out, err = run(capsys, "measures", str(tent_csv))
        assert (code, out) == (2, "")
        assert err == ("gluecop: warning: planted note\n"
                       "gluecop: data error: planted failure\n")

    @pytest.mark.parametrize("name, argv", [
        ("simulate_example1", ["simulate", "example1", "--n", "5"]),
        ("crossing_report", ["analyze", "{csv}"]),
        ("fit_piecewise", ["fit", "{csv}", "--out-model", "{out}"]),
        ("median_regression", ["predict", "{model}"]),
        ("sample_dependence_report", ["measures", "{csv}"]),
    ], ids=["simulate", "analyze", "fit", "predict", "measures"])
    def test_runtime_warning_still_raises(self, tent_csv, tmp_path, capsys,
                                          monkeypatch, name, argv):
        # this suite makes every RuntimeWarning an error
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(_model_doc()))
        argv = [a.format(csv=tent_csv, model=model_path, out=tmp_path / "o.json")
                for a in argv]
        monkeypatch.setattr(cli, name, _overflow_first(getattr(cli, name)))
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(argv)

    @pytest.mark.filterwarnings("always::RuntimeWarning")
    def test_shown_runtime_warning_is_one_line(self, tent_csv, capsys,
                                               monkeypatch):
        monkeypatch.setattr(cli, "sample_dependence_report",
                            _overflow_first(sample_dependence_report))
        code, _, err = run(capsys, "measures", str(tent_csv))
        assert code == 0
        assert err == "gluecop: warning: overflow encountered in multiply\n"


#: the copulas whose samples the analyze/measures agreement is checked on
DATA_COPULAS = [ClaytonCopula(3.0), ClaytonCopula(0.5), GumbelCopula(3.0),
                FrankCopula(-8.0), FrankCopula(2.0)]


class TestOneDataReport:
    """``analyze`` and ``measures`` report one rho and one sigma of a
    dataset: the empirical copula's, on one quadrature grid."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("c", DATA_COPULAS, ids=repr)
    def test_rho_within_sigma_and_equal_in_both(self, tmp_path, capsys, c, n,
                                                seed):
        ps = simulate_copula(c, n, seed=seed)
        path = tmp_path / "d.csv"
        rows = zip(ps.u.tolist(), ps.v.tolist())
        path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        analyze = json.loads(out)
        code, out, _ = run(capsys, "measures", str(path))
        assert code == 0
        measures = json.loads(out)
        assert abs(analyze["rho_hat"]) <= analyze["sigma_hat"]
        assert abs(measures["rho"]) <= measures["sigma"]
        assert analyze["rho_hat"] == measures["rho"]
        assert analyze["sigma_hat"] == measures["sigma"]


class TestConstantColumn:
    @pytest.mark.parametrize("column", ["x", "y"])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["measures"], ["fit", "--out-model", "m.json"],
        ["fit", "--breakpoints", "0.5", "--out-model", "m.json"],
    ], ids=["analyze", "measures", "fit", "fit-breakpoints"])
    def test_constant_column_is_data_error(self, tmp_path, capsys, monkeypatch,
                                           argv, column):
        monkeypatch.chdir(tmp_path)
        varying = np.random.default_rng(3).uniform(size=200).tolist()
        rows = [(1.0, v) if column == "x" else (v, 1.0) for v in varying]
        (tmp_path / "d.csv").write_text(
            "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        code, out, err = run(capsys, argv[0], "d.csv", *argv[1:])
        assert code == 2
        assert out == ""
        assert "constant" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_constant_y_in_one_segment_is_data_error(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(3)
        x = rng.uniform(size=400)
        y = np.where(x <= 0.5, 1.0, rng.uniform(size=400))
        rows = zip(x.tolist(), y.tolist())
        (tmp_path / "d.csv").write_text(
            "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        code, out, err = run(capsys, "fit", "d.csv", "--breakpoints", "0.5",
                             "--out-model", "m.json")
        assert code == 2
        assert out == ""
        assert "constant" in err and f"{x.min():g}, 0.5]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


class TestMeasures:
    def test_family_report(self, capsys):
        code, out, _ = run(capsys, "measures", "--family", "clayton",
                           "--theta", "3.0")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"schema_version", "rho", "sigma", "quadrant_class",
                            "regression_class"}
        assert doc["quadrant_class"] == "PQD"
        assert doc["regression_class"] == "PRD"
        assert doc["sigma"] == pytest.approx(doc["rho"], abs=2e-3)

    # the closed forms overflow (Plackett's cancels) at these theta; numpy
    # warnings are errors here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, theta", [
        ("clayton", "200"), ("clayton", "2000"),
        ("gumbel", "200"), ("gumbel", "2000"),
        ("frank", "1000"), ("frank", "-1000"),
        ("plackett", "1e16"), ("plackett", "1e300"),
    ])
    def test_large_theta_family_report(self, capsys, family, theta):
        code, out, err = run(capsys, "measures", "--family", family,
                             "--theta", theta)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        if theta.startswith("-"):
            assert (doc["quadrant_class"], doc["regression_class"]) == ("NQD", "NRD")
            assert doc["rho"] <= -0.999
        else:
            assert (doc["quadrant_class"], doc["regression_class"]) == ("PQD", "PRD")
            assert doc["rho"] >= 0.999

    def test_dataset_report(self, tent_csv, capsys):
        code, out, _ = run(capsys, "measures", str(tent_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["quadrant_class"] == "NEITHER"
        assert doc["sigma"] > 0.3

    def test_both_sources_is_usage_error(self, tent_csv, capsys):
        code, _, _ = run(capsys, "measures", str(tent_csv), "--family",
                         "clayton", "--theta", "2")
        assert code == 1

    def test_neither_source_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "measures")
        assert code == 1

    @pytest.mark.parametrize("family, theta, message", [
        ("clayton", "-2", "Clayton requires theta > 0"),
        ("example1", "0", "tent copula requires theta in (0, 1)"),
        ("example1", "1", "tent copula requires theta in (0, 1)"),
        ("example1", "nan", "tent copula requires theta in (0, 1)"),
    ])
    def test_bad_theta_is_usage_error(self, capsys, family, theta, message):
        code, out, err = run(capsys, "measures", "--family", family,
                             "--theta", theta)
        assert code == 1
        assert out == ""
        assert message in err

    # recorded from the hand-written tent copula that M glued to W replaced
    @pytest.mark.parametrize("theta, text", [
        ("0.2", '{"quadrant_class":"NEITHER","regression_class":"NEITHER",'
                '"rho":-0.6000009208917616,"schema_version":1,'
                '"sigma":0.680001524090767}'),
        ("0.5", '{"quadrant_class":"NEITHER","regression_class":"NEITHER",'
                '"rho":0.0,"schema_version":1,"sigma":0.5000038146972656}'),
        ("0.9", '{"quadrant_class":"NEITHER","regression_class":"NEITHER",'
                '"rho":0.8000015392899513,"schema_version":1,'
                '"sigma":0.8200044259428978}'),
    ])
    def test_tent_family_report_is_pinned(self, capsys, theta, text):
        code, out, _ = run(capsys, "measures", "--family", "example1",
                           "--theta", theta)
        assert code == 0
        assert out == text + "\n"
