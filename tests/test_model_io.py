import json

import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    DataError,
    EmpiricalMarginal,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    IndependenceCopula,
    NumericalError,
    PiecewiseRegressionModel,
    UniformMarginal,
    copula_from_dict,
    copula_to_dict,
    glue,
    load_model,
    model_from_dict,
    model_to_dict,
    piecewise_regression,
    save_model,
)
from gluecop.model_io import (MAX_GLUE_DEPTH, dumps_canonical, marginal_from_dict,
                              marginal_to_dict)
from oracles import tent_cdf


def tent_model():
    return PiecewiseRegressionModel(
        break_points=(0.5,),
        segment_copulas=(FrechetUpperCopula(), FrechetLowerCopula()),
        marginal_x=UniformMarginal(),
        marginal_y=UniformMarginal(),
    )


class TestCopulaRoundTrip:
    @pytest.mark.parametrize("c", [IndependenceCopula(), FrechetUpperCopula(),
                                   ClaytonCopula(2.5), FrankCopula(-3.0)],
                             ids=lambda c: repr(c))
    def test_simple_families(self, c):
        back = copula_from_dict(copula_to_dict(c))
        t = np.linspace(0, 1, 21)
        U, V = np.meshgrid(t, t, indexing="ij")
        assert np.array_equal(back.cdf(U, V), c.cdf(U, V))

    def test_glued_recursion(self):
        g = glue([ClaytonCopula(2.0), glue([FrechetUpperCopula(),
                                            FrankCopula(4.0)], [0.5])], [0.3])
        back = copula_from_dict(copula_to_dict(g))
        t = np.linspace(0, 1, 21)
        U, V = np.meshgrid(t, t, indexing="ij")
        assert np.array_equal(back.cdf(U, V), g.cdf(U, V))

    def test_tent_document_loads(self):
        c = copula_from_dict({"family": "example1", "theta": 0.4})
        t = np.linspace(0, 1, 101)
        U, V = np.meshgrid(t, t, indexing="ij")
        assert np.max(np.abs(c.cdf(U, V) - tent_cdf(0.4, U, V))) <= 1e-12

    def test_tent_is_written_as_its_gluing(self):
        c = copula_from_dict({"family": "example1", "theta": 0.4})
        assert copula_to_dict(c) == {
            "family": "glued", "gluing_points": [0.4],
            "pieces": [{"family": "frechet-upper"}, {"family": "frechet-lower"}]}

    def test_glue_nesting_bound(self):
        doc = {"family": "product"}
        for _ in range(MAX_GLUE_DEPTH):
            doc = {"family": "glued", "gluing_points": [0.5],
                   "pieces": [doc, {"family": "product"}]}
        assert copula_from_dict(doc).cdf(0.3, 0.6) == pytest.approx(0.18)
        too_deep = {"family": "glued", "gluing_points": [0.5],
                    "pieces": [doc, {"family": "product"}]}
        with pytest.raises(DataError, match="nested deeper"):
            copula_from_dict(too_deep)

    def test_unserializable_copula(self):
        from gluecop import Example4Model
        with pytest.raises(DataError):
            copula_to_dict(Example4Model().copula())


class TestMarginalRoundTrip:
    def test_uniform(self):
        m = marginal_from_dict(marginal_to_dict(UniformMarginal(2, 5)))
        assert m.cdf(3.5) == pytest.approx(0.5)

    def test_empirical(self):
        src = EmpiricalMarginal([3.0, 1.0, 4.0, 1.5])
        m = marginal_from_dict(marginal_to_dict(src))
        xs = np.linspace(0.5, 4.5, 41)
        assert np.array_equal(m.cdf(xs), src.cdf(xs))

    def test_unknown_type(self):
        with pytest.raises(DataError):
            marginal_from_dict({"type": "gaussian"})


class TestModelRoundTrip:
    def test_predictions_survive_round_trip(self, tmp_path):
        pm = tent_model()
        path = tmp_path / "model.json"
        save_model(pm, str(path))
        back = load_model(str(path))
        xs = np.linspace(0.05, 0.95, 19)
        assert np.array_equal(piecewise_regression(back, xs),
                              piecewise_regression(pm, xs))

    def test_canonical_serialization_is_byte_identical(self, tmp_path):
        pm = tent_model()
        doc = model_to_dict(pm)
        text = dumps_canonical(doc)
        reparsed = json.loads(text)
        assert dumps_canonical(reparsed) == text
        assert dumps_canonical(model_to_dict(model_from_dict(reparsed))) == text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_is_numerical_error(self, value):
        # JSON has no NaN or infinity
        for doc in ({"rho": value, "n": 3}, {"break_points": [0.5, value]}):
            with pytest.raises(NumericalError, match="non-finite number"):
                dumps_canonical(doc)

    def test_schema_version_checked(self):
        doc = model_to_dict(tent_model())
        # True and 1.0 compare equal to 1 but are not the integer 1
        for version in (99, True, 1.0, "1", None):
            doc["schema_version"] = version
            with pytest.raises(DataError,
                               match="unsupported model schema version"):
                model_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_model(str(path))

    def test_empirical_marginals_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        x = rng.uniform(size=100)
        pm = PiecewiseRegressionModel(
            break_points=(0.4,),
            segment_copulas=(ClaytonCopula(2.0), FrankCopula(-3.0)),
            marginal_x=EmpiricalMarginal(x),
            marginal_y=EmpiricalMarginal(x**2 + 1),
        )
        path = tmp_path / "m.json"
        save_model(pm, str(path))
        back = load_model(str(path))
        xs = np.linspace(0.1, 0.9, 9)
        assert np.allclose(piecewise_regression(back, xs),
                           piecewise_regression(pm, xs), atol=1e-12)


def _doc(**changes):
    """A valid two-segment document with empirical marginals, ``changes``
    applied to its top-level keys."""
    doc = {"schema_version": 1, "break_points": [0.5],
           "segment_copulas": [{"family": "clayton", "theta": 2.0},
                               {"family": "frank", "theta": -3.0}],
           "marginal_x": {"type": "empirical", "knots": [0.0, 0.25, 0.75, 1.0]},
           "marginal_y": {"type": "uniform", "a": 0.0, "b": 1.0}}
    doc.update(changes)
    return doc


def _bad_knots(knots):
    return _doc(marginal_x={"type": "empirical", "knots": knots})


class TestNumbersAreNumbers:
    """A JSON bool, string, list or out-of-range integer where the document
    holds a number is a ``DataError``; it once loaded as a number."""

    @pytest.mark.parametrize("doc, message", [
        (_doc(segment_copulas=[{"family": "clayton", "theta": True},
                               {"family": "product"}]),
         "theta must be a number within float range, not True"),
        (_doc(segment_copulas=[{"family": "clayton", "theta": "2"},
                               {"family": "product"}]),
         "theta must be a number within float range, not '2'"),
        (_doc(segment_copulas=[{"family": "clayton", "theta": 10 ** 400},
                               {"family": "product"}]),
         # the value is cut to its first 40 characters
         "theta must be a number within float range, not 1" + "0" * 39),
        (_doc(marginal_y={"type": "uniform", "a": False, "b": 1.0}),
         "a must be a number within float range, not False"),
        (_doc(marginal_y={"type": "uniform", "a": 0.0, "b": [1.0]}),
         "b must be a number within float range, not [1.0]"),
        (_doc(break_points=[True]),
         "each of break_points must be a number within float range, not True"),
        (_doc(break_points=[10 ** 400]),
         "each of break_points must be a number within float range, not 1"
         + "0" * 39),
        (_doc(break_points="0.5"), "break_points must be a list"),
        (_doc(segment_copulas=[{"family": "glued", "gluing_points": [True], "pieces": [
            {"family": "product"}, {"family": "product"}]}, {"family": "product"}]),
         "each of gluing_points must be a number within float range, not True"),
        (_bad_knots([[0, 1], [2, 3]]), "knots must be a flat list of numbers"),
        (_bad_knots([False, True]), "knots must be a flat list of numbers"),
        (_bad_knots(["0.25", "0.75"]), "knots must be a flat list of numbers"),
        (_bad_knots([0, 2 ** 64]), "knots must be a flat list of numbers"),
        (_bad_knots([0, None]), "knots must be a flat list of numbers"),
        (_bad_knots("0.25"), "knots must be a flat list of numbers"),
        (_bad_knots([True, 1.5]), "knots must be a flat list of numbers"),
        (_bad_knots([1, False]), "knots must be a flat list of numbers"),
        (_bad_knots([0.5, [1.5]]), "knots must be a flat list of numbers"),
    ], ids=["theta-true", "theta-string", "theta-huge", "a-false", "b-list",
            "break-point-true", "break-point-huge", "break-points-string",
            "gluing-point-true", "knots-nested", "knots-bools", "knots-strings",
            "knots-beyond-int64", "knots-null", "knots-string",
            "knots-true-among-floats", "knots-false-among-ints",
            "knots-list-among-floats"])
    def test_not_a_number_is_data_error(self, doc, message):
        with pytest.raises(DataError) as info:
            model_from_dict(doc)
        assert str(info.value) == f"malformed model document: {message}"

    def test_ragged_knots_are_data_error(self):
        with pytest.raises(DataError) as info:
            model_from_dict(_bad_knots([[0, 1], [2]]))
        assert str(info.value) == ("malformed model document: knots must be "
                                   "a flat list of numbers")

    def test_integers_load_as_floats(self):
        doc = _doc(break_points=[1], segment_copulas=[
            {"family": "clayton", "theta": 2}, {"family": "frank", "theta": -3}],
            marginal_x={"type": "empirical", "knots": [0, 1, 2, 3]},
            marginal_y={"type": "uniform", "a": 0, "b": 1})
        assert model_to_dict(model_from_dict(doc)) == _doc(
            break_points=[1.0], marginal_x={"type": "empirical",
                                            "knots": [0.0, 1.0, 2.0, 3.0]})

    def test_valid_document_resaves_byte_identically(self):
        knots = np.sort(np.random.default_rng(5).normal(size=1000)).tolist()
        text = dumps_canonical(_doc(marginal_x={"type": "empirical", "knots": knots},
                                    break_points=[0.1]))
        assert dumps_canonical(model_to_dict(model_from_dict(json.loads(text)))) == text
