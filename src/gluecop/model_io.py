"""JSON serialization for copulas, marginals and piecewise models.

The on-disk document is versioned and canonical: keys are sorted and floats
round-trip exactly (repr-based), so serialize -> parse -> serialize is
byte-identical.
"""

from __future__ import annotations

import json

from .copulas import (FAMILY_CONSTRUCTORS, PARAMETRIC_FAMILIES, Copula,
                      make_copula)
from .errors import DataError, DomainError, NumericalError, ParameterError
from .gluing import GluedCopula
from .marginals import EmpiricalMarginal, Marginal, UniformMarginal
from .regression import PiecewiseRegressionModel

SCHEMA_VERSION = 1
#: deepest nesting of glued copulas a document may hold; evaluating a glued
#: copula recurses once per level, so this keeps far below Python's limit
MAX_GLUE_DEPTH = 64


def copula_to_dict(c: Copula) -> dict:
    if isinstance(c, GluedCopula):
        return {
            "family": "glued",
            "gluing_points": [float(t) for t in c.gluing_points],
            "pieces": [copula_to_dict(p) for p in c.pieces],
        }
    if c.name not in FAMILY_CONSTRUCTORS:
        raise DataError(f"copula {c.name!r} is not serializable")
    doc: dict = {"family": c.name}
    if c.name in PARAMETRIC_FAMILIES:
        doc["theta"] = float(c.theta)
    return doc


def copula_from_dict(doc: dict) -> Copula:
    return _copula_from_dict(doc, 0)


def _copula_from_dict(doc: dict, depth: int) -> Copula:
    family = doc.get("family")
    if family == "glued":
        if depth >= MAX_GLUE_DEPTH:
            raise DataError(f"glued copula nested deeper than {MAX_GLUE_DEPTH} levels")
        return GluedCopula([_copula_from_dict(p, depth + 1) for p in doc["pieces"]],
                           doc["gluing_points"])
    return make_copula(family, doc.get("theta"))


def marginal_to_dict(m: Marginal) -> dict:
    if isinstance(m, UniformMarginal):
        return {"type": "uniform", "a": m.a, "b": m.b}
    if isinstance(m, EmpiricalMarginal):
        return {"type": "empirical", "knots": m.knots_x.tolist()}
    raise DataError(f"marginal {m!r} is not serializable")


def marginal_from_dict(doc: dict) -> Marginal:
    kind = doc.get("type")
    if kind == "uniform":
        return UniformMarginal(doc["a"], doc["b"])
    if kind == "empirical":
        return EmpiricalMarginal(doc["knots"])
    raise DataError(f"unknown marginal type {kind!r}")


def model_to_dict(pm: PiecewiseRegressionModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "break_points": [float(b) for b in pm.break_points],
        "segment_copulas": [copula_to_dict(c) for c in pm.segment_copulas],
        "marginal_x": marginal_to_dict(pm.marginal_x),
        "marginal_y": marginal_to_dict(pm.marginal_y),
    }


def model_from_dict(doc: dict) -> PiecewiseRegressionModel:
    """Rebuild a model; any malformed document raises ``DataError``."""
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported model schema version {version!r}")
    try:
        return PiecewiseRegressionModel(
            break_points=tuple(doc["break_points"]),
            segment_copulas=tuple(copula_from_dict(c) for c in doc["segment_copulas"]),
            marginal_x=marginal_from_dict(doc["marginal_x"]),
            marginal_y=marginal_from_dict(doc["marginal_y"]),
        )
    except (KeyError, AttributeError, TypeError, ValueError, DomainError,
            ParameterError) as exc:
        raise DataError(f"malformed model document: {exc!r}") from exc


def dumps_canonical(doc: dict) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance.  JSON has
    no NaN or infinity, so a non-finite number is a ``NumericalError``."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("a non-finite number (NaN or infinity) cannot be "
                             "written as JSON") from None


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is a ``DataError``."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_model(pm: PiecewiseRegressionModel, path: str) -> None:
    write_text(path, dumps_canonical(model_to_dict(pm)))


def load_model(path: str) -> PiecewiseRegressionModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"invalid model JSON: {exc}") from exc
    return model_from_dict(doc)
