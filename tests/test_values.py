"""The value objects: construction, equality, hash, repr and immutability.

The expected field names and repr texts are those the classes had as frozen
dataclasses, so the plain classes keep every behaviour callers could see.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from polyderive.derived import (
    DerivedPolygon,
    HexType,
    PlanarityReport,
    PlaneDecomposition,
    SecondDerivativeResult,
    derive,
)
from polyderive.generators import GenConfig
from polyderive.oracle import FloatMismatch, FloatValidation
from polyderive.polygon import GenericityReport, Polygon
from polyderive.regularity import RegularityVerdict, SupportBasis, SupportCheck, SupportSystem
from polyderive.suites import SuiteResult
from polyderive.vectors import Vec3

F = Fraction
U = Vec3(F(1), F(0), F(0))
V = Vec3(F(0), F(1, 2), F(0))
W = Vec3(F(0), F(0), F(-3))
U_REPR = "Vec3(x=Fraction(1, 1), y=Fraction(0, 1), z=Fraction(0, 1))"
V_REPR = "Vec3(x=Fraction(0, 1), y=Fraction(1, 2), z=Fraction(0, 1))"
W_REPR = "Vec3(x=Fraction(0, 1), y=Fraction(0, 1), z=Fraction(-3, 1))"
ZERO_REPR = "Vec3(x=Fraction(0, 1), y=Fraction(0, 1), z=Fraction(0, 1))"
MISMATCH = FloatMismatch("deltas[1]", "3 != 4")

# (class, keyword arguments without the defaulted fields, every field name,
# repr of the instance they build).
CASES = [
    (
        Vec3,
        dict(x=F(1), y=F(-2, 3), z=F(0)),
        ("x", "y", "z"),
        "Vec3(x=Fraction(1, 1), y=Fraction(-2, 3), z=Fraction(0, 1))",
    ),
    (
        Polygon,
        dict(vertices=[U, V, W]),
        ("vertices",),
        f"Polygon(vertices=({U_REPR}, {V_REPR}, {W_REPR}))",
    ),
    (
        GenericityReport,
        dict(ok=True),
        ("ok", "index", "kind"),
        "GenericityReport(ok=True, index=None, kind=None)",
    ),
    (
        DerivedPolygon,
        dict(unscaled=[U, V, W]),
        ("unscaled", "scale"),
        f"DerivedPolygon(unscaled=({U_REPR}, {V_REPR}, {W_REPR}), scale=Fraction(1, 1))",
    ),
    (
        PlanarityReport,
        dict(planar=True),
        ("planar", "witness"),
        "PlanarityReport(planar=True, witness=None)",
    ),
    (
        HexType,
        dict(ratio=(F(1), F(2), F(-1, 2))),
        ("ratio",),
        "HexType(ratio=(Fraction(1, 1), Fraction(2, 1), Fraction(-1, 2)))",
    ),
    (
        PlaneDecomposition,
        dict(
            normal=W,
            odd_offsets=(F(0), F(0), F(0)),
            even_offsets=(F(1), F(1), F(1)),
            projections=(U, V, U),
            projected_area_vector=Vec3(F(0), F(0), F(0)),
        ),
        ("normal", "odd_offsets", "even_offsets", "projections", "projected_area_vector"),
        f"PlaneDecomposition(normal={W_REPR}, "
        "odd_offsets=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
        "even_offsets=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), "
        f"projections=({U_REPR}, {V_REPR}, {U_REPR}), projected_area_vector={ZERO_REPR})",
    ),
    (
        SecondDerivativeResult,
        dict(
            first_type=HexType((F(1), F(2), F(3))),
            second_type=HexType((F(1), F(1), F(1))),
            first_deltas=(F(1), F(2)),
            second_deltas=(F(3),),
        ),
        ("first_type", "second_type", "first_deltas", "second_deltas"),
        "SecondDerivativeResult("
        "first_type=HexType(ratio=(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))), "
        "second_type=HexType(ratio=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))), "
        "first_deltas=(Fraction(1, 1), Fraction(2, 1)), second_deltas=(Fraction(3, 1),))",
    ),
    (
        RegularityVerdict,
        dict(regular=True, parity="even", evidence=F(0), odd_product=F(2), even_product=F(2)),
        ("regular", "parity", "evidence", "odd_product", "even_product", "alpha_squared"),
        "RegularityVerdict(regular=True, parity='even', evidence=Fraction(0, 1), "
        "odd_product=Fraction(2, 1), even_product=Fraction(2, 1), alpha_squared=None)",
    ),
    (
        SupportBasis,
        dict(
            coefficients=(F(1), F(-1, 2)),
            _chain=(((1, 2, 3), (0, 0, 1)), (1, 2)),
            _edges=(((1, 0, 0), (0, 1, 0)), (1, 1)),
        ),
        ("coefficients", "_chain", "_edges"),
        "SupportBasis(coefficients=(Fraction(1, 1), Fraction(-1, 2)), "
        "_chain=(((1, 2, 3), (0, 0, 1)), (1, 2)), _edges=(((1, 0, 0), (0, 1, 0)), (1, 1)))",
    ),
    (
        SupportSystem,
        dict(unscaled=(U, V, W), alpha=F(2)),
        ("unscaled", "alpha"),
        f"SupportSystem(unscaled=({U_REPR}, {V_REPR}, {W_REPR}), alpha=Fraction(2, 1))",
    ),
    (
        SupportCheck,
        dict(ok=True),
        ("ok", "failed_index"),
        "SupportCheck(ok=True, failed_index=None)",
    ),
    (
        FloatMismatch,
        dict(field="deltas[1]", detail="3 != 4"),
        ("field", "detail"),
        "FloatMismatch(field='deltas[1]', detail='3 != 4')",
    ),
    (
        FloatValidation,
        dict(ok=False, checks=3, mismatches=(MISMATCH,)),
        ("ok", "checks", "mismatches"),
        "FloatValidation(ok=False, checks=3, "
        "mismatches=(FloatMismatch(field='deltas[1]', detail='3 != 4'),))",
    ),
    (
        GenConfig,
        dict(seed=7),
        ("seed", "coordinate_bound"),
        "GenConfig(seed=7, coordinate_bound=9)",
    ),
    (
        SuiteResult,
        dict(suite="eq2", samples=1, failures=0, first_counterexample=None),
        ("suite", "samples", "failures", "first_counterexample", "redraws"),
        "SuiteResult(suite='eq2', samples=1, failures=0, first_counterexample=None, redraws=0)",
    ),
]


@pytest.mark.parametrize(
    "cls, kwargs, names, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_object_contract(cls, kwargs, names, text):
    value = cls(**kwargs)
    assert repr(value) == text
    fields = tuple(getattr(value, name) for name in names)
    assert cls(*fields) == value
    assert cls(**dict(zip(names, fields))) == value
    assert hash(value) == hash(fields)
    # Equal only within one class: not to the tuple of its fields.
    assert value != fields
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    with pytest.raises(AttributeError):
        value.unlisted = 1
    assert repr(value) == text


def test_a_different_field_makes_a_different_value():
    assert Vec3(F(1), F(0), F(0)) != Vec3(F(1), F(0), F(1))
    assert GenConfig(7) != GenConfig(7, 10)


def test_cached_property_still_caches():
    system = SupportSystem((U, V, W), F(2))
    assert system.vectors is system.vectors
    derived = DerivedPolygon((U, V, W))
    assert derived.vertices is derived.vertices
    # The cached value is no field: equality and hash are unchanged.
    assert system == SupportSystem((U, V, W), F(2))
    assert hash(system) == hash(((U, V, W), F(2)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Polygon([U, V]), "a polygon needs at least three vertices"),
        (lambda: DerivedPolygon([U, V]), "a derived polygon needs at least three vertices"),
        (lambda: DerivedPolygon([U, V, W, U], F(2)), "an even derived polygon has scale one"),
        (
            lambda: derive(SupportSystem((U, V), F(2))),
            "a derived polygon needs at least three vertices",
        ),
        (lambda: GenConfig(7, coordinate_bound=1), "coordinate_bound must be at least 2"),
    ],
    ids=["polygon", "derived-size", "derived-even-scale", "derive-hand-built-size", "gen-config"],
)
def test_constructor_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
