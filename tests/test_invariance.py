"""Invariance of the verdict and the hexagon type on generated polygons.

Translation leaves the edges unchanged, and a rotation with determinant +1
leaves every corner determinant unchanged, so the whole verdict must be
identical. Cyclic relabelling rotates the determinants: the regular flag and
the parity stay, while the alternating products may trade places. The type of
a derived hexagon does not depend on the scale factor, so it survives all
three. The library path (``build_support_system`` then ``derive``) and
``derive_report`` must also give the same derived determinants, and
``analyze`` must read a derived polygon of even n as ``derive`` does.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyderive import (
    GenConfig,
    Polygon,
    Vec3,
    build_support_system,
    check_regularity,
    deltas,
    derive,
    derived_deltas,
    dot,
    edge_vectors,
    mixed,
    random_generic_polygon,
    random_regular_pentagon,
    regular_hexagon_via_lift,
)
from polyderive.derived import DegenerateQuadrangleError
from polyderive.reports import analyze_report, derive_report, polygon_from_json
from polyderive.scalars import format_scalar

# The signed permutation matrices with determinant +1, as row triples.
ROTATIONS = [
    rows
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
    for rows in [
        tuple(
            Vec3.of(*(sign if col == axis else 0 for col in range(3)))
            for axis, sign in zip(perm, signs)
        )
    ]
    if mixed(*rows) == 1
]
ALPHA = Fraction(-3, 2)


def quadrangle(seed: int) -> Polygon:
    return random_generic_polygon(4, GenConfig(seed=seed))


def pentagon(seed: int) -> Polygon:
    return random_regular_pentagon(GenConfig(seed=seed))


def lifted_hexagon(seed: int) -> Polygon:
    return regular_hexagon_via_lift(GenConfig(seed=seed))[0]


KINDS = {"quadrangle": quadrangle, "pentagon": pentagon, "hexagon": lifted_hexagon}

polygons = st.builds(
    lambda kind, seed: KINDS[kind](seed),
    st.sampled_from(sorted(KINDS)),
    st.integers(min_value=0, max_value=2**31),
)
offsets = st.builds(Vec3, *[st.fractions(min_value=-9, max_value=9, max_denominator=9)] * 3)
SETTINGS = settings(max_examples=30, deadline=None)


def translate(polygon: Polygon, offset: Vec3) -> Polygon:
    return Polygon(tuple(vertex + offset for vertex in polygon.vertices))


def rotate(polygon: Polygon, rows) -> Polygon:
    return Polygon(tuple(Vec3(*(dot(row, v) for row in rows)) for v in polygon.vertices))


def relabel(polygon: Polygon, shift: int) -> Polygon:
    points = polygon.vertices
    return Polygon(points[shift:] + points[:shift])


def verdict_of(polygon: Polygon):
    return check_regularity(deltas(edge_vectors(polygon)))


def derived_type(polygon: Polygon):
    """hex_type of the derivative at ALPHA, or None when that derivative is not generic."""
    return derive_report(polygon, alpha=ALPHA)["derived_analysis"].get("hex_type")


def derive_kwargs(polygon: Polygon) -> dict:
    return {} if polygon.n % 2 else {"alpha": ALPHA}


class TestInvariance:
    def test_half_of_the_signed_permutations_are_rotations(self):
        assert len(ROTATIONS) == 24

    @SETTINGS
    @given(polygons, offsets)
    def test_translation(self, polygon, offset):
        moved = translate(polygon, offset)
        assert verdict_of(moved) == verdict_of(polygon)
        if polygon.n == 6:
            assert derived_type(moved) == derived_type(polygon)

    @SETTINGS
    @given(polygons, st.sampled_from(ROTATIONS))
    def test_rotation(self, polygon, rows):
        turned = rotate(polygon, rows)
        assert verdict_of(turned) == verdict_of(polygon)
        if polygon.n == 6:
            assert derived_type(turned) == derived_type(polygon)

    @SETTINGS
    @given(polygons, st.integers(min_value=1, max_value=5))
    def test_cyclic_relabelling(self, polygon, shift):
        shifted = relabel(polygon, shift % polygon.n)
        before, after = verdict_of(polygon), verdict_of(shifted)
        assert (after.regular, after.parity) == (before.regular, before.parity)
        assert sorted(deltas(edge_vectors(shifted))) == sorted(deltas(edge_vectors(polygon)))
        if polygon.n == 6:
            first, second = derived_type(polygon), derived_type(shifted)
            assume(first is not None and second is not None)
            assert second == first


class TestLibraryMatchesReport:
    @SETTINGS
    @given(polygons)
    def test_derived_determinants_agree(self, polygon):
        kwargs = derive_kwargs(polygon)
        derived = derive(build_support_system(edge_vectors(polygon), **kwargs))
        try:
            block = derive_report(polygon, **kwargs)["derived_analysis"]
        except DegenerateQuadrangleError:
            assume(False)  # a collinear derived quadrangle has no crossing test
        values = derived_deltas(derived)
        assert block["derived_generic"] == all(values)
        if block["derived_generic"]:
            assert block["derived_deltas"] == [format_scalar(value) for value in values]


# Fields the two reports share; analyze writes "deltas" where derive writes
# "derived_deltas".
SHARED_FIELDS = (
    "planarity",
    "area_vector",
    "derivability_defect",
    "self_intersecting",
    "strongly_regular",
    "hex_type",
    "two_plane",
)


class TestAnalyzeMatchesDerive:
    @SETTINGS
    @given(
        st.sampled_from([quadrangle, lifted_hexagon]),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([Fraction(1), ALPHA]),
    )
    def test_analysis_of_the_derived_vertices(self, kind, seed, alpha):
        # For even n the scale is one, so the derived vertices are rational.
        try:
            block = derive_report(kind(seed), alpha=alpha)["derived_analysis"]
            report = analyze_report(polygon_from_json({"vertices": block["vertices"]}))
        except DegenerateQuadrangleError:
            assume(False)  # a collinear derived quadrangle has no crossing test
        assert report["genericity"]["ok"] == block["derived_generic"]
        assert report["deltas"] == block["derived_deltas"]
        for field in SHARED_FIELDS:
            assert report.get(field) == block.get(field), field
