"""Polygon model: edges, corner determinants, genericity, mirror, defect."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import golden
from golden import det3, fracs, vecs
from polyderive import (
    NonGenericPolygonError,
    Polygon,
    Vec3,
    alternating_product_identity,
    area_vector,
    check_regularity,
    cross,
    deltas,
    derivability_defect,
    derived_relation_defects,
    edge_vectors,
    ensure_generic,
    is_generic,
    mirror,
    strongly_regular_check,
)

UNIT_SQUARE = Polygon(vecs((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))


def random_polygon(rng: random.Random, n: int) -> Polygon:
    def coord() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return Polygon(tuple(Vec3.of(coord(), coord(), coord()) for _ in range(n)))


class TestPolygonModel:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon(vecs((0, 0, 0), (1, 0, 0)))

    def test_from_edges_rebuilds_vertices(self):
        polygon = Polygon.from_edges(golden.QUADRANGLE_EDGES)
        assert polygon.vertices == golden.QUADRANGLE_VERTICES

    def test_from_edges_requires_closure(self):
        with pytest.raises(ValueError, match="close"):
            Polygon.from_edges(vecs((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestEdgeVectors:
    def test_golden_quadrangle(self):
        assert edge_vectors(Polygon(golden.QUADRANGLE_VERTICES)) == golden.QUADRANGLE_EDGES

    def test_unit_square(self):
        assert edge_vectors(UNIT_SQUARE) == vecs((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))

    def test_closure(self):
        rng = random.Random(11)
        for _ in range(20):
            total = Vec3.of(0, 0, 0)
            for edge in edge_vectors(random_polygon(rng, rng.randint(3, 8))):
                total = total + edge
            assert total.is_zero()


class TestDeltas:
    def test_pentagon(self):
        assert deltas(golden.PENTAGON_EDGES) == golden.PENTAGON_DELTAS

    def test_regular_hexagon_against_cofactor_oracle(self):
        edges = golden.REGULAR_HEXAGON_EDGES
        oracle = tuple(
            det3(edges[i], edges[(i + 1) % 6], edges[(i + 2) % 6]) for i in range(6)
        )
        values = deltas(edges)
        assert values == oracle
        assert values == golden.REGULAR_HEXAGON_DELTAS

    def test_strongly_regular_hexagon(self):
        assert (
            deltas(golden.STRONGLY_REGULAR_HEXAGON_EDGES)
            == golden.STRONGLY_REGULAR_HEXAGON_DELTAS
        )

    def test_needs_three_edges(self):
        with pytest.raises(ValueError):
            deltas(vecs((1, 0, 0), (-1, 0, 0)))


class TestGenericity:
    def test_golden_quadrangle_is_generic(self):
        assert is_generic(golden.QUADRANGLE_EDGES).ok

    def test_planar_square_fails_on_first_triple(self):
        report = is_generic(edge_vectors(UNIT_SQUARE))
        assert not report.ok
        assert report.kind == "coplanar_triple"
        assert report.index == 1

    def test_repeated_vertex_is_a_collinear_pair(self):
        polygon = Polygon(vecs((0, 0, 0), (1, 1, 2), (1, 1, 2), (-1, 2, -2)))
        report = is_generic(edge_vectors(polygon))
        assert not report.ok
        assert report.kind == "collinear_pair"

    def test_ensure_generic_raises_with_index(self):
        with pytest.raises(NonGenericPolygonError, match="edge 1"):
            ensure_generic(edge_vectors(UNIT_SQUARE))

    def test_mirror_preserves_genericity(self):
        rng = random.Random(23)
        for _ in range(20):
            polygon = random_polygon(rng, 5)
            assert (
                is_generic(edge_vectors(polygon)).ok
                == is_generic(edge_vectors(mirror(polygon))).ok
            )


# Six vectors whose first two agree, so that the cross-product row
# cross(u_1, u_2) is zero; and six alternating between two vectors, whose
# rows sum to zero and whose derived edges are all collinear.
ZERO_ROW = vecs((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (2, -1, 1))
ALTERNATING = vecs(*[(1, 0, 0), (0, 1, 0)] * 3)


class TestZeroGuards:
    """Each determinant check names the first zero, 1-based, in its own words."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: check_regularity(fracs(1, 0, 2, 0)), "corner determinant 2 is zero"),
            (
                lambda: strongly_regular_check(fracs(1, 2, 0, 1, 2, 0)),
                "corner determinant 3 is zero",
            ),
            (
                lambda: alternating_product_identity(ZERO_ROW),
                "row determinant 1 is zero; redraw the sample",
            ),
            (
                lambda: derived_relation_defects(ALTERNATING),
                "derived corner determinant 1 is zero",
            ),
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(NonGenericPolygonError) as excinfo:
            call()
        assert str(excinfo.value) == message


class TestMirror:
    def test_negates_every_delta(self):
        polygon = Polygon.from_edges(golden.PENTAGON_EDGES)
        mirrored = deltas(edge_vectors(mirror(polygon)))
        assert mirrored == tuple(-value for value in golden.PENTAGON_DELTAS)

    def test_negates_deltas_on_random_polygons(self):
        rng = random.Random(5)
        for _ in range(20):
            polygon = random_polygon(rng, rng.choice((4, 5, 6)))
            original = deltas(edge_vectors(polygon))
            flipped = deltas(edge_vectors(mirror(polygon)))
            assert flipped == tuple(-value for value in original)

    def test_is_an_involution(self):
        polygon = Polygon(golden.QUADRANGLE_VERTICES)
        assert mirror(mirror(polygon)) == polygon

    def test_fixes_polygons_in_the_base_plane(self):
        assert mirror(UNIT_SQUARE) == UNIT_SQUARE


class TestSignPattern:
    """Signs of the alternating determinant products, read off the verdict."""

    def test_alternating_pattern_blocks_regularity(self):
        verdict = check_regularity(fracs(1, -2, 3, -4, 5, -6))
        assert verdict.odd_product > 0
        assert verdict.even_product < 0
        assert not verdict.regular

    def test_pentagon_total_product_is_positive(self):
        verdict = check_regularity(golden.PENTAGON_DELTAS)
        assert verdict.parity == "odd"
        assert verdict.evidence > 0

    def test_all_positive_hexagon(self):
        verdict = check_regularity(fracs(1, 2, 3, 4, 5, 6))
        assert verdict.odd_product > 0
        assert verdict.even_product > 0


class TestDerivabilityDefect:
    def test_triangle_direct_expansion(self):
        edges = vecs((1, 0, 0), (0, 1, 0), (-1, -1, 0))
        assert derivability_defect(edges) == Vec3.of(0, 0, 1)

    def test_strongly_regular_hexagon_is_not_a_derivative(self):
        defect = derivability_defect(golden.STRONGLY_REGULAR_HEXAGON_EDGES)
        assert defect == Vec3.of(7, "-7/2", "-7/2")
        assert not defect.is_zero()

    def test_derived_polygon_edges_have_zero_defect(self):
        # The derived hexagon's vertices are support vectors, so the defect of
        # its edge list vanishes by construction.
        support = golden.REGULAR_HEXAGON_SUPPORT
        edges = tuple(support[(i + 1) % 6] - support[i] for i in range(6))
        assert derivability_defect(edges).is_zero()

    def test_requires_closed_edges(self):
        with pytest.raises(ValueError, match="closed"):
            derivability_defect(vecs((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_sums_the_edges_once(self, monkeypatch):
        # One vertex chain over all six edges, on ints, whose last point is
        # the closure residue; the area vector sums int cross products, not
        # vectors.
        from polyderive import polygon as polygon_module

        calls, added = [], []
        chain, add = polygon_module._closed_path, Vec3.__add__

        def counted(edges, den):
            calls.append(len(edges))
            return chain(edges, den)

        monkeypatch.setattr(polygon_module, "_closed_path", counted)
        monkeypatch.setattr(Vec3, "__add__", lambda a, b: added.append(None) or add(a, b))
        derivability_defect(golden.STRONGLY_REGULAR_HEXAGON_EDGES)
        assert calls == [6]
        assert added == []

    def test_matches_anchored_area_vector(self):
        # Independent oracle: the defining sum of cross(v_i, v_j) over pairs
        # i < j of the first n-1 edges, which the library replaces by the
        # area vector of the vertices rebuilt from the edges.
        rng = random.Random(31)
        for _ in range(20):
            polygon = random_polygon(rng, rng.choice((4, 5, 6)))
            edges = edge_vectors(polygon)
            pair_sum = Vec3.of(0, 0, 0)
            for i in range(len(edges) - 1):
                for j in range(i + 1, len(edges) - 1):
                    pair_sum = pair_sum + cross(edges[i], edges[j])
            assert derivability_defect(edges) == pair_sum
            assert pair_sum == area_vector(polygon.vertices)

    def test_is_invariant_under_cyclic_relabeling(self):
        # The formula singles out the last edge but the value does not
        # depend on the labeling: rotating the labels translates the
        # anchored vertex cycle, which leaves the cross-sum unchanged.
        rng = random.Random(37)
        for _ in range(10):
            edges = edge_vectors(random_polygon(rng, rng.choice((4, 5, 6))))
            base = derivability_defect(edges)
            for k in range(1, len(edges)):
                assert derivability_defect(edges[k:] + edges[:k]) == base


class TestShiftEquivariance:
    def test_rotating_edges_rotates_deltas(self):
        rng = random.Random(7)
        for _ in range(10):
            polygon = random_polygon(rng, 6)
            edges = edge_vectors(polygon)
            values = deltas(edges)
            for k in range(6):
                rotated = edges[k:] + edges[:k]
                assert deltas(rotated) == values[k:] + values[:k]
