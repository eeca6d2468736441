"""JSON forms of polygons and analyses, plus the report builders for the CLI.

Input coordinates are exact rational strings or ints. Every numeric field in
a report is an exact scalar string, or an extension object for the powers of
an odd polygon's irrational scale; floats appear only in the plot output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .derived import (
    DerivedPolygon,
    _hex_type,
    _self_intersecting,
    derive,
    is_planar,
    strongly_regular_check,
    two_plane_decomposition,
)
from .polygon import NonGenericPolygonError, Polygon, _deltas, _edges, _genericity
from .regularity import (
    RegularityVerdict,
    SupportSystem,
    _support_basis,
    check_regularity,
    support_system,
)
from .scalars import (
    Scalar,
    _format_rows,
    _format_scaled,
    format_scalar,
    parse_rational,
    parse_scalar,
)
from .vectors import ZERO_VEC, Vec3, _area_vector, _Form, _rational_vector


class PolygonFormatError(ValueError):
    """A polygon payload did not match the expected JSON shape."""


def vec3_to_json(vector: Vec3) -> list:
    return [format_scalar(component) for component in vector]


def vec3_from_json(items: object) -> Vec3:
    """An input vector: three rationals, so an extension object is a format error."""
    return _vec3(items, parse_rational)


def _vec3(items: object, parse: Callable[[object], Scalar]) -> Vec3:
    if not isinstance(items, Sequence) or isinstance(items, (str, bytes)) or len(items) != 3:
        raise PolygonFormatError(f"a vector needs exactly three components, got {items!r}")
    try:
        return Vec3(*(parse(component) for component in items))
    except (TypeError, ValueError) as exc:
        raise PolygonFormatError(str(exc)) from exc


def polygon_to_json(polygon: Polygon) -> dict:
    return {"vertices": [vec3_to_json(vertex) for vertex in polygon.vertices]}


def _vertex_rows(rows: object) -> list:
    if not isinstance(rows, list) or len(rows) < 3:
        raise PolygonFormatError("'vertices' must list at least three points")
    return rows


def polygon_from_json(payload: object) -> Polygon:
    """Accepts {"vertices": [...]} or, for convenience, {"edges": [...]}.

    Coordinates are rationals; an extension object is a format error. Edge
    payloads must close up; the vertices are rebuilt from the origin.
    Extra keys (seed, kind, support_system, ...) are ignored so generated
    fixtures round-trip unchanged.
    """
    if not isinstance(payload, dict):
        raise PolygonFormatError("polygon payload must be a JSON object")
    if "vertices" in payload:
        rows = _vertex_rows(payload["vertices"])
        return Polygon(tuple(vec3_from_json(row) for row in rows))
    if "edges" in payload:
        rows = payload["edges"]
        if not isinstance(rows, list) or len(rows) < 3:
            raise PolygonFormatError("'edges' must list at least three vectors")
        try:
            return Polygon.from_edges(tuple(vec3_from_json(row) for row in rows))
        except ValueError as exc:
            raise PolygonFormatError(str(exc)) from exc
    raise PolygonFormatError("polygon payload needs a 'vertices' or 'edges' key")


def _head(command: str, polygon: Polygon, source: str | None) -> dict:
    """A report's command, input summary and genericity, read off the polygon's int form."""
    summary = {
        "n": polygon.n,
        "vertices": [vec3_to_json(vertex) for vertex in polygon.vertices],
    }
    if source is not None:
        summary["source"] = source
    report = {
        "command": command,
        "input_summary": summary,
        "genericity": _genericity_json(polygon._edge_form, polygon._determinants),
    }
    return report


def _genericity_json(edges: _Form, values: Sequence[Scalar]) -> dict:
    """The ``genericity`` block: ok, or the first failing edge and its kind."""
    report = _genericity(edges, values)
    if report.ok:
        return {"ok": True}
    return {"ok": False, "index": report.index, "kind": report.kind}


def _verdict_json(verdict: RegularityVerdict) -> dict:
    return {
        "regular": verdict.regular,
        "parity": verdict.parity,
        "evidence": format_scalar(verdict.evidence),
        "odd_product": format_scalar(verdict.odd_product),
        "even_product": format_scalar(verdict.even_product),
        "alpha_squared": None
        if verdict.alpha_squared is None
        else format_scalar(verdict.alpha_squared),
    }


def _checked(
    command: str, polygon: Polygon, source: str | None
) -> tuple[dict, RegularityVerdict | None]:
    """A check report under ``command``, plus the verdict behind it.

    The verdict is None when the polygon is not generic.
    """
    report = _head(command, polygon, source)
    verdict = None
    if report["genericity"]["ok"]:
        values = polygon._determinants
        verdict = check_regularity(values)
        report["deltas"] = [format_scalar(value) for value in values]
        report["verdict"] = _verdict_json(verdict)
    return report, verdict


def check_report(polygon: Polygon, source: str | None = None) -> dict:
    """Genericity, corner determinants, and the regularity verdict."""
    return _checked("check", polygon, source)[0]


def _support_json(system: SupportSystem) -> dict:
    """Parity, scale and vectors of a support system."""
    return {
        "parity": system.parity,
        "alpha": format_scalar(system.alpha),
        "vectors": _format_rows(system._form, system.scale),
    }


def _two_plane_json(polygon: DerivedPolygon) -> dict:
    try:
        split = two_plane_decomposition(polygon)
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "normal": vec3_to_json(split.normal),
        "odd_offsets": [format_scalar(value) for value in split.odd_offsets],
        "even_offsets": [format_scalar(value) for value in split.even_offsets],
        "offsets_equal": split.parallel,
        "projections": [vec3_to_json(point) for point in split.projections],
        "projected_area_vector": vec3_to_json(split.projected_area_vector),
    }


def _type_fields(block: dict, values: Sequence[Scalar], prefix: str = "") -> None:
    """Write ``strongly_regular`` and, for a half-turn-symmetric hexagon, ``hex_type``."""
    symmetric = strongly_regular_check(values)
    block[prefix + "strongly_regular"] = symmetric
    if symmetric:
        block[prefix + "hex_type"] = [format_scalar(part) for part in _hex_type(values).ratio]


def _analysis(
    block: dict,
    polygon: DerivedPolygon,
    values: Sequence[Scalar],
    deltas_key: str,
    generic_key: str | None = None,
    area: Vec3 | None = None,
) -> dict:
    """Add the analysis of ``scale * unscaled`` to ``block``, run on the unscaled points.

    ``values`` are the determinants of the unscaled edges, and ``area``, when
    the caller knows it, the area vector of the unscaled points. The area
    vector is written with the factor ``scale**2`` and the determinants, under
    ``deltas_key``, with ``scale**3``; vertices and edges, written with
    ``scale``, are the caller's. Zero patterns, planarity and the hexagon and
    quadrangle tests do not change under a nonzero scale.
    """
    planarity = is_planar(polygon)
    if area is None:
        area = _rational_vector(*_area_vector(polygon._form))
    # The derivability defect of a closed edge list equals the area vector of
    # its vertices; both fields stay in the report.
    written = _format_scaled(area, polygon.scale, 2)
    block["planarity"] = {"planar": planarity.planar, "witness": planarity.witness}
    block["area_vector"] = written
    block["derivability_defect"] = list(written)
    generic = all(values)
    if generic_key is not None:
        block[generic_key] = generic
    block[deltas_key] = _format_scaled(values, polygon.scale, 3) if generic else None
    if polygon.n == 3:
        block["note"] = "triangles are trivially planar and never generic"
    if polygon.n == 4 and planarity.planar:
        block["self_intersecting"] = _self_intersecting(polygon._form)
    if polygon.n == 6 and generic:
        _type_fields(block, values)
        block["two_plane"] = _two_plane_json(polygon)
    return block


def derive_report(
    polygon: Polygon,
    alpha: Fraction | None = None,
    negative_root: bool = False,
    source: str | None = None,
) -> dict:
    """Support system plus the full analysis of the derived polygon.

    Raises NonGenericPolygonError or IrregularPolygonError when the polygon
    has no support system; the CLI turns those into failure reports.
    """
    report, verdict = _checked("derive", polygon, source)
    if verdict is None:
        info = report["genericity"]
        raise NonGenericPolygonError(
            f"polygon is not generic at edge {info['index']}: {info['kind']}"
        )
    if verdict.regular and verdict.parity == "odd" and alpha is not None:
        # support_system reports irregularity, which comes first. It takes any
        # root of alpha_squared; the CLI picks one by sign.
        raise ValueError("odd polygons take --negative-root, not an explicit scale")
    basis = _support_basis(polygon._edge_form, polygon._determinants)
    system = support_system(basis, verdict, alpha, negative_root)
    support = _support_json(system)
    report["support_system"] = {
        **support,
        "basis_vectors": _format_rows(basis._chain, Fraction(1)),
        "basis_coefficients": [format_scalar(c) for c in basis.coefficients],
        "verified": True,
    }
    # The derived vertices are the support vectors: formatted once, then
    # copied so that the two fields share no list or dict. Every row is
    # written from its int form.
    derived = derive(system)
    derived_edges = _edges(derived._form)
    block = {
        "vertices": [
            [dict(part) if isinstance(part, dict) else part for part in row]
            for row in support["vectors"]
        ],
        "edges": _format_rows(derived_edges, derived.scale),
    }
    # support_system checked scale**2 * cross(q_i, q_{i+1}) = v_{i+1} for
    # every i, so the area vector of the unscaled points is the sum of the
    # input edges over scale**2, and edges taken between closed vertices sum
    # to zero.
    _analysis(
        block, derived, _deltas(derived_edges), "derived_deltas", "derived_generic", ZERO_VEC
    )
    if polygon.n == 6 and block.get("strongly_regular"):
        _type_fields(block, polygon._determinants, "input_")
        if block["input_strongly_regular"]:
            block["type_matches_input"] = block["input_hex_type"] == block["hex_type"]
    report["derived_analysis"] = block
    return report


def analyze_report(polygon: Polygon, source: str | None = None) -> dict:
    """Structural analysis of a polygon read as a candidate derived polygon."""
    report = _head("analyze", polygon, source)
    derived = DerivedPolygon._of(polygon._form, Fraction(1))
    return _analysis(report, derived, polygon._determinants, "deltas")


def plot_lines(payload: dict) -> str:
    """Line-based plot data: float vertices, cyclic edges, plane tags.

    Accepts either a polygon payload or a full derive/analyze report; reports
    plot the derived polygon when one is present. A payload of the wrong
    shape, fewer than three vertices, or a vertex beyond double range raises
    PolygonFormatError.
    """
    if "derived_analysis" in payload:
        block = payload["derived_analysis"]
    elif "vertices" in payload:
        block = payload
    else:
        summary = payload.get("input_summary")
        block = {"vertices": summary.get("vertices")} if isinstance(summary, dict) else None
    if not isinstance(block, dict) or not isinstance(block.get("vertices"), list):
        raise PolygonFormatError("nothing to plot: no vertices in payload")

    # Report vertices of an odd derivative are written-out extension values.
    points = [_vec3(row, parse_scalar) for row in _vertex_rows(block["vertices"])]
    two_plane = block.get("two_plane")
    tagged = isinstance(two_plane, dict) and bool(two_plane.get("offsets_equal"))
    lines = [f"# polyderive plot data, {len(points)} vertices"]
    if "planarity" in block:
        planarity = block["planarity"]
        if not isinstance(planarity, dict) or not isinstance(planarity.get("planar"), bool):
            raise PolygonFormatError("'planarity' must be an object with a boolean 'planar'")
        lines.append(f"# planar {'true' if planarity['planar'] else 'false'}")
    for index, point in enumerate(points):
        try:
            x, y, z = floats = point.to_floats()
            if not all(map(math.isfinite, floats)):  # a + b*sqrt(d) past its parts' range
                raise OverflowError
        except OverflowError as exc:
            raise PolygonFormatError(f"vertex {index + 1} is beyond double range") from exc
        row = f"v {index + 1} {x:.17g} {y:.17g} {z:.17g}"
        if tagged:
            row += f" plane={1 + index % 2}"
        lines.append(row)
    for index in range(len(points)):
        lines.append(f"e {index + 1} {(index + 1) % len(points) + 1}")
    return "\n".join(lines) + "\n"
