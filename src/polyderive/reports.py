"""JSON forms of polygons and analyses, plus the report builders for the CLI.

Input coordinates are exact rational strings or ints. Every numeric field in
a report is an exact scalar string, or an extension object for the powers of
an odd polygon's irrational scale; floats appear only in the plot output and
the optional float validation block.
"""

from __future__ import annotations

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
from .polygon import (
    NonGenericPolygonError,
    Polygon,
    deltas,
    edge_vectors,
    is_generic,
)
from .regularity import (
    IrregularPolygonError,
    RegularityVerdict,
    SupportBasis,
    SupportSystem,
    canonical_alpha,
    check_regularity,
    support_basis,
    support_system,
    verify_support,
)
from .scalars import Scalar, format_scalar, parse_rational, parse_scalar, power_scaler
from .vectors import Vec3, area_vector, scaled


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
        rows = payload["vertices"]
        if not isinstance(rows, list) or len(rows) < 3:
            raise PolygonFormatError("'vertices' must list at least three points")
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


def _input_summary(polygon: Polygon, source: str | None) -> dict:
    summary = {
        "n": polygon.n,
        "vertices": [vec3_to_json(vertex) for vertex in polygon.vertices],
    }
    if source is not None:
        summary["source"] = source
    return summary


def _genericity_json(edges: Sequence[Vec3], values: Sequence[Scalar]) -> dict:
    """Nonzero determinants mean a generic polygon; only a zero one needs the scan."""
    if all(values):
        return {"ok": True}
    report = is_generic(edges)
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
    polygon: Polygon, source: str | None
) -> tuple[dict, tuple[Vec3, ...], tuple[Scalar, ...], RegularityVerdict | None]:
    """The check report plus the edges, determinants and verdict behind it.

    The verdict is None when the polygon is not generic.
    """
    edges = edge_vectors(polygon)
    values = deltas(edges)
    report = {
        "command": "check",
        "input_summary": _input_summary(polygon, source),
        "genericity": _genericity_json(edges, values),
    }
    verdict = None
    if report["genericity"]["ok"]:
        verdict = check_regularity(values)
        report["deltas"] = [format_scalar(value) for value in values]
        report["verdict"] = _verdict_json(verdict)
    return report, edges, values, verdict


def check_report(polygon: Polygon, source: str | None = None) -> dict:
    """Genericity, corner determinants, and the regularity verdict."""
    return _checked(polygon, source)[0]


def _system_json(system: SupportSystem, basis: SupportBasis, verified: bool) -> dict:
    return {
        "parity": system.parity,
        "alpha": format_scalar(system.alpha),
        "vectors": [vec3_to_json(vector) for vector in system.vectors],
        "basis_vectors": [vec3_to_json(vector) for vector in basis.vectors],
        "basis_coefficients": [format_scalar(c) for c in basis.coefficients],
        "verified": verified,
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


def _hexagon_blocks(block: dict, values: Sequence[Scalar], polygon: DerivedPolygon) -> None:
    """Fill the hexagon-only fields of an analysis block in place."""
    symmetric = strongly_regular_check(values)
    block["strongly_regular"] = symmetric
    if symmetric:
        block["hex_type"] = [format_scalar(part) for part in _hex_type(values).ratio]
    block["two_plane"] = _two_plane_json(polygon)


def _analysis_block(derived: DerivedPolygon) -> dict:
    """Analysis of ``scale * unscaled``, run on the unscaled points.

    Vertices and edges are written with the factor ``scale``, the area
    vector with ``scale**2`` and the determinants with ``scale**3``; zero
    patterns, planarity and the hexagon and quadrangle tests do not change
    under a nonzero scale.
    """
    points = derived.unscaled
    edges = derived.unscaled_edges
    scale = derived.scale
    planarity = is_planar(derived)
    # The derivability defect of a closed edge list equals the area vector of
    # its vertices; both fields stay in the report.
    area = vec3_to_json(scaled([area_vector(points)], scale, 2)[0])
    block: dict = {
        "vertices": [vec3_to_json(vertex) for vertex in derived.vertices],
        "edges": [vec3_to_json(edge) for edge in scaled(edges, scale)],
        "planarity": {"planar": planarity.planar, "witness": planarity.witness},
        "area_vector": area,
        "derivability_defect": list(area),
    }
    values = deltas(edges)
    generic = all(values)
    block["derived_generic"] = generic
    if generic:
        cube = power_scaler(scale, 3)
        block["derived_deltas"] = [format_scalar(cube(value)) for value in values]
    else:
        block["derived_deltas"] = None
    if derived.n == 4 and planarity.planar:
        block["self_intersecting"] = _self_intersecting(points)
    if derived.n == 6 and generic:
        _hexagon_blocks(block, values, derived)
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
    report, edges, values, verdict = _checked(polygon, source)
    report["command"] = "derive"
    if verdict is None:
        info = report["genericity"]
        raise NonGenericPolygonError(
            f"polygon is not generic at edge {info['index']}: {info['kind']}"
        )
    if not verdict.regular:
        raise IrregularPolygonError(verdict)
    basis = support_basis(edges, values)
    if verdict.parity == "odd":
        if alpha is not None:
            raise ValueError("odd polygons take --negative-root, not an explicit scale")
        system = support_system(basis, verdict, canonical_alpha(verdict, negative_root))
    else:
        if negative_root:
            raise ValueError("negative_root applies to odd polygons only")
        if alpha is None:
            raise ValueError("even polygons need an explicit rational scale (try --alpha 1)")
        system = support_system(basis, verdict, alpha)
    checked = verify_support(system, edges)
    if not checked.ok:
        raise RuntimeError(
            f"support system failed verification at condition {checked.failed_index}; "
            "this is a bug"
        )
    report["support_system"] = _system_json(system, basis, checked.ok)
    derived = derive(system)
    block = _analysis_block(derived)
    if polygon.n == 6 and block.get("strongly_regular"):
        input_symmetric = strongly_regular_check(values)
        block["input_strongly_regular"] = input_symmetric
        if input_symmetric:
            input_type = [format_scalar(part) for part in _hex_type(values).ratio]
            block["input_hex_type"] = input_type
            block["type_matches_input"] = input_type == block["hex_type"]
    report["derived_analysis"] = block
    return report


def analyze_report(polygon: Polygon, source: str | None = None) -> dict:
    """Structural analysis of a polygon read as a candidate derived polygon."""
    edges = edge_vectors(polygon)
    values = deltas(edges)
    candidate = DerivedPolygon(polygon.vertices)
    planarity = is_planar(candidate)
    area = vec3_to_json(area_vector(polygon.vertices))
    report: dict = {
        "command": "analyze",
        "input_summary": _input_summary(polygon, source),
        "genericity": _genericity_json(edges, values),
        "planarity": {"planar": planarity.planar, "witness": planarity.witness},
        "area_vector": area,
        "derivability_defect": list(area),
    }
    generic = report["genericity"]["ok"]
    report["deltas"] = [format_scalar(value) for value in values] if generic else None
    if polygon.n == 3:
        report["note"] = "triangles are trivially planar and never generic"
    if polygon.n == 4 and planarity.planar:
        report["self_intersecting"] = _self_intersecting(candidate.vertices)
    if polygon.n == 6 and generic:
        _hexagon_blocks(report, values, candidate)
    return report


def plot_lines(payload: dict) -> str:
    """Line-based plot data: float vertices, cyclic edges, plane tags.

    Accepts either a polygon payload or a full derive/analyze report; reports
    plot the derived polygon when one is present. A payload of the wrong
    shape, or a vertex beyond double range, raises PolygonFormatError.
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
    points = [_vec3(row, parse_scalar) for row in block["vertices"]]
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
            x, y, z = point.to_floats()
        except OverflowError as exc:
            raise PolygonFormatError(f"vertex {index + 1} is beyond double range") from exc
        row = f"v {index + 1} {x:.17g} {y:.17g} {z:.17g}"
        if tagged:
            row += f" plane={1 + index % 2}"
        lines.append(row)
    for index in range(len(points)):
        lines.append(f"e {index + 1} {(index + 1) % len(points) + 1}")
    return "\n".join(lines) + "\n"
