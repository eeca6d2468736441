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
    RegularityVerdict,
    SupportSystem,
    check_regularity,
    support_basis,
    support_system,
    verify_support,
)
from .scalars import Scalar, _format_scaled, format_scalar, parse_rational, parse_scalar
from .vectors import ZERO_VEC, Vec3, area_vector


class PolygonFormatError(ValueError):
    """A polygon payload did not match the expected JSON shape."""


def vec3_to_json(vector: Vec3) -> list:
    return [format_scalar(component) for component in vector]


def _scaled_rows(vectors: Sequence[Vec3], scale: Scalar, power: int = 1) -> list[list]:
    """JSON rows of ``scale**power * v`` for rational vectors, written in one pass."""
    flat = _format_scaled([c for v in vectors for c in v], scale, power)
    return [flat[k : k + 3] for k in range(0, len(flat), 3)]


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


def _head(
    command: str, polygon: Polygon, source: str | None
) -> tuple[dict, tuple[Vec3, ...], tuple[Scalar, ...]]:
    """A report's command, input summary and genericity, plus the edges and determinants."""
    edges = edge_vectors(polygon)
    values = deltas(edges)
    summary = {
        "n": polygon.n,
        "vertices": [vec3_to_json(vertex) for vertex in polygon.vertices],
    }
    if source is not None:
        summary["source"] = source
    report = {
        "command": command,
        "input_summary": summary,
        "genericity": _genericity_json(edges, values),
    }
    return report, edges, values


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
    command: str, polygon: Polygon, source: str | None
) -> tuple[dict, tuple[Vec3, ...], tuple[Scalar, ...], RegularityVerdict | None]:
    """A check report under ``command``, plus the edges, determinants and verdict behind it.

    The verdict is None when the polygon is not generic.
    """
    report, edges, values = _head(command, polygon, source)
    verdict = None
    if report["genericity"]["ok"]:
        verdict = check_regularity(values)
        report["deltas"] = [format_scalar(value) for value in values]
        report["verdict"] = _verdict_json(verdict)
    return report, edges, values, verdict


def check_report(polygon: Polygon, source: str | None = None) -> dict:
    """Genericity, corner determinants, and the regularity verdict."""
    return _checked("check", polygon, source)[0]


def _support_json(system: SupportSystem) -> dict:
    """Parity, scale and vectors of a support system."""
    return {
        "parity": system.parity,
        "alpha": format_scalar(system.alpha),
        "vectors": _scaled_rows(system.unscaled, system.scale),
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
    points = polygon.unscaled
    planarity = is_planar(polygon)
    if area is None:
        area = area_vector(points)
    # The derivability defect of a closed edge list equals the area vector of
    # its vertices; both fields stay in the report.
    written = _scaled_rows([area], polygon.scale, 2)[0]
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
        block["self_intersecting"] = _self_intersecting(points)
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
    report, edges, values, verdict = _checked("derive", polygon, source)
    if verdict is None:
        info = report["genericity"]
        raise NonGenericPolygonError(
            f"polygon is not generic at edge {info['index']}: {info['kind']}"
        )
    if verdict.regular and verdict.parity == "odd" and alpha is not None:
        # support_system reports irregularity, which comes first. It takes any
        # root of alpha_squared; the CLI picks one by sign.
        raise ValueError("odd polygons take --negative-root, not an explicit scale")
    basis = support_basis(edges, values)
    system = support_system(basis, verdict, alpha, negative_root)
    checked = verify_support(system, edges)
    if not checked.ok:
        raise RuntimeError(
            f"support system failed verification at condition {checked.failed_index}; "
            "this is a bug"
        )
    support = _support_json(system)
    report["support_system"] = {
        **support,
        "basis_vectors": [vec3_to_json(vector) for vector in basis.vectors],
        "basis_coefficients": [format_scalar(c) for c in basis.coefficients],
        "verified": checked.ok,
    }
    # The derived vertices are the support vectors: formatted once, then
    # copied so that the two fields share no list or dict.
    derived = derive(system)
    derived_edges = derived.unscaled_edges
    block = {
        "vertices": [
            [dict(part) if isinstance(part, dict) else part for part in row]
            for row in support["vectors"]
        ],
        "edges": _scaled_rows(derived_edges, derived.scale),
    }
    # verify_support passed, so scale**2 * cross(q_i, q_{i+1}) = v_{i+1} for
    # every i: the area vector of the unscaled points is the sum of the input
    # edges over scale**2, and edges taken between closed vertices sum to zero.
    _analysis(
        block, derived, deltas(derived_edges), "derived_deltas", "derived_generic", ZERO_VEC
    )
    if polygon.n == 6 and block.get("strongly_regular"):
        _type_fields(block, values, "input_")
        if block["input_strongly_regular"]:
            block["type_matches_input"] = block["input_hex_type"] == block["hex_type"]
    report["derived_analysis"] = block
    return report


def analyze_report(polygon: Polygon, source: str | None = None) -> dict:
    """Structural analysis of a polygon read as a candidate derived polygon."""
    report, _edges, values = _head("analyze", polygon, source)
    return _analysis(report, DerivedPolygon(polygon.vertices), values, "deltas")


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
