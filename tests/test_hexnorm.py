"""Metric core: norm, sectors, geodesics, areas, circumscribed hexagons."""

import math

import pytest

from conftest import SQRT3, random_convex_polygon, unit_ball_hexagon
from hexbubble.hexnorm import (
    LATTICE_DIRECTIONS,
    PlanePoint,
    PolyChain,
    circumscribing_hexagon,
    double_bubble_perimeter,
    geodesic_path,
    hex_norm,
    make_chain,
    polygon_area,
    polyline_length,
    sextant,
)
from hexbubble.oracle import Lcg
from hexbubble.singlebubble import fixed_side_polygon
from hexbubble.kissing import kissing_geometry, kissing_minimum


# ---------------------------------------------------------------- hex_norm


def test_norm_at_unit_ball_vertices():
    assert hex_norm((1.0, 0.0)) == 1.0
    assert abs(hex_norm((0.5, SQRT3 / 2.0)) - 1.0) <= 1e-15
    for d in LATTICE_DIRECTIONS:
        assert abs(hex_norm(d) - 1.0) <= 1e-15


def test_norm_vertical_direction():
    assert abs(hex_norm((0.0, 1.0)) - 2.0 / SQRT3) <= 1e-15


def test_norm_zero_iff_origin():
    assert hex_norm((0.0, 0.0)) == 0.0
    rng = Lcg(5)
    for _ in range(100):
        p = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if p != (0.0, 0.0):
            assert hex_norm(p) > 0.0


def test_norm_axioms_on_random_samples():
    rng = Lcg(11)
    for _ in range(500):
        p = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        q = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        t = rng.uniform(-3.0, 3.0)
        assert hex_norm((p[0] + q[0], p[1] + q[1])) <= hex_norm(p) + hex_norm(q) + 1e-12
        assert abs(hex_norm((t * p[0], t * p[1])) - abs(t) * hex_norm(p)) <= 1e-12
        assert hex_norm((-p[0], -p[1])) == hex_norm(p)


def test_norm_dihedral_invariance():
    # 60-degree rotation and x-axis reflection generate the hexagon's
    # symmetry group; the norm must be constant on every orbit
    c, s = 0.5, SQRT3 / 2.0
    rng = Lcg(12)
    for _ in range(300):
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        n = hex_norm((x, y))
        assert abs(hex_norm((c * x - s * y, s * x + c * y)) - n) <= 1e-12
        assert abs(hex_norm((x, -y)) - n) <= 1e-12


def test_norm_is_one_on_hexagon_boundary():
    hexagon = unit_ball_hexagon()
    vs = hexagon.vertices
    for i in range(6):
        a, b = vs[i], vs[(i + 1) % 6]
        for k in range(201):
            t = k / 200.0
            p = (a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            assert abs(hex_norm(p) - 1.0) <= 1e-12


# ---------------------------------------------------------------- sextant


def test_sextant_examples():
    assert sextant((1.0, 0.1)) == 1
    assert sextant((0.0, 1.0)) == 2
    assert sextant((1.0, SQRT3)) == 1  # boundary ray, tie to the smaller index


def test_sextant_axes_and_lower_rays():
    assert sextant((1.0, 0.0)) == 1
    assert sextant((-1.0, 0.0)) == 3
    assert sextant((0.0, -1.0)) == 5
    assert sextant((-0.5, -SQRT3 / 2.0)) == 4  # 240-degree ray
    assert sextant((0.5, -SQRT3 / 2.0)) == 5  # 300-degree ray


def test_sextant_origin_raises():
    with pytest.raises(ValueError, match="origin"):
        sextant((0.0, 0.0))


# ---------------------------------------------------------------- geodesics


def test_geodesic_single_segment_on_lattice_direction():
    path = geodesic_path((0.0, 0.0), (2.0, 0.0))
    assert path.vertices == (PlanePoint(0.0, 0.0), PlanePoint(2.0, 0.0))
    assert not path.closed
    assert abs(polyline_length(path) - 2.0) <= 1e-15


def test_geodesic_single_segment_on_sector_boundary():
    path = geodesic_path((0.0, 0.0), (1.0, SQRT3))
    assert len(path.vertices) == 2
    assert abs(polyline_length(path) - 2.0) <= 1e-12


def test_geodesic_two_segments():
    path = geodesic_path((0.0, 0.0), (2.0, SQRT3))
    want = (PlanePoint(0.0, 0.0), PlanePoint(1.0, 0.0), PlanePoint(2.0, SQRT3))
    assert len(path.vertices) == 3
    for got, exp in zip(path.vertices, want):
        assert abs(got.x - exp.x) <= 1e-12 and abs(got.y - exp.y) <= 1e-12
    assert abs(polyline_length(path) - 3.0) <= 1e-12


def test_geodesic_degenerate_point():
    path = geodesic_path((0.3, -0.7), (0.3, -0.7))
    assert path.vertices == (PlanePoint(0.3, -0.7),)
    assert polyline_length(path) == 0.0


def test_geodesic_length_equals_norm_and_segments_are_lattice():
    rng = Lcg(21)
    for _ in range(2000):
        p = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        q = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        path = geodesic_path(p, q)
        d = hex_norm((q[0] - p[0], q[1] - p[1]))
        assert abs(polyline_length(path) - d) <= 1e-12
        assert len(path.vertices) <= 3
        assert abs(path.vertices[0].x - p[0]) <= 1e-12
        assert abs(path.vertices[-1].y - q[1]) <= 1e-12
        for a, b in path.edges():
            ux, uy = b.x - a.x, b.y - a.y
            assert any(
                abs(ux * d2.y - uy * d2.x) <= 1e-9 * math.hypot(ux, uy)
                for d2 in LATTICE_DIRECTIONS[:3]
            )


def test_no_two_segment_lattice_path_is_shorter():
    # exhaustive over direction pairs: any a*u + b*v = q - p with a, b >= 0
    # has length a + b >= the geodesic's
    rng = Lcg(22)
    dirs = LATTICE_DIRECTIONS
    for _ in range(50):
        p = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        q = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        dx, dy = q[0] - p[0], q[1] - p[1]
        best = math.inf
        for i in range(6):
            for j in range(6):
                u, w = dirs[i], dirs[j]
                det = u.x * w.y - u.y * w.x
                if abs(det) < 1e-9:
                    continue
                a = (dx * w.y - dy * w.x) / det
                b = (u.x * dy - u.y * dx) / det
                if a >= -1e-12 and b >= -1e-12:
                    best = min(best, a + b)
        geo = polyline_length(geodesic_path(p, q))
        assert geo <= best + 1e-9


def test_random_intermediate_chains_are_never_shorter():
    rng = Lcg(23)
    for _ in range(200):
        p = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        q = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        r1 = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        r2 = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        length = (
            hex_norm((r1[0] - p[0], r1[1] - p[1]))
            + hex_norm((r2[0] - r1[0], r2[1] - r1[1]))
            + hex_norm((q[0] - r2[0], q[1] - r2[1]))
        )
        assert polyline_length(geodesic_path(p, q)) <= length + 1e-12


# ---------------------------------------------------------------- lengths and areas


def test_polyline_length_examples():
    assert abs(polyline_length(unit_ball_hexagon()) - 6.0) <= 1e-12
    seg = make_chain([(0.0, 0.0), (1.0, 0.0)], closed=False)
    assert polyline_length(seg) == 1.0
    square = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    assert abs(polyline_length(square) - (2.0 + 4.0 / SQRT3)) <= 1e-12


def test_polyline_length_additive_under_concatenation():
    rng = Lcg(31)
    pts = [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(7)]
    full = make_chain(pts, closed=False)
    head = make_chain(pts[:4], closed=False)
    tail = make_chain(pts[3:], closed=False)
    assert abs(polyline_length(full) - polyline_length(head) - polyline_length(tail)) <= 1e-12


def test_polygon_area_examples():
    assert abs(polygon_area(unit_ball_hexagon()) - 3.0 * SQRT3 / 2.0) <= 1e-12
    square = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    assert polygon_area(square) == 1.0


def test_polygon_area_requires_closed_chain():
    open_chain = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], closed=False)
    with pytest.raises(ValueError, match="closed"):
        polygon_area(open_chain)


def test_polygon_area_orientation_independent():
    square = make_chain([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)], closed=True)
    assert polygon_area(square) == 1.0  # clockwise input


def test_shoelace_matches_hexagon_volume_formula():
    # V = (sqrt(3)/4)(2(x1+x2)(x3+x4) - x1^2 - x4^2) on closure-consistent
    # side tuples (x3 = L + x1 - x4, x5 = x1 + x2 - x4)
    rng = Lcg(37)
    done = 0
    while done < 100:
        L = rng.uniform(0.5, 2.0)
        x1 = rng.uniform(0.0, 1.0)
        x2 = rng.uniform(0.05, 1.0)
        x4 = rng.uniform(0.0, 1.0)
        x3 = L + x1 - x4
        x5 = x1 + x2 - x4
        if x3 < 0.01 or x5 < 0.01:
            continue
        poly = fixed_side_polygon(L, (x1, x2, x3, x4, x5))
        want = (SQRT3 / 4.0) * (2.0 * (x1 + x2) * (x3 + x4) - x1 * x1 - x4 * x4)
        assert abs(polygon_area(poly) - want) <= 1e-10
        done += 1


# ---------------------------------------------------------------- circumscribing hexagon


def test_circumscribing_regular_hexagon_is_itself():
    hexagon = unit_ball_hexagon()
    region = circumscribing_hexagon(hexagon)
    got = sorted((round(v.x, 9), round(v.y, 9)) for v in region.corner_points())
    want = sorted((round(v.x, 9), round(v.y, 9)) for v in hexagon.vertices)
    assert got == want


def _zero_side_count(corners) -> int:
    count = 0
    for i in range(6):
        a, b = corners[i], corners[(i + 1) % 6]
        if math.hypot(b.x - a.x, b.y - a.y) <= 1e-9:
            count += 1
    return count


def test_circumscribing_triangle_degenerates_sides():
    # generic triangle: one supporting line is tight at a vertex only,
    # so exactly one hexagon side collapses (a pentagon)
    tri = make_chain([(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)], closed=True)
    assert _zero_side_count(circumscribing_hexagon(tri).corner_points()) == 1
    # lattice-aligned equilateral triangle: the hexagon IS the triangle
    tri = make_chain([(0.0, 0.0), (2.0, 0.0), (1.0, SQRT3)], closed=True)
    corners = circumscribing_hexagon(tri).corner_points()
    assert _zero_side_count(corners) == 3
    got = {(round(c.x, 9), round(c.y, 9)) for c in corners}
    assert got == {(0.0, 0.0), (2.0, 0.0), (1.0, round(SQRT3, 9))}


def test_circumscribing_hexagon_contains_touches_and_shrinks_perimeter():
    rng = Lcg(41)
    for _ in range(100):
        poly = random_convex_polygon(rng)
        region = circumscribing_hexagon(poly)
        rises = [v.y - SQRT3 * v.x for v in poly.vertices]
        falls = [v.y + SQRT3 * v.x for v in poly.vertices]
        flats = [v.y for v in poly.vertices]
        for v in poly.vertices:
            assert region.contains(v)
        assert abs(min(rises) - region.rise_lo) <= 1e-9
        assert abs(max(rises) - region.rise_hi) <= 1e-9
        assert abs(min(falls) - region.fall_lo) <= 1e-9
        assert abs(max(falls) - region.fall_hi) <= 1e-9
        assert abs(min(flats) - region.flat_lo) <= 1e-9
        assert abs(max(flats) - region.flat_hi) <= 1e-9
        boundary = region.boundary()
        assert polyline_length(boundary) <= polyline_length(poly) + 1e-12
        assert polygon_area(boundary) >= polygon_area(poly) - 1e-12


# ---------------------------------------------------------------- double-bubble perimeter


def test_double_bubble_two_hexagons_sharing_a_side():
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(0.0, SQRT3)  # bottom side lands on a's top side
    total, joint = double_bubble_perimeter(a, b)
    assert abs(total - 11.0) <= 1e-12
    assert abs(joint - 1.0) <= 1e-12


def test_double_bubble_disjoint_hexagons():
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(5.0, 0.0)
    total, joint = double_bubble_perimeter(a, b)
    assert joint == 0.0
    assert abs(total - 12.0) <= 1e-12


def test_double_bubble_partial_edge_overlap():
    # equilateral triangles sharing half of one horizontal side
    a = make_chain([(0.0, 0.0), (2.0, 0.0), (1.0, SQRT3)], closed=True)
    b = make_chain([(1.0, 0.0), (2.0, -SQRT3), (3.0, 0.0)], closed=True)
    total, joint = double_bubble_perimeter(a, b)
    assert abs(joint - 1.0) <= 1e-12
    assert abs(total - 11.0) <= 1e-12


def test_double_bubble_alpha_one_kissing_geometry_matches_p3():
    sol = kissing_minimum(1.0)
    geometry_a, geometry_b, _, _ = kissing_geometry(sol.L1, sol.L2, 1.0)
    total, joint = double_bubble_perimeter(geometry_a, geometry_b)
    assert abs(total - sol.perimeter) <= 1e-9
    assert abs(joint - sol.L1) <= 1e-9


def test_double_bubble_overlapping_interiors_raise():
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(0.5, 0.0)
    with pytest.raises(ValueError, match="overlap"):
        double_bubble_perimeter(a, b)


def test_double_bubble_rejects_non_lattice_shared_edge():
    a = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    b = make_chain([(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)], closed=True)
    with pytest.raises(ValueError, match="lattice"):
        double_bubble_perimeter(a, b)  # vertical shared edge


def test_double_bubble_rejects_shared_edge_at_45_degrees():
    a = make_chain([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    b = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], closed=True)
    with pytest.raises(ValueError, match="lattice"):
        double_bubble_perimeter(a, b)


def test_double_bubble_requires_closed_chains():
    a = unit_ball_hexagon()
    open_chain = make_chain([(4.0, 0.0), (5.0, 0.0), (5.0, 1.0)], closed=False)
    with pytest.raises(ValueError, match="closed"):
        double_bubble_perimeter(a, open_chain)


# ---------------------------------------------------------------- chain validation


def test_closed_chain_needs_three_vertices():
    with pytest.raises(ValueError, match="3 vertices"):
        PolyChain((PlanePoint(0.0, 0.0), PlanePoint(1.0, 0.0)), closed=True)


def test_single_vertex_open_chain_allowed():
    chain = PolyChain((PlanePoint(0.0, 0.0),), closed=False)
    assert polyline_length(chain) == 0.0


def test_self_intersecting_closed_chain_rejected():
    with pytest.raises(ValueError, match="simple"):
        make_chain([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)], closed=True)


def test_collinear_non_lattice_backtrack_rejected():
    # the edge (2, 2)-(1, 1) runs back along the 45-degree first edge
    with pytest.raises(ValueError, match="not simple"):
        make_chain([(0.0, 0.0), (3.0, 3.0), (4.0, 3.0), (2.0, 2.0), (1.0, 1.0)], closed=True)


def test_consecutive_duplicate_vertices_rejected():
    with pytest.raises(ValueError, match="coincide"):
        PolyChain(
            (PlanePoint(0.0, 0.0), PlanePoint(0.0, 0.0), PlanePoint(1.0, 0.0)),
            closed=False,
        )


def test_make_chain_merges_near_duplicates():
    chain = make_chain(
        [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)],
        closed=True,
    )
    assert len(chain.vertices) == 4  # repeated start and closing vertex dropped


def test_non_finite_vertex_rejected():
    with pytest.raises(ValueError, match="finite"):
        PolyChain((PlanePoint(0.0, 0.0), PlanePoint(math.inf, 0.0)), closed=False)
