"""Metric core: norm, sectors, geodesics, areas, circumscribed hexagons."""

import dataclasses
import math
import pickle

import pytest

from conftest import SQRT3, random_convex_polygon, unit_ball_hexagon
from hexbubble import hexnorm
from hexbubble.embedded import embedded_geometry, minimize_rho1, rho2_minimum
from hexbubble.hexnorm import (
    GEOM_TOL,
    LATTICE_DIRECTIONS,
    HexRegion,
    PlanePoint,
    PolyChain,
    circumscribing_hexagon,
    double_bubble_perimeter,
    geodesic_path,
    hex_norm,
    make_chain,
    point_in_polygon,
    polygon_area,
    polyline_length,
    sextant,
    shared_segments,
)
from hexbubble.oracle import Lcg, perturb_local_min
from hexbubble.singlebubble import fixed_side_polygon
from hexbubble.kissing import kissing_geometry, kissing_minimum
from hexbubble.solver import solve


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


@pytest.mark.parametrize(
    "p", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (math.inf, math.inf)]
)
def test_sextant_non_finite_raises(p):
    # no sector holds such a point; (inf, inf) used to land in sector 2,
    # though its 45-degree direction lies in sector 1
    with pytest.raises(ValueError, match="non-finite"):
        sextant(p)
    with pytest.raises(ValueError):
        geodesic_path((0.0, 0.0), p)


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
    assert shared_segments(a, b) == [(PlanePoint(1.0, 0.0), PlanePoint(2.0, 0.0))]


def test_shared_segments_draws_a_non_lattice_joint():
    # unit squares sharing a vertical edge: the metric refuses the joint,
    # the drawing still gets it
    a = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    b = make_chain([(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)], closed=True)
    with pytest.raises(ValueError, match="not along a lattice direction"):
        double_bubble_perimeter(a, b)
    assert shared_segments(a, b) == [(PlanePoint(1.0, 0.0), PlanePoint(1.0, 1.0))]


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


def test_double_bubble_identical_cells_overlap():
    # every vertex and edge midpoint lies on the other chain's boundary
    hexagon = HexRegion(-1.0, 1.0, -1.0, 1.0, -0.5, 0.5).boundary()
    with pytest.raises(ValueError, match="interiors overlap"):
        double_bubble_perimeter(hexagon, hexagon)
    with pytest.raises(ValueError, match="interiors overlap"):
        double_bubble_perimeter(hexagon, PolyChain(hexagon.vertices[::-1], closed=True))


def test_double_bubble_triangle_inside_rhombus_overlaps():
    # the triangle shares two rhombus sides; its third side is the diagonal
    h = SQRT3 / 2.0
    triangle = make_chain([(0.0, 0.0), (1.0, 0.0), (1.5, h)], closed=True)
    rhombus = make_chain([(0.0, 0.0), (1.0, 0.0), (1.5, h), (0.5, h)], closed=True)
    with pytest.raises(ValueError, match="interiors overlap"):
        double_bubble_perimeter(triangle, rhombus)
    with pytest.raises(ValueError, match="interiors overlap"):
        double_bubble_perimeter(rhombus, triangle)


def test_double_bubble_triangle_on_alternate_hexagon_corners_overlaps():
    # no edges cross, no vertex is strictly inside: the chords' midpoints are
    hexagon = HexRegion(-1.0, 1.0, -1.0, 1.0, -0.5, 0.5).boundary()
    triangle = PolyChain(hexagon.vertices[::2], closed=True)
    with pytest.raises(ValueError, match="interiors overlap"):
        double_bubble_perimeter(hexagon, triangle)
    with pytest.raises(ValueError, match="interiors overlap"):
        double_bubble_perimeter(triangle, hexagon)


def test_double_bubble_mirror_pair_touches_in_either_orientation():
    # reading one chain clockwise must not turn a shared side into an overlap
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(0.0, SQRT3)
    for chain_b in (b, PolyChain(b.vertices[::-1], closed=True)):
        total, joint = double_bubble_perimeter(a, chain_b)
        assert abs(total - 11.0) <= 1e-12
        assert abs(joint - 1.0) <= 1e-12


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


def test_point_in_polygon_excludes_the_boundary():
    square = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    assert point_in_polygon((0.5, 0.5), square)
    assert point_in_polygon((1.0 - 2e-9, 0.5), square)
    assert not point_in_polygon((1.0 - 0.5e-9, 0.5), square)  # within GEOM_TOL
    assert not point_in_polygon((1.0, 1.0), square)
    assert not point_in_polygon((1.5, 0.5), square)
    assert not point_in_polygon((-0.5, 0.5), square)
    assert not point_in_polygon((0.5, 2.0), square)


# ---------------------------------------------------------------- bounding-box pads
#
# Horizontal edges have bounding boxes of zero height, so each case below
# is decided by a pad: with any pad dropped to 0 the first two fail.


def test_double_bubble_joins_horizontal_edges_offset_within_tolerance():
    # b's bottom edge runs 0.9 GEOM_TOL above a's top edge
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(0.0, SQRT3 + 0.9 * GEOM_TOL)
    total, joint = double_bubble_perimeter(a, b)
    assert joint > 0.0
    assert abs(joint - 1.0) <= 1e-12
    assert abs(total - 11.0) <= 1e-12


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
@pytest.mark.parametrize("swap", [False, True], ids=["a-first", "b-first"])
def test_edge_box_pads_keep_flat_edges_offset_within_tolerance(side, swap):
    # b's flat edge runs 0.9 GEOM_TOL beyond a's, above or below it, so
    # their boxes, of zero height, miss each other: only the pad of the
    # other chain's edge boxes in _contacts keeps the pair
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(0.0, side * (SQRT3 + 0.9 * GEOM_TOL))
    total, joint = double_bubble_perimeter(*((b, a) if swap else (a, b)))
    assert abs(joint - 1.0) <= 1e-12
    assert abs(total - 11.0) <= 1e-12


def test_point_just_inside_a_flat_top_edge_is_on_the_boundary():
    hexagon = unit_ball_hexagon()
    assert not point_in_polygon((0.0, SQRT3 / 2.0 - 0.5 * GEOM_TOL), hexagon)
    assert point_in_polygon((0.0, SQRT3 / 2.0 - 3.0 * GEOM_TOL), hexagon)


def test_double_bubble_cells_touching_at_a_corner_share_nothing():
    # a's east corner is b's west corner; the 60-degree edges there lie on
    # one line but meet in that point only
    a = unit_ball_hexagon()
    b = unit_ball_hexagon(2.0, 0.0)
    total, joint = double_bubble_perimeter(a, b)
    assert joint == 0.0
    assert abs(total - 12.0) <= 1e-12
    assert shared_segments(a, b) == []


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


def test_pentagram_rejected():
    # every turn is 144 degrees to the left, yet the chain winds twice; with
    # its centre inserted as a notch, one turn is right and the rest left
    star = [(math.cos(0.8 * math.pi * k), math.sin(0.8 * math.pi * k)) for k in range(5)]
    for chain in (star, [star[0], (0.0, 0.0), *star[1:]]):
        with pytest.raises(ValueError, match="not simple"):
            make_chain(chain, closed=True)


def test_collinear_non_lattice_backtrack_rejected():
    # the edge (2, 2)-(1, 1) runs back along the 45-degree first edge
    with pytest.raises(ValueError, match="not simple"):
        make_chain([(0.0, 0.0), (3.0, 3.0), (4.0, 3.0), (2.0, 2.0), (1.0, 1.0)], closed=True)


@pytest.mark.parametrize(
    "points",
    [
        # back from (2, 0) to (1, 0) along the first edge: the doubled unit
        # would count twice in the length (5.73 against the triangle's 3.73)
        [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
        # a lattice walk whose closing edge runs back along its first one
        [(0.0, 0.0), (-0.75, -1.299038105676658), (-1.25, -1.299038105676658),
         (-1.0, -1.7320508075688772)],
    ],
    ids=["axis", "lattice-walk"],
)
def test_fold_backs_are_not_simple(points):
    # two consecutive edges on one line, opposite ways, wherever the chain
    # starts (so also across the closing vertex) and in either orientation
    n = len(points)
    for k in range(n):
        for chain in (points[k:] + points[:k], (points[k:] + points[:k])[::-1]):
            with pytest.raises(ValueError, match="not simple"):
                make_chain(chain, closed=True)


def test_straight_continuations_are_simple():
    # (1, 0) is a vertex with a straight angle: its edges meet in a point
    points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)]
    for k in range(len(points)):
        # the straight angle fails the certificate's turn test: the scan passes it
        assert make_chain(points[k:] + points[:k], closed=True).certified is None


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


@pytest.mark.parametrize("closed", [False, True])
def test_chain_takes_any_iterable_of_pairs(closed):
    # the one pass reads its input once, so generators and iterators build
    # the same chain as a tuple, and int pairs come out as floats
    pts = ((0.0, 0.0), (2.0, 0.0), (3.0, 2.0), (0.0, 1.0))
    expected = PolyChain(pts, closed=closed)
    given = (
        (p for p in pts),
        iter(pts),
        [[int(x), int(y)] for x, y in pts],
    )
    for vertices in given:
        chain = PolyChain(vertices, closed=closed)
        assert chain.vertices == expected.vertices
        assert all(type(c) is float for v in chain.vertices for c in v)
        assert all(type(v) is PlanePoint for v in chain.vertices)
        assert chain.certified == expected.certified
        assert polyline_length(chain) == polyline_length(expected)


@pytest.mark.parametrize(
    "pts, closed, text",
    [
        (
            ((0, 0), (2.5, 0.0), (3, 1)), False,
            "PolyChain(vertices=(PlanePoint(x=0.0, y=0.0), PlanePoint(x=2.5, y=0.0), "
            "PlanePoint(x=3.0, y=1.0)), closed=False)",
        ),
        (
            ((0.0, 0.0), (2.0, 0.0), (3.0, 2.0), (0.0, 1.0)), True,
            "PolyChain(vertices=(PlanePoint(x=0.0, y=0.0), PlanePoint(x=2.0, y=0.0), "
            "PlanePoint(x=3.0, y=2.0), PlanePoint(x=0.0, y=1.0)), closed=True)",
        ),
    ],
)
def test_chain_keeps_the_dataclass_contract(pts, closed, text):
    # PolyChain is a plain frozen class whose equality, hash and repr are
    # those of the frozen dataclass it replaced, over (vertices, closed)
    chain = PolyChain(pts, closed)
    points = tuple(PlanePoint(float(x), float(y)) for x, y in pts)
    assert chain.vertices == points
    assert all(type(v) is PlanePoint for v in chain.vertices)
    assert repr(chain) == text
    assert hash(chain) == hash((points, closed))
    assert chain == PolyChain(list(pts), closed)
    assert chain != PolyChain(pts, not closed)
    assert chain != PolyChain(pts[::-1], closed)
    assert chain.__eq__((points, closed)) is NotImplemented
    for name in ("vertices", "closed", "certified", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chain, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(chain, name)
    for fresh in (PolyChain(pts, closed), chain):  # vertices unread, then read
        copy = pickle.loads(pickle.dumps(fresh))
        assert copy == chain and copy.vertices == points and copy.certified == chain.certified
        assert polyline_length(copy) == polyline_length(chain)


def test_solver_and_metric_never_make_plane_points(monkeypatch):
    # the vertices are PlanePoints built on first read: solve, the metric
    # and the perturbation checks' rebuilds read only the float pairs
    built = []
    validate = PolyChain.__post_init__

    def recording(chain):
        validate(chain)
        built.append(chain)

    monkeypatch.setattr(PolyChain, "__post_init__", recording)
    for alpha in (0.05, 0.6):
        entry = solve(alpha).solutions[0]
        a, b = entry.geometry_a, entry.geometry_b
        double_bubble_perimeter(a, b)
        if alpha < 0.1:
            def rebuild(params):
                return embedded_geometry(params[0], params[1], 1.0, alpha)[:2]
        else:
            def rebuild(params):
                return kissing_geometry(params[0], params[1], alpha)[:2]
        assert perturb_local_min(a, b, rebuild, (entry.L1, entry.L2), trials=1)
    assert len(built) == 8
    assert not any("vertices" in vars(chain) for chain in built)
    assert type(built[0].vertices[0]) is PlanePoint
    assert "vertices" in vars(built[0])


def test_non_finite_vertex_rejected():
    with pytest.raises(ValueError, match="finite"):
        PolyChain((PlanePoint(0.0, 0.0), PlanePoint(math.inf, 0.0)), closed=False)


@pytest.mark.parametrize(
    "vertices, closed, message",
    [
        # a non-finite vertex is reported before any count or edge error
        (((0.0, 0.0), (0.0, 0.0), (math.inf, 0.0)), True, "non-finite vertex"),
        (((math.nan, 0.0),), True, "non-finite vertex"),
        # too few vertices is reported before a coinciding pair
        (((0.0, 0.0), (0.0, 0.0)), True, "closed chain needs at least 3 vertices"),
        ((), False, "chain needs at least 1 vertex"),
        # a coinciding pair, the closing one too, before the simplicity check
        (
            ((0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)),
            True,
            "consecutive vertices coincide",
        ),
        (((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)), True, "consecutive vertices coincide"),
        (((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)), True, "closed chain is not simple"),
    ],
)
def test_chain_errors_come_in_a_fixed_order(vertices, closed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PolyChain(vertices, closed=closed)


def _closed_rows(pts):
    # a closed chain's edge rows are those of the open chain back to its start
    return PolyChain(tuple(pts) + (pts[0],))._rows


def test_certified_chains_pass_the_full_scan(monkeypatch):
    # wherever the O(n) certificate in PolyChain's one pass answers "simple",
    # the O(n^2) scan it lets PolyChain skip finds nothing, and the chain is
    # counterclockwise, as double_bubble_perimeter assumes when it skips
    # _orientation; every closed chain built below, simple or not, goes
    # through this check
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    validate = PolyChain.__post_init__
    certified = []

    def checked(chain):
        validate(chain)
        simple = chain.certified
        if simple:
            assert chain.closed and simple in (hexnorm.CONVEX, hexnorm.NOTCHED)
            pts = chain.vertices
            rows = _closed_rows(pts)
            assert not hexnorm._self_overlaps(rows), pts
            assert hexnorm._orientation(rows) == 1.0, pts
            certified.append(pts)

    monkeypatch.setattr(PolyChain, "__post_init__", checked)
    settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
    seeds = st.integers(min_value=0, max_value=2**32)

    def build(points):
        try:
            make_chain(points, closed=True)
        except ValueError:
            pass

    @settings
    @hypothesis.given(seeds)
    def hulls(seed):
        random_convex_polygon(Lcg(seed))

    # sides along 0, 60, ..., 300 degrees close when a1 + a2 = a4 + a5 and
    # a2 + a3 = a5 + a6; sides of 0 give trapezoids and smaller cells
    side = st.one_of(st.just(0.0), st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e))
    offset = st.floats(min_value=-1.0, max_value=1.0)

    @settings
    @hypothesis.given(side, side, side, side, offset, offset)
    def lattice(a1, a2, a3, a5, x, y):
        a5 = min(a5, a1 + a2, a2 + a3)
        points = []
        for s, d in zip((a1, a2, a3, a1 + a2 - a5, a5, a2 + a3 - a5), LATTICE_DIRECTIONS):
            points.append((x, y))
            x, y = x + s * d.x, y + s * d.y
        build(points)

    # both volume assignments: rho1 (outer cell volume 1) and rho2
    ratio = st.floats(min_value=-15.0, max_value=0.0).map(lambda e: 10.0**e)
    perturbation = st.tuples(
        st.sampled_from((0.0, 1e-9, 1e-6, 1e-3, 0.1)), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
    )

    @settings
    @hypothesis.given(ratio, st.booleans(), perturbation)
    def embedded_cells(alpha, swap, eps):
        L1, L2, _ = rho2_minimum(alpha) if swap else minimize_rho1(alpha)
        volumes = (alpha, 1.0) if swap else (1.0, alpha)
        try:
            embedded_geometry(L1 * (1.0 + eps[0] * eps[1]), L2 * (1.0 + eps[0] * eps[2]), *volumes)
        except ValueError:
            pass

    # a vertex r inserted after vertex k of a polygon inscribed in a circle
    # of radius up to 60, at a point of edge m moved off it by a depth from
    # 1e-15 to 1 (times the radius), inward or outward
    unit = st.floats(min_value=0.0, max_value=1.0)
    notches = []

    @settings
    @hypothesis.given(seeds, st.integers(3, 9), seeds, seeds, unit, ratio, st.booleans(), unit)
    def notched(seed, n, k, m, t, depth, outward, size):
        rng = Lcg(seed)
        angles = [2.0 * math.pi * (i + 0.6 * rng.uniform()) / n for i in range(n)]
        radius = 1.0 + 59.0 * size
        hull = [(radius * math.cos(a), radius * math.sin(a)) for a in angles]
        k, m = k % n, m % n
        (ax, ay), (bx, by) = hull[m], hull[(m + 1) % n]
        ex, ey = bx - ax, by - ay
        d = radius * (-depth if outward else depth) / math.hypot(ex, ey)
        r = (ax + t * ex - d * ey, ay + t * ey + d * ex)
        count = len(certified)
        build([*hull[: k + 1], r, *hull[k + 1 :]])
        notches.extend(certified[count:])

    # every family reaches "simple", the notched one by the one-notch rule
    for family in (hulls, lattice, embedded_cells, notched):
        certified.clear()
        family()
        assert certified, family.__name__
    assert notches


def _cut_corners(rng):
    # a polygon inscribed in a circle of radius 1e-7 to 60, placed within
    # +/-64, with one to three corners cut by a side 5e-13 to 1.3e-8 long,
    # split at random between the two edges at the corner; a quarter of the
    # cuts move the side's far end off its line by up to its own length,
    # which can bend either turn at its ends to the right
    n = 3 + rng.next_u64() % 8
    radius = 10.0 ** rng.uniform(-7.0, math.log10(60.0))
    cx, cy = (rng.uniform(-1.0, 1.0) * (63.9 - radius) for _ in range(2))
    angles = sorted(2.0 * math.pi * rng.uniform() for _ in range(n))
    poly = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
    cut = {rng.next_u64() % n for _ in range(1 + rng.next_u64() % 3)}
    points = []
    for k, (vx, vy) in enumerate(poly):
        if k not in cut:
            points.append((vx, vy))
            continue
        (px, py), (qx, qy) = poly[k - 1], poly[(k + 1) % n]
        into, out = math.hypot(vx - px, vy - py), math.hypot(qx - vx, qy - vy)
        length = 10.0 ** rng.uniform(-12.3, -7.9)
        a = length * rng.uniform()
        b = length - a
        ax, ay = vx - a * (vx - px) / into, vy - a * (vy - py) / into
        bx, by = vx + b * (qx - vx) / out, vy + b * (qy - vy) / out
        if rng.next_u64() % 4 == 0:
            sx, sy = bx - ax, by - ay
            d = length * rng.uniform(-1.0, 1.0) / (math.hypot(sx, sy) or 1.0)
            bx, by = bx - d * sy, by + d * sx
        points += [(ax, ay), (bx, by)]
    return points


def test_isolated_short_sides_pass_the_full_scan():
    # the convex rule's short-side clause: on every chain it passes, the
    # O(n^2) scan finds nothing, the chain is counterclockwise, and the
    # half-plane test decides as _strictly_inside does at heights near
    # GEOM_TOL, next to the short sides too
    rng = Lcg(79)
    certified = with_short = 0
    for _ in range(3000):
        try:
            chain = PolyChain(_cut_corners(rng), closed=True)
        except ValueError:
            continue
        if not chain.certified:
            continue
        assert chain.certified is hexnorm.CONVEX
        pts = chain._pairs
        rows = _closed_rows(pts)
        assert not hexnorm._self_overlaps(rows), pts
        assert hexnorm._orientation(rows) == 1.0, pts
        certified += 1
        rows = chain._rows
        lengths = [row[7] for row in rows]
        with_short += min(lengths) < 8.0 * GEOM_TOL
        assert all(length > hexnorm.DEDUP_TOL for length in lengths)
        for row in rows:
            for _ in range(6):
                h = GEOM_TOL * 10.0 ** rng.uniform(-1.0, 1.0)
                if rng.next_u64() % 4 == 0:
                    h = -h
                elif rng.next_u64() % 2:
                    h = GEOM_TOL * (1.0 + 1e-7 * (rng.next_u64() % 13 - 6.0))
                px, py = _at_height(row, rng.uniform(-0.5, 1.5), h)
                want = hexnorm._strictly_inside(px, py, rows)
                assert hexnorm._inside_convex(px, py, rows) == want, (px, py, pts)
    # the clause is reached: most certified chains keep a short side
    assert certified > 200 and with_short > certified // 2


@pytest.mark.parametrize("width", [2e-12, 1e-10, 9e-10])
def test_short_side_hairpins_stay_on_the_full_scan(width):
    # a strip of two long sides joined by short ones, narrower than
    # GEOM_TOL: the long sides run along one line, so the scan finds a
    # shared stretch.  Each short side turns left by sine >= 1/4 at both
    # ends, so only the clause's turn across it (a rectangle's ends) or its
    # long neighbours (capped ends, two short sides meeting at a point)
    # decline the chain
    for angle in (0.0, 0.3, 2.0):
        c, s = math.cos(angle), math.sin(angle)

        def placed(points):
            return [(3.0 + c * x - s * y, -2.0 + s * x + c * y) for x, y in points]

        rectangle = [(0.0, 0.0), (10.0, 0.0), (10.0, width), (0.0, width)]
        capped = [
            (0.0, 0.0), (10.0, 0.0), (10.0 + width, width / 2.0),
            (10.0, width), (0.0, width), (-width, width / 2.0),
        ]
        for points in (rectangle, capped):
            assert hexnorm._self_overlaps(_closed_rows(placed(points)))
            with pytest.raises(ValueError, match="^closed chain is not simple$"):
                PolyChain(placed(points), closed=True)


@pytest.mark.parametrize("chord", [8.5e-9, 4e-8])
def test_notch_spikes_stay_on_the_full_scan(chord):
    # a diamond whose bottom corner is cut by a chord p -> q, with the notch
    # vertex r straight above it: r lies far inside every hull edge line,
    # so only the sine test on the turn at r tells a spike 50 long, whose
    # two edges run within GEOM_TOL of each other (a fold-back to the full
    # scan), from a spike 1 long, which the certificate passes
    h = chord / 2.0
    for length, simple in ((50.0, False), (1.0, True)):
        points = [(-50.0, 0.0), (-h, h - 50.0), (0.0, length - 50.0), (h, h - 50.0),
                  (50.0, 0.0), (0.0, 50.0)]
        assert hexnorm._self_overlaps(_closed_rows(points)) is not simple
        if simple:
            assert PolyChain(points, closed=True).certified is hexnorm.NOTCHED
        else:
            with pytest.raises(ValueError, match="^closed chain is not simple$"):
                PolyChain(points, closed=True)


def test_notch_depth_grows_with_the_hull_edge():
    # r is 9.9 GEOM_TOL above the hull edge from (0, 0) to (20, 0), and the
    # notch edge p -> r runs 10 along it, tilted from it by under GEOM_TOL:
    # the full scan calls that a shared stretch, so a certificate that asked
    # r for a depth of 8 GEOM_TOL whatever the edge's length would pass a
    # chain that the scan rejects
    tilt = 0.99 * GEOM_TOL
    p = (20.0 + 5e-8, (20.0 + 5e-8) * tilt)
    r = (p[0] - 10.0, p[1] - 10.0 * tilt)
    points = (p, r, (10.0, 10.0), (0.0, 0.0), (20.0, 0.0))
    assert hexnorm._self_overlaps(_closed_rows(points))
    with pytest.raises(ValueError, match="^closed chain is not simple$"):
        PolyChain(points, closed=True)


def test_point_in_polygon_requires_a_closed_chain():
    open_square = make_chain([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)], closed=False)
    with pytest.raises(ValueError, match="^point_in_polygon requires a closed chain$"):
        point_in_polygon((1.0, 1.0), open_square)


@pytest.mark.parametrize(
    "p", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf), (math.nan, math.nan)]
)
def test_point_in_polygon_needs_a_finite_point(p):
    # no comparison with a nan holds, so such a point used to come out "outside"
    square = make_chain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], closed=True)
    with pytest.raises(ValueError, match="^point_in_polygon needs a finite point$"):
        point_in_polygon(p, square)


# ---------------------------------------------------------------- the metric's shortcuts


def _convex_cells(rng):
    # solver cells that the certificate passes as convex: both glued cells
    # and the nested inner cell, at perturbed parameters
    cells = []
    for _ in range(6):
        alpha = 10.0 ** (-6.0 * rng.uniform())
        sol = kissing_minimum(alpha)
        f = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0)
        cells.extend(kissing_geometry(sol.L1 * f, sol.L2, alpha)[:2])
        L1, L2, _ = minimize_rho1(alpha)
        cells.append(embedded_geometry(L1 * f, L2, 1.0, alpha)[1])
    return cells


def _at_height(row, t, h):
    # the point at fraction t along edge row, h above its line (left of it)
    ax, ay, _, _, ex, ey, _, _, ux, uy, _ = row
    return ax + t * ex - h * uy, ay + t * ey + h * ux


def test_half_planes_agree_with_the_full_inside_test():
    # on certified convex chains the half-plane test decides as
    # _strictly_inside does: near an edge line, at vertices, far inside
    # and far outside
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
    side = st.floats(min_value=-7.0, max_value=0.5).map(lambda e: 10.0**e)
    offset = st.floats(min_value=-8.0, max_value=8.0)
    cells = _convex_cells(Lcg(61))

    def lattice(a1, a2, a3, a5, x, y):
        a5 = min(a5, a1 + a2, a2 + a3)
        points = []
        for s, d in zip((a1, a2, a3, a1 + a2 - a5, a5, a2 + a3 - a5), LATTICE_DIRECTIONS):
            points.append((x, y))
            x, y = x + s * d.x, y + s * d.y
        return make_chain(points, closed=True)

    chains = st.one_of(
        st.builds(lattice, side, side, side, side, offset, offset),
        st.integers(0, 2**32).map(lambda seed: random_convex_polygon(Lcg(seed))),
        st.sampled_from(cells),
    )
    where = st.one_of(
        st.tuples(st.just("edge"), st.floats(0.0, 1.0), st.floats(-3.0, 3.0)),
        st.tuples(st.just("vertex"), st.just(0.0), st.just(0.0)),
        st.tuples(st.just("far"), st.floats(0.0, 1.0), st.sampled_from((-0.25, 0.25))),
    )

    @settings
    @hypothesis.given(chains, st.integers(0, 63), where)
    def agree(chain, k, point):
        hypothesis.assume(chain.certified is hexnorm.CONVEX)
        rows = chain._rows
        row = rows[k % len(rows)]
        kind, t, h = point
        if kind == "edge":
            h *= GEOM_TOL
        elif kind == "far":
            # a quarter of the chain's width inside or outside the edge
            x0, x1, y0, y1 = chain._box
            h *= max(x1 - x0, y1 - y0)
        px, py = _at_height(row, t, h)
        assert hexnorm._inside_convex(px, py, rows) == hexnorm._strictly_inside(px, py, rows)

    agree()


def test_half_plane_band_decides_heights_at_geom_tol_as_the_full_test():
    # heights within 6e-7 relative of GEOM_TOL, where the height above an
    # edge line and _strictly_inside's distance to the edge round to
    # different sides of GEOM_TOL now and then: without the deferral band
    # the half-plane test disagrees on some of these points
    rng = Lcg(67)
    for chain in _convex_cells(rng):
        assert chain.certified is hexnorm.CONVEX
        rows = chain._rows
        for row in rows:
            for _ in range(60):
                h = GEOM_TOL * (1.0 + 1e-7 * (rng.next_u64() % 13 - 6.0))
                px, py = _at_height(row, rng.uniform(0.05, 0.95), h)
                want = hexnorm._strictly_inside(px, py, rows)
                assert hexnorm._inside_convex(px, py, rows) == want, (px, py)


def test_length_from_the_rows_pass_is_the_edge_sum_bit_for_bit():
    # polyline_length and the metric's total read the D-length that the
    # rows pass sums; it is the exactly rounded sum of hex_norm per edge
    rng = Lcg(71)
    chains = _convex_cells(rng)
    for _ in range(200):
        chains.append(random_convex_polygon(rng))
        p = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        chains.append(geodesic_path(p, (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))))
    for L1, L2, _ in (minimize_rho1(0.05), minimize_rho1(1e-9)):
        chains.extend(embedded_geometry(L1, L2, 1.0, 0.05)[:2])
    for chain in chains:
        want = math.fsum([hex_norm((q.x - p.x, q.y - p.y)) for p, q in chain.edges()])
        assert polyline_length(chain).hex() == want.hex()


def test_a_cell_behind_the_notch_of_a_notched_cell_overlaps_it():
    # the half-plane test serves convex chains only: just past the notch
    # vertex r of the nested outer cell, on the far side of the line
    # through the notch edge p -> r, lies a point inside the cell
    L1, L2, _ = minimize_rho1(0.05)
    outer = embedded_geometry(L1, L2, 1.0, 0.05)[0]
    assert outer.certified is hexnorm.NOTCHED
    vs = outer.vertices
    turns = [
        (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
        for a, b, c in zip(vs[-1:] + vs[:-1], vs, vs[1:] + vs[:1])
    ]
    k = min(range(len(vs)), key=turns.__getitem__)  # the one right turn
    p, r = vs[k - 1], vs[k]
    dx, dy = r.x - p.x, r.y - p.y
    # half an edge beyond r, then a tenth of an edge to the right of the line
    x, y = r.x + 0.5 * dx + 0.1 * dy, r.y + 0.5 * dy - 0.1 * dx
    s = math.hypot(dx, dy) / 40.0
    tiny = make_chain([(x - s, y - s), (x + s, y - s), (x, y + s)], closed=True)
    for v in tiny.vertices:
        assert point_in_polygon(v, outer)
        assert dx * (v.y - p.y) - dy * (v.x - p.x) < 0.0  # right of the line p -> r
    for pair in ((outer, tiny), (tiny, outer)):
        with pytest.raises(ValueError, match="^interiors overlap$"):
            double_bubble_perimeter(*pair)
