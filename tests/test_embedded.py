"""Nested configuration: inner cell, notched outer cell, the two volume
assignments, the degenerate-variant check, and the skew-notch invariant."""

import math

import pytest

from conftest import SQRT3, golden_min_1d
from hexbubble.embedded import (
    ROUTE_RHO1,
    case2_check,
    case2_report,
    embedded_geometry,
    embedded_minimum,
    inner_hexagon,
    minimize_rho1,
    notch_skew_perimeter,
    outer_notched,
    rho1,
    rho1_optimal_L2,
    rho2,
    rho2_minimum,
)
from hexbubble.hexnorm import double_bubble_perimeter, polygon_area, polyline_length
from hexbubble.kissing import kissing_minimum
from hexbubble.oracle import BoxSpec, Lcg, grid_refine_min
from hexbubble.singlebubble import isoperimetric_optimum


# ---------------------------------------------------------------- inner cell


def test_inner_hexagon_frozen():
    sides, perim = inner_hexagon(1.0, 0.5)
    assert abs(sides[0] - 0.32735026918962573) <= 1e-15
    assert sides[1] == sides[2] == sides[4] == sides[5] == 0.5
    assert sides[3] == sides[0]
    assert abs(perim - 2.6547005383792515) <= 1e-15
    sides, perim = inner_hexagon(1.0, 1.0)
    assert abs(sides[0] - 0.9047005383792515) <= 1e-15
    assert abs(perim - 3.809401076758503) <= 1e-15


def test_inner_hexagon_formulas():
    rng = Lcg(101)
    for _ in range(100):
        V = rng.uniform(0.2, 2.0)
        L = rng.uniform(0.1, 0.99) * math.sqrt(8.0 * SQRT3 * V / 3.0)
        sides, perim = inner_hexagon(L, V)
        assert abs(sides[0] - (8.0 * SQRT3 * V - 3.0 * L * L) / (12.0 * L)) <= 1e-12
        assert abs(perim - (9.0 * L * L + 8.0 * SQRT3 * V) / (6.0 * L)) <= 1e-12
        assert abs(perim - (2.0 * sides[0] + 2.0 * L)) <= 1e-12


def test_inner_hexagon_width_limit():
    V = 0.7
    L_max = math.sqrt(8.0 * SQRT3 * V / 3.0)
    sides, _ = inner_hexagon(L_max, V)
    assert sides[0] == 0.0
    with pytest.raises(ValueError, match="width too large"):
        inner_hexagon(L_max * 1.01, V)


def test_inner_perimeter_diverges_for_thin_cells():
    assert inner_hexagon(1e-3, 1.0)[1] > 1000.0


def test_inner_shape_oracle():
    # free the top-slant split x2 and re-derive x1 from the volume; the
    # closed form should be the minimizer of the resulting 1-D family
    L, V = 1.0, 1.0
    dirs = [
        (0.5, SQRT3 / 2.0),
        (-0.5, SQRT3 / 2.0),
        (-1.0, 0.0),
        (-0.5, -SQRT3 / 2.0),
        (0.5, -SQRT3 / 2.0),
        (1.0, 0.0),
    ]

    def walk(x1, x2):
        lens = (x1, x2, L - x2, x1 + x2 - L / 2.0, L / 2.0, L / 2.0)
        pts = [(0.0, 0.0)]
        for (dx, dy), s in zip(dirs, lens):
            x, y = pts[-1]
            pts.append((x + s * dx, y + s * dy))
        return pts[:-1], lens

    def area(x1, x2):
        pts, _ = walk(x1, x2)
        acc = 0.0
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            acc += ax * by - bx * ay
        return 0.5 * acc

    def x1_for(x2):
        lo, hi = max(0.0, L / 2.0 - x2), 6.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if area(mid, x2) < V:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def perim(x2):
        _, lens = walk(x1_for(x2), x2)
        return sum(lens)

    grid = [0.05 + k * (0.90 / 399.0) for k in range(400)]
    seed = min(grid, key=perim)
    step = 0.90 / 399.0
    x2_star, p_star = golden_min_1d(perim, seed - step, seed + step)
    assert abs(x2_star - 0.5) <= 1e-5
    assert abs(p_star - inner_hexagon(L, V)[1]) <= 1e-5


# ---------------------------------------------------------------- outer cell


def test_outer_notched_frozen():
    sides, perim = outer_notched(1.0, 1.3, 1.0)
    assert abs(sides[0] - 0.7555388756763471) <= 1e-15
    assert abs(sides[1] - 0.15) <= 1e-15
    assert sides[1] == sides[2]
    assert sides[3] == sides[0]
    assert sides[4] == sides[5] == 0.65
    assert abs(perim - 4.111077751352695) <= 1e-15


def test_outer_notched_formulas():
    rng = Lcg(103)
    for _ in range(100):
        V = rng.uniform(0.4, 1.6)
        L1 = rng.uniform(0.1, 0.9)
        vp = V + SQRT3 * L1 * L1 / 8.0
        L2 = rng.uniform(max(L1, 0.5), 0.99 * math.sqrt(8.0 * SQRT3 * vp / 3.0))
        sides, perim = outer_notched(L1, L2, V)
        assert abs(sides[0] - (8.0 * SQRT3 * vp - 3.0 * L2 * L2) / (12.0 * L2)) <= 1e-12
        assert abs(sides[1] - (L2 - L1) / 2.0) <= 1e-12
        assert abs(perim - (2.0 * sides[0] + 2.0 * L2)) <= 1e-12


def test_outer_degenerates_to_inner_as_the_notch_closes():
    got = outer_notched(1e-8, 1.3, 1.0)[1]
    want = inner_hexagon(1.3, 1.0)[1]
    assert abs(got - want) <= 1e-10
    with pytest.raises(ValueError, match="sides must be"):
        outer_notched(0.0, 1.3, 1.0)


def test_outer_equal_sides_has_no_shoulder():
    sides, _ = outer_notched(0.9, 0.9, 1.0)
    assert sides[1] == 0.0 and sides[2] == 0.0


def test_outer_validation():
    with pytest.raises(ValueError, match="notch wider"):
        outer_notched(1.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="span too large"):
        outer_notched(0.5, 3.0, 0.2)


def test_outer_geometry_round_trip():
    outer, _ = embedded_geometry(0.8, 1.4, 1.0, 0.3)
    _, perim = outer_notched(0.8, 1.4, 1.0)
    assert abs(polygon_area(outer) - 1.0) <= 1e-9
    assert abs(polyline_length(outer) - perim) <= 1e-9


# ---------------------------------------------------------------- pair objectives


def test_pair_objective_composition():
    rng = Lcg(107)
    for _ in range(50):
        alpha = rng.uniform(0.5, 1.0)
        L1 = rng.uniform(0.2, 0.5)
        L2 = rng.uniform(1.0, 1.4)
        want1 = outer_notched(L1, L2, 1.0)[1] + inner_hexagon(L1, alpha)[1] - L1
        assert abs(rho1(L1, L2, alpha) - want1) <= 1e-12
        want2 = outer_notched(L1, L2, alpha)[1] + inner_hexagon(L1, 1.0)[1] - L1
        assert abs(rho2(L1, L2, alpha) - want2) <= 1e-12


def test_optimal_outer_width():
    for L1 in (0.3, 0.7, 1.1):
        L2s = rho1_optimal_L2(L1)
        assert abs(L2s - math.sqrt(8.0 * SQRT3 + 3.0 * L1 * L1) / 3.0) <= 1e-15
        h = 1e-6
        slope = (rho1(L1, L2s + h, 0.5) - rho1(L1, L2s - h, 0.5)) / (2.0 * h)
        assert abs(slope) <= 1e-6
        x, _ = golden_min_1d(lambda t: rho1(L1, t, 0.5), L1, 3.0)
        assert abs(x - L2s) <= 1e-6  # golden stalls near sqrt(eps) of the scale
        # the optimal width makes the horizontal side half the slant
        sides, _ = outer_notched(L1, L2s, 1.0)
        assert abs(sides[0] - L2s / 2.0) <= 1e-12


def test_minimize_rho1_frozen():
    L1, L2, v = minimize_rho1(0.05)
    assert abs(L1 - 0.37961473025679093) <= 1e-9
    assert abs(L2 - 1.2600144836396316) <= 1e-9
    assert abs(v - 4.274027773985185) <= 1e-9
    assert abs(minimize_rho1(0.1)[2] - 4.533601577654296) <= 1e-9
    assert abs(minimize_rho1(0.5)[2] - 5.759384589252168) <= 1e-9
    L1, L2, v = minimize_rho1(1.0)
    assert abs(L1 - 1.2886417926018074) <= 1e-9
    assert abs(L2 - 1.4467664892392513) <= 1e-9
    assert abs(v - 6.776740633605563) <= 1e-9


def test_minimize_rho1_consistency():
    rng = Lcg(109)
    for _ in range(20):
        alpha = rng.uniform(0.02, 1.0)
        L1, L2, v = minimize_rho1(alpha)
        assert abs(L2 - rho1_optimal_L2(L1)) <= 1e-12
        assert abs(v - rho1(L1, L2, alpha)) <= 1e-10


def test_minimize_rho1_against_grid_oracle():
    alpha = 0.1

    def feasible(p):
        L1, L2 = p
        if L1 < 1e-6 or L2 < L1:
            return False
        if 8.0 * SQRT3 * alpha < 3.0 * L1 * L1:
            return False
        vp = 1.0 + SQRT3 * L1 * L1 / 8.0
        return 8.0 * SQRT3 * vp >= 3.0 * L2 * L2

    box = BoxSpec(
        lower=(0.01, 0.8),
        upper=(math.sqrt(8.0 * SQRT3 * alpha / 3.0), 2.0),
        feasible=feasible,
        witness=(0.3, 1.3),
    )
    _, got = grid_refine_min(
        lambda p: rho1(p[0], p[1], alpha), box, grid=64, refine_iters=60
    )
    assert abs(got - minimize_rho1(alpha)[2]) <= 1e-5


def test_rho2_closed_form_below_two_thirds():
    rng = Lcg(113)
    for _ in range(20):
        alpha = rng.uniform(0.05, 2.0 / 3.0)
        L1, L2, v = rho2_minimum(alpha)
        want_L = math.sqrt(8.0 * SQRT3 * (1.0 + alpha) / 15.0)
        assert abs(L1 - want_L) <= 1e-12
        assert L1 == L2
        assert abs(v - 2.0 * math.sqrt(10.0 * (1.0 + alpha)) / 3.0 ** 0.25) <= 1e-12
        # same constant, alternative reduction
        assert abs(want_L - 2.0 * math.sqrt(0.4 * (1.0 + alpha)) / 3.0 ** 0.25) <= 1e-12


def test_rho2_frozen_above_two_thirds():
    L1, L2, v = rho2_minimum(0.8)
    assert abs(L1 - 1.2618108058491007) <= 1e-9
    assert abs(L2 - 1.3275551755728978) <= 1e-9
    assert abs(v - 6.443798619922418) <= 1e-9
    assert L2 > L1


def test_rho2_oracle_above_two_thirds():
    alpha = 0.8

    def safe(p):
        try:
            return rho2(p[0], p[1], alpha)
        except ValueError:
            return math.inf

    box = BoxSpec(
        lower=(0.5, 0.5),
        upper=(2.2, 2.2),
        feasible=lambda p: p[1] >= p[0] and math.isfinite(safe(p)),
        witness=(1.2, 1.4),
    )
    _, got = grid_refine_min(safe, box, grid=64, refine_iters=60, directions=[(1.0, 1.0)])
    assert abs(got - rho2_minimum(alpha)[2]) <= 1e-5


def test_volume_routes_coincide_at_equal_volumes():
    a = minimize_rho1(1.0)
    b = rho2_minimum(1.0)
    assert a[0] == b[0]  # identical a, c and hi, so identical Newton iterates
    assert a[2] == b[2]
    assert abs(a[1] - b[1]) <= 1e-15  # sqrt(x)/3 vs sqrt(x/9), one ulp


def test_convex_minimizers_are_stationary():
    # both 1-D objectives are sqrt(a + 3 L^2) + L/2 + c/L; their derivative
    # vanishes at the reported L1 up to rounding
    def slope(L, a, c):
        return 3.0 * L / math.sqrt(a + 3.0 * L * L) + 0.5 - c / (L * L)

    rng = Lcg(263)
    for _ in range(50):
        alpha = 10.0 ** (-12.0 * rng.uniform())  # log-uniform in (1e-12, 1]
        L1 = minimize_rho1(alpha)[0]
        assert abs(slope(L1, 8.0 * SQRT3, 4.0 * SQRT3 * alpha / 3.0)) <= 1e-12
        beta = 1.0 - rng.uniform() / 3.0  # in (2/3, 1], the interior rho2 branch
        L1 = rho2_minimum(beta)[0]
        assert abs(slope(L1, 8.0 * SQRT3 * beta, 4.0 * SQRT3 / 3.0)) <= 1e-12


def test_rho1_route_never_loses():
    rng = Lcg(127)
    for _ in range(100):
        alpha = rng.uniform(0.01, 1.0)
        assert minimize_rho1(alpha)[2] <= rho2_minimum(alpha)[2] + 1e-12


def test_near_transition_values_are_close():
    emb = minimize_rho1(0.152)[2]
    kis = kissing_minimum(0.152).perimeter
    assert abs(emb - kis) <= 1e-3


def test_small_alpha_limit_rate():
    iso = isoperimetric_optimum(1.0)[1]
    gaps = [minimize_rho1(a)[2] - iso for a in (1e-4, 1e-5, 1e-6)]
    assert gaps[0] < 3e-2
    assert gaps[1] < 1e-2
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    for gap, a in zip(gaps, (1e-4, 1e-5, 1e-6)):
        assert 2.1 <= gap / math.sqrt(a) <= 2.2


# ---------------------------------------------------------------- degenerate variant


def test_case2_check_holds():
    for alpha in (0.1, 0.5, 1.0):
        assert case2_check(alpha) is True


def test_case2_report_structure_and_values():
    report = case2_report(0.3)
    assert set(report) == {"printed", "notch-from-L1", "swapped-volumes"}
    for entry in report.values():
        assert set(entry) == {"L1", "L2", "value", "diagonal"}
    printed = report["printed"]
    assert printed["diagonal"] is True
    assert abs(printed["L1"] - 1.095851) <= 1e-5
    assert abs(printed["value"] - 5.479253) <= 1e-5
    swapped = report["swapped-volumes"]
    assert swapped["diagonal"] is False
    assert abs(swapped["L1"] - 1.240806) <= 1e-5
    assert abs(swapped["L2"] - 0.832358) <= 1e-5
    assert abs(swapped["value"] - 5.387136) <= 1e-5
    assert report["notch-from-L1"]["diagonal"] is True


# ---------------------------------------------------------------- skew notch


def test_skew_zero_matches_rho1():
    rng = Lcg(131)
    for _ in range(50):
        L1 = rng.uniform(0.3, 0.8)
        L2 = rng.uniform(1.2, 1.6)
        alpha = rng.uniform(0.3, 1.0)
        assert abs(notch_skew_perimeter(L1, L2, alpha, 0.0) - rho1(L1, L2, alpha)) <= 1e-12


def test_skew_quadratic_law():
    rng = Lcg(137)
    for _ in range(200):
        L1 = rng.uniform(0.3, 0.8)
        L2 = rng.uniform(1.2, 1.6)
        alpha = rng.uniform(0.3, 1.0)
        d = rng.uniform(-0.1, 0.1)
        got = notch_skew_perimeter(L1, L2, alpha, d)
        base = notch_skew_perimeter(L1, L2, alpha, 0.0)
        want = base + d * d * (L2 - 2.0 * L1) / (4.0 * L1 * L2)
        assert abs(got - want) <= 1e-12
        assert got == notch_skew_perimeter(L1, L2, alpha, -d)


def test_symmetric_notch_is_a_local_minimum_at_small_alpha():
    for alpha in (0.05, 0.1, 0.15):
        L1, L2, v = minimize_rho1(alpha)
        assert L2 >= 2.0 * L1  # the coefficient of delta^2 is nonnegative
        for eps in (1e-3, 1e-2):
            assert notch_skew_perimeter(L1, L2, alpha, eps) > v
            assert notch_skew_perimeter(L1, L2, alpha, -eps) > v


def test_skew_negative_control_at_equal_volumes():
    # at alpha = 1 the minimizer has L2 < 2 L1 and skewing helps
    L1, L2, v = minimize_rho1(1.0)
    assert L2 < 2.0 * L1
    assert notch_skew_perimeter(L1, L2, 1.0, 0.02) < v


def test_skew_out_of_range():
    with pytest.raises(ValueError, match="skew out of range"):
        notch_skew_perimeter(0.5, 1.4, 0.5, 0.5)
    with pytest.raises(ValueError, match="skew out of range"):
        notch_skew_perimeter(0.5, 1.4, 0.5, -0.9)


# ---------------------------------------------------------------- full solution


def test_embedded_minimum_geometry():
    sol = embedded_minimum(0.1)
    assert sol.route == ROUTE_RHO1
    geometry_a, geometry_b = embedded_geometry(sol.L1, sol.L2, 1.0, 0.1)
    assert len(geometry_a.vertices) == 8
    assert len(geometry_b.vertices) == 6
    shared = sum(
        1
        for va in geometry_a.vertices
        for vb in geometry_b.vertices
        if abs(va.x - vb.x) <= 1e-9 and abs(va.y - vb.y) <= 1e-9
    )
    assert shared == 3
    total, joint = double_bubble_perimeter(geometry_a, geometry_b)
    assert abs(total - sol.perimeter) <= 1e-9
    assert abs(joint - sol.L1) <= 1e-9


def test_embedded_round_trip():
    rng = Lcg(139)
    for _ in range(10):
        alpha = rng.uniform(0.02, 1.0)
        sol = embedded_minimum(alpha)
        geometry_a, geometry_b = embedded_geometry(sol.L1, sol.L2, 1.0, alpha)
        assert abs(polygon_area(geometry_a) - 1.0) <= 1e-9
        assert abs(polygon_area(geometry_b) - alpha) <= 1e-9
        total, joint = double_bubble_perimeter(geometry_a, geometry_b)
        assert abs(total - sol.perimeter) <= 1e-9
        assert abs(joint - sol.L1) <= 1e-9


def test_tiny_ratio_geometry_measures_its_perimeter():
    # below ~5e-13 the inner cell's horizontal sides are shorter than the
    # chain's vertex-merge tolerance; the glued sides must stay on the lattice
    for alpha in (1.2528889e-13, 3.8872128e-13, 4.4017538e-13, 1e-12):
        sol = embedded_minimum(alpha)
        geometry_a, geometry_b = embedded_geometry(sol.L1, sol.L2, 1.0, alpha)
        total, joint = double_bubble_perimeter(geometry_a, geometry_b)
        assert abs(total - sol.perimeter) <= 1e-9
        assert abs(joint - sol.L1) <= 1e-9


def test_widest_feasible_notch_still_builds():
    alpha = 0.3
    L1 = math.sqrt(8.0 * SQRT3 * alpha / 3.0)  # inner x1 collapses to zero
    L2 = rho1_optimal_L2(L1)
    outer, inner = embedded_geometry(L1, L2, 1.0, alpha)
    assert abs(polygon_area(inner) - alpha) <= 1e-9
    assert rho1(L1, L2, alpha) > 0.0


def test_alpha_validation():
    for bad in (0.0, -0.5, 1.0001, math.nan):
        with pytest.raises(ValueError, match="ratio"):
            rho1(0.5, 1.3, bad)
        with pytest.raises(ValueError, match="ratio"):
            embedded_minimum(bad)
