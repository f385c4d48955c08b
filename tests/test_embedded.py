"""Nested configuration: inner cell, notched outer cell, the two volume
assignments, the degenerate-variant check, and the skew-notch invariant."""

import math
import sys

import pytest

from conftest import SQRT3, answer, finite_floats, golden_min_1d
from hexbubble.checks import case2_report, notch_skew_perimeter
from hexbubble import embedded
from hexbubble.embedded import (
    embedded_geometry,
    inner_hexagon,
    minimize_rho1,
    outer_notched,
    rho1,
    rho1_optimal_L2,
    rho2,
    rho2_minimum,
)
from hexbubble.hexnorm import double_bubble_perimeter, polygon_area, polyline_length
from hexbubble.kissing import kissing_minimum
from hexbubble.oracle import Lcg, grid_refine_min
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


def _inner_written(L, V):
    # inner_hexagon's x1 and boundary length, as written
    return (8.0 * SQRT3 * V - 3.0 * L * L) / (12.0 * L), (9.0 * L * L + 8.0 * SQRT3 * V) / (6.0 * L)


def _outer_written(L1, L2, V):
    # outer_notched's y1 and boundary length, as written
    vp = V + SQRT3 * L1 * L1 / 8.0
    y1 = (8.0 * SQRT3 * vp - 3.0 * L2 * L2) / (12.0 * L2)
    return y1, 2.0 * max(y1, 0.0) + 2.0 * L2


def test_nested_closed_forms_at_huge_inputs():
    # were nan sides with an infinite or nan length, and a nan rho1
    for call in (
        lambda: inner_hexagon(6.25e287, 1.7e308),
        lambda: inner_hexagon(1.0, 1.7e308),
        lambda: outer_notched(4.68e208, 2.88e273, 1.0),
        lambda: outer_notched(1e-8, 1e-8, 1e300),
        lambda: rho1(1.0, 1.7e308, 1.0),
    ):
        with pytest.raises(ValueError, match="^cell too large: its boundary length overflows$"):
            call()


def test_nested_closed_forms_finite_or_raise_property():
    # every finite input gives finite non-negative sides and length, or a
    # ValueError; wherever the written form is finite and feasible, its bits
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = finite_floats(st)
    ratios = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), finite)

    def finite_cell(got):
        sides, length = got
        assert all(math.isfinite(x) and x >= 0.0 for x in (*sides, length)), got

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(finite, finite, finite, ratios)
    def finite_or_raise(L1, L2, V, alpha):
        got = answer(lambda: inner_hexagon(L1, V))
        x1, length = _inner_written(L1, V) if L1 > 0.0 else (math.nan, math.nan)
        if got is not None:
            finite_cell(got)
        if V > 0.0 and L1 >= embedded.MIN_SIDE and math.isfinite(length) and x1 >= -1e-12 * max(1.0, L1):
            assert got is not None and got[1].hex() == length.hex(), (L1, V)
            assert got[0][0].hex() == max(x1, 0.0).hex(), (L1, V)
        got = answer(lambda: outer_notched(L1, L2, V))
        y1, length = _outer_written(L1, L2, V) if L2 > 0.0 else (math.nan, math.nan)
        if got is not None:
            finite_cell(got)
        if (V > 0.0 and L1 >= embedded.MIN_SIDE and L2 >= L1 * (1.0 - 1e-12)
                and math.isfinite(length) and y1 >= -1e-12 * max(1.0, L2)):
            assert got is not None and got[1].hex() == length.hex(), (L1, L2, V)
            assert got[0][0].hex() == max(y1, 0.0).hex(), (L1, L2, V)
        got = answer(lambda: rho1(L1, L2, alpha))
        if got is not None:
            assert math.isfinite(got) and got >= 0.0, (L1, L2, alpha)
        parts = answer(lambda: outer_notched(L1, L2, 1.0)), answer(lambda: inner_hexagon(L1, alpha))
        if 0.0 < alpha <= 1.0 and None not in parts:
            assert got is not None and got.hex() == (parts[0][1] + parts[1][1] - L1).hex()

    finite_or_raise()


def test_outer_geometry_round_trip():
    outer, _ = embedded_geometry(0.8, 1.4, 1.0, 0.3)[:2]
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
    # the widest notch it takes still fits its host
    assert rho1_optimal_L2(embedded._L1_CAP) >= embedded._L1_CAP


@pytest.mark.parametrize("L1", [1e308, math.nan, -1.0, 0.0, math.nextafter(embedded._L1_CAP, 2.0)])
def test_optimal_outer_width_needs_a_notch_that_fits(L1):
    # returned inf, nan, or a width for a negative, zero or too wide notch;
    # past _L1_CAP the width falls below L1, which no host fits
    with pytest.raises(ValueError, match=r"^notch width must lie in \(0, "):
        rho1_optimal_L2(L1)


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

    def objective(p):
        if not feasible(p):
            raise ValueError("outside the nested family")
        return rho1(p[0], p[1], alpha)

    _, got = grid_refine_min(
        objective,
        (0.01, 0.8),
        (math.sqrt(8.0 * SQRT3 * alpha / 3.0), 2.0),
        grid=64,
        refine_iters=60,
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


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="known defect: the rho2 optimum's outer cell is not simple here",
)
@pytest.mark.parametrize("alpha", [1e-12, 1e-11, 1e-10])
def test_rho2_optimum_geometry_builds(alpha):
    # a fix turns these red; it should then drop the xfail and the
    # "Known defect" notes in rho2_minimum and embedded_geometry
    L1, L2, _ = rho2_minimum(alpha)
    outer, inner, _, _ = embedded_geometry(L1, L2, alpha, 1.0)
    assert abs(polygon_area(outer) - alpha) <= 1e-9
    assert abs(polygon_area(inner) - 1.0) <= 1e-9


def test_rho2_oracle_above_two_thirds():
    alpha = 0.8

    def objective(p):
        if p[1] < p[0]:
            raise ValueError("notch wider than the hosting cell")
        return rho2(p[0], p[1], alpha)  # raises ValueError where infeasible

    _, got = grid_refine_min(
        objective, (0.5, 0.5), (2.2, 2.2), grid=64, refine_iters=60, directions=[(1.0, 1.0)]
    )
    assert abs(got - rho2_minimum(alpha)[2]) <= 1e-5


def test_volume_routes_coincide_at_equal_volumes():
    a = minimize_rho1(1.0)
    b = rho2_minimum(1.0)
    assert a[0] == b[0]  # identical a, c and hi, so identical closed-form arithmetic
    assert a[2] == b[2]
    assert abs(a[1] - b[1]) <= 1e-15  # sqrt(x)/3 vs sqrt(x/9), one ulp


def test_convex_minimizers_are_stationary():
    # both 1-D objectives are f(L) = sqrt(a + 3 L^2) + L/2 + c/L.  In
    # z = L/sqrt(c), f' = 3 sqrt(c) z/sqrt(a + 3 c z^2) + 1/2 - 1/z^2 stays
    # O(1) for every double, where f' in L loses meaning below alpha ~ 1e-30.
    # rho1's minimum is stationary down to the smallest double: its hi comes
    # from the same rounded c, so it never falls below the root
    def slope(L, a, c):
        z = L / math.sqrt(c)
        return 3.0 * math.sqrt(c) * z / math.sqrt(a + 3.0 * c * z * z) + 0.5 - 1.0 / (z * z)

    rng = Lcg(263)
    for _ in range(200):
        # log-uniform in [5e-324, 1]
        alpha = max(5e-324, 10.0 ** (math.log10(5e-324) * rng.uniform()))
        L1 = minimize_rho1(alpha)[0]
        assert abs(slope(L1, 8.0 * SQRT3, 4.0 * SQRT3 * alpha / 3.0)) <= 1e-12, alpha
        beta = 1.0 - rng.uniform() / 3.0  # in (2/3, 1], the interior rho2 branch
        L1 = rho2_minimum(beta)[0]
        assert abs(slope(L1, 8.0 * SQRT3 * beta, 4.0 * SQRT3 / 3.0)) <= 1e-12, beta


def test_nested_minima_do_not_iterate():
    # rho1 and rho2's interior branch are the closed-form root of a cubic
    assert not hasattr(embedded, "newton_root")
    # 0.01282... sits at the switch between the trigonometric and Cardano roots
    ratios = (5e-324, 1e-310, 1e-100, 1e-12, 0.0128268678975132, 0.125,
              0.15245721143347343, 0.5, 2.0 / 3.0, 0.7, 0.9, 1.0)
    for alpha in ratios:
        for L1, L2, value in (minimize_rho1(alpha), rho2_minimum(alpha)):
            assert 0.0 < L1 <= L2 and math.isfinite(value), alpha


def test_rho1_route_never_loses():
    rng = Lcg(127)
    for _ in range(100):
        alpha = rng.uniform(0.01, 1.0)
        assert minimize_rho1(alpha)[2] <= rho2_minimum(alpha)[2] + 1e-12


def test_rho1_route_never_loses_property():
    # the exclusion the solver relies on, down to the smallest double
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    log_uniform = st.floats(min_value=math.log10(5e-324), max_value=0.0).map(
        lambda e: max(5e-324, 10.0 ** e)
    )
    uniform = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)

    @hypothesis.settings(derandomize=True, deadline=None)
    @hypothesis.given(st.one_of(log_uniform, uniform))
    def check(alpha):
        assert minimize_rho1(alpha)[2] <= rho2_minimum(alpha)[2] + 1e-12

    check()


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
        assert case2_report(alpha)["printed"]["diagonal"] is True


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["L1", "L2", "delta"])
def test_skew_needs_finite_inputs(which, bad):
    # a nan passed the range test and came back as a nan perimeter
    args = {"L1": 0.5, "L2": 1.4, "delta": 0.1, which: bad}
    with pytest.raises(ValueError, match="^notch skew needs finite L1, L2 and delta$"):
        notch_skew_perimeter(args["L1"], args["L2"], 0.5, args["delta"])


def test_skew_rejects_a_notch_below_the_side_floor():
    # was 1.15e300, from a notch narrower than inner_hexagon accepts
    with pytest.raises(ValueError, match=r"^sides must be >= 1e-08$"):
        notch_skew_perimeter(1e-300, 1.0, 0.5, 0.0)


def test_skew_span_overflow_is_infeasible():
    # 3 L2^2 and 12 L2 both overflow, and y1 read as inf/inf, a nan, was returned
    with pytest.raises(ValueError, match="^infeasible: span too large for the volume$"):
        notch_skew_perimeter(1.0, 1e308, 1.0, 0.5)


def test_skew_finite_or_raise_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = finite_floats(st)
    # besides all finite doubles: notches down to the subnormals, spans up
    # to the largest double, and small skews, which the range test lets by
    def decades(lo, hi):
        return st.floats(min_value=lo, max_value=hi).map(lambda e: min(sys.float_info.max, 10.0**e))

    notches = st.one_of(finite, decades(-320.0, 1.0))
    spans = st.one_of(finite, decades(-1.0, 308.25))
    skews = st.one_of(finite, st.floats(min_value=-1.0, max_value=1.0))
    ratios = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(notches, spans, skews, ratios)
    def finite_or_raise(L1, L2, delta, alpha):
        got = answer(lambda: notch_skew_perimeter(L1, L2, alpha, delta))
        assert got is None or (math.isfinite(got) and got > 0.0), (L1, L2, delta, alpha)
        assert got is None or L1 >= embedded.MIN_SIDE, (L1, L2, delta, alpha)

    finite_or_raise()


# ---------------------------------------------------------------- full solution


def test_minimize_rho1_geometry():
    sol = minimize_rho1(0.1)
    geometry_a, geometry_b = embedded_geometry(sol.L1, sol.L2, 1.0, 0.1)[:2]
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
        sol = minimize_rho1(alpha)
        geometry_a, geometry_b = embedded_geometry(sol.L1, sol.L2, 1.0, alpha)[:2]
        assert abs(polygon_area(geometry_a) - 1.0) <= 1e-9
        assert abs(polygon_area(geometry_b) - alpha) <= 1e-9
        total, joint = double_bubble_perimeter(geometry_a, geometry_b)
        assert abs(total - sol.perimeter) <= 1e-9
        assert abs(joint - sol.L1) <= 1e-9


def test_tiny_ratio_geometry_measures_its_perimeter():
    # below ~5e-13 the inner cell's horizontal sides are shorter than the
    # chain's vertex-merge tolerance; the glued sides must stay on the lattice
    for alpha in (1.2528889e-13, 3.8872128e-13, 4.4017538e-13, 1e-12):
        sol = minimize_rho1(alpha)
        geometry_a, geometry_b, _, sides = embedded_geometry(sol.L1, sol.L2, 1.0, alpha)
        total, joint = double_bubble_perimeter(geometry_a, geometry_b)
        assert abs(total - sol.perimeter) <= 1e-9
        assert abs(joint - sol.L1) <= 1e-9
        # the reported sides describe the cell that was built
        assert (sides[0] == 0.0) == (len(geometry_b.vertices) == 4)
        assert sides[3] == sides[0]


def test_widest_feasible_notch_still_builds():
    alpha = 0.3
    L1 = math.sqrt(8.0 * SQRT3 * alpha / 3.0)  # inner x1 collapses to zero
    L2 = rho1_optimal_L2(L1)
    outer, inner = embedded_geometry(L1, L2, 1.0, alpha)[:2]
    assert abs(polygon_area(inner) - alpha) <= 1e-9
    assert rho1(L1, L2, alpha) > 0.0


def test_host_is_anchored_at_its_west_corner():
    # y1 is about 1e8 and L2/4 under its ulp, so the west corner's x rounds
    # onto the horizontal sides' far ends; the corner is still the anchor
    # rather than the low far end, which shares its x
    outer, inner = embedded_geometry(1e-8, 1.1e-8, 1.0, 0.5)[:2]
    first, last = outer.vertices[0], outer.vertices[-1]
    assert (last.x, last.y) == (0.0, 0.0)
    assert first.x == 0.0 and first.y < 0.0
    with pytest.raises(ValueError, match="^shared edge is not along a lattice direction$"):
        double_bubble_perimeter(outer, inner)


def test_alpha_validation():
    for bad in (0.0, -0.5, 1.0001, math.nan):
        with pytest.raises(ValueError, match="ratio"):
            rho1(0.5, 1.3, bad)
        with pytest.raises(ValueError, match="ratio"):
            minimize_rho1(bad)
