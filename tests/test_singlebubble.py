"""Fixed-side cell: the two regime closed forms and the free optimum."""

import math
import sys

import pytest

from conftest import SQRT3, golden_min_1d
from hexbubble.checks import x4_from_volume
from hexbubble.hexnorm import DEDUP_TOL, LATTICE_DIRECTIONS, hex_norm, polygon_area, polyline_length
from hexbubble.oracle import Lcg, grid_refine_min
from hexbubble.singlebubble import (
    MIN_SIDE,
    REGIME_FOUR,
    REGIME_SIX,
    fixed_side_polygon,
    fixed_side_vertices,
    is_six_sided,
    isoperimetric_optimum,
    optimal_perimeter,
    perimeter_P1,
    perimeter_P2,
    solve_fixed_side,
)


def regime_boundary_side(V: float) -> float:
    # 3*sqrt(3)*L^2 = 16*V
    return math.sqrt(16.0 * V / (3.0 * SQRT3))


# ---------------------------------------------------------------- free optimum


def test_isoperimetric_optimum_unit_volume():
    L0, P = isoperimetric_optimum(1.0)
    assert abs(L0 - 0.6204032394013999) <= 1e-15
    assert abs(P - 2.0 * math.sqrt(2.0) * 3.0 ** 0.25) <= 1e-12
    assert abs(P - 3.7224194364083982) <= 1e-15


def test_isoperimetric_optimum_scaling():
    for V in (0.25, 2.0, 4.0):
        L0, P = isoperimetric_optimum(V)
        assert abs(L0 - math.sqrt(2.0 * V) / 3.0 ** 0.75) <= 1e-12
        assert abs(P - 2.0 * math.sqrt(2.0 * V) * 3.0 ** 0.25) <= 1e-12
    assert abs(isoperimetric_optimum(4.0)[1] - 2.0 * isoperimetric_optimum(1.0)[1]) <= 1e-12


# the largest V whose 2V is finite, and the next float up
LAST_FINITE_2V = 8.988465674311579e307
FIRST_INFINITE_2V = math.nextafter(LAST_FINITE_2V, math.inf)


@pytest.mark.parametrize(
    "V", [5e-324, 2.2250738585072014e-308, 1e-20, 0.37, 1.0, 3.5e11, 1e300, LAST_FINITE_2V]
)
def test_isoperimetric_optimum_keeps_its_bits_where_2v_is_finite(V):
    root = math.sqrt(2.0 * V)
    L0, P = isoperimetric_optimum(V)
    assert L0.hex() == (root / 3.0 ** 0.75).hex()
    assert P.hex() == (2.0 * root * 3.0 ** 0.25).hex()


@pytest.mark.parametrize("V", [FIRST_INFINITE_2V, 1e308, sys.float_info.max])
def test_isoperimetric_optimum_is_finite_where_2v_overflows(V):
    L0, P = isoperimetric_optimum(V)
    assert math.isfinite(L0) and math.isfinite(P)
    assert math.isclose(L0, math.sqrt(2.0) * math.sqrt(V) / 3.0 ** 0.75, rel_tol=1e-15)
    assert math.isclose(P, 6.0 * L0, rel_tol=1e-15)


def test_optimum_is_regular_hexagon():
    L0, P = isoperimetric_optimum(1.0)
    sol = solve_fixed_side(L0, 1.0)
    assert sol.regime == REGIME_SIX
    for s in sol.sides:
        assert abs(s - L0) <= 1e-12
    assert abs(sol.perimeter - 6.0 * L0) <= 1e-12
    assert abs(sol.perimeter - P) <= 1e-12
    lens = [hex_norm((b.x - a.x, b.y - a.y)) for a, b in sol.polygon().edges()]
    assert len(lens) == 6
    assert max(lens) - min(lens) <= 1e-12


def test_p1_is_stationary_at_the_free_optimum():
    L0, _ = isoperimetric_optimum(1.0)
    h = 1e-6
    slope = (perimeter_P1(L0 + h, 1.0) - perimeter_P1(L0 - h, 1.0)) / (2.0 * h)
    assert abs(slope) <= 1e-6


def test_golden_section_over_L_recovers_the_optimum():
    x, fx = golden_min_1d(lambda L: optimal_perimeter(L, 1.0), 0.2, 2.0)
    L0, P = isoperimetric_optimum(1.0)
    assert abs(x - L0) <= 1e-6
    assert abs(fx - P) <= 1e-10


# ---------------------------------------------------------------- closure helper


def test_x4_closure_at_the_regular_hexagon():
    L0, _ = isoperimetric_optimum(1.0)
    assert abs(x4_from_volume(L0, L0, L0, 1.0) - L0) <= 1e-12


def test_x4_infeasible_volume_raises():
    with pytest.raises(ValueError, match="infeasible"):
        x4_from_volume(0.1, 0.1, 0.1, 5.0)


# ---------------------------------------------------------------- six-sided regime


def test_six_sided_solution_structure():
    sol = solve_fixed_side(0.3, 1.0)
    assert sol.regime == REGIME_SIX
    x1, x2, x3, x4, x5 = sol.sides
    t = math.sqrt((3.0 * 0.09 + 4.0 * SQRT3) / 21.0)
    assert abs(x2 - t) <= 1e-12 and abs(x3 - t) <= 1e-12 and abs(x4 - t) <= 1e-12
    assert abs(x1 - (2.0 * t - 0.3)) <= 1e-12
    assert x1 == x5
    assert abs(sol.perimeter - (7.0 * t - 0.3)) <= 1e-12
    assert abs(sol.perimeter - perimeter_P1(0.3, 1.0)) <= 1e-12


def test_six_sided_oracle_cross_check():
    _assert_oracle_matches(0.3, 1.0)


def test_four_sided_oracle_cross_check():
    _assert_oracle_matches(2.0, 1.0)


def _assert_oracle_matches(L: float, V: float) -> None:
    def sides(p):
        x1, x2 = p
        if x1 < 0.0 or x2 < 0.0:
            return None
        try:
            x4 = x4_from_volume(x1, x2, L, V)
        except ValueError:
            return None
        x3 = L + x1 - x4
        x5 = x1 + x2 - x4
        if x3 < -1e-12 or x5 < -1e-12:
            return None
        return (x1, x2, x3, x4, x5)

    def perimeter(p):
        s = sides(p)
        if s is None:
            raise ValueError("a side goes negative")
        return L + sum(s)

    hi = L + 3.0 * math.sqrt(V) + 1.0
    # the four-sided optimum is a constraint corner; diagonal moves slide
    # along the active volume boundary where axis moves wedge
    _, got = grid_refine_min(
        perimeter,
        (0.0, 0.0),
        (hi, hi),
        grid=48,
        refine_iters=60,
        directions=[(1.0, -1.0), (1.0, 1.0)],
    )
    assert abs(got - solve_fixed_side(L, V).perimeter) <= 1e-6


# ---------------------------------------------------------------- four-sided regime


def test_four_sided_known_solution():
    sol = solve_fixed_side(2.0, 1.0)
    assert sol.regime == REGIME_FOUR
    want = (0.0, 0.6997696653125274, 1.3002303346874726, 0.6997696653125274, 0.0)
    for got, exp in zip(sol.sides, want):
        assert abs(got - exp) <= 1e-12
    assert abs(sol.sides[2] - math.sqrt((12.0 - 4.0 * SQRT3) / 3.0)) <= 1e-12
    assert abs(sol.perimeter - 4.699769665312528) <= 1e-12
    assert abs(polygon_area(sol.polygon()) - 1.0) <= 1e-12
    assert len(sol.polygon().vertices) == 4  # zero sides collapse


def test_p2_domain_edge():
    V = 1.0
    edge = 2.0 * math.sqrt(V) / 3.0 ** 0.25
    assert abs(perimeter_P2(edge, V) - 3.0 * edge) <= 1e-12  # radicand vanishes
    with pytest.raises(ValueError, match="four-sided"):
        perimeter_P2(edge - 1e-6, V)


def test_p2_exceeds_p1_on_the_shared_domain():
    rng = Lcg(61)
    for _ in range(200):
        V = rng.uniform(0.3, 2.0)
        edge = 2.0 * math.sqrt(V) / 3.0 ** 0.25
        L = edge * (1.0 + rng.uniform(0.0, 1.5))
        assert perimeter_P2(L, V) > perimeter_P1(L, V) - 1e-12


# the largest side whose 3 L^2 is finite
_LAST_FINITE_SQUARE = math.sqrt(sys.float_info.max / 3.0)
while 3.0 * _LAST_FINITE_SQUARE * _LAST_FINITE_SQUARE != math.inf:
    _LAST_FINITE_SQUARE = math.nextafter(_LAST_FINITE_SQUARE, math.inf)
while 3.0 * _LAST_FINITE_SQUARE * _LAST_FINITE_SQUARE == math.inf:
    _LAST_FINITE_SQUARE = math.nextafter(_LAST_FINITE_SQUARE, 0.0)


def test_p2_keeps_its_bits_where_3l2_is_finite():
    rng = Lcg(67)
    sides = [10.0 ** rng.uniform(-8.0, 154.0) for _ in range(300)] + [_LAST_FINITE_SQUARE]
    for L in sides:
        for V in (5e-324, 1e-300, L * L * rng.uniform(1e-6, 0.4)):
            rad = (3.0 * L * L - 4.0 * SQRT3 * V) / 3.0
            assert perimeter_P2(L, V).hex() == (3.0 * L - math.sqrt(rad)).hex(), (L, V)


def test_p2_is_finite_or_raises_where_3l2_overflows():
    # optimal_perimeter took the four-sided form there and returned -inf or nan
    nxt = math.nextafter(_LAST_FINITE_SQUARE, math.inf)
    for L, want in ((nxt, 2.0 * nxt), (1e154, 2e154), (1e200, 2e200), (8e307, 1.6e308)):
        assert perimeter_P2(L, 1.0) == optimal_perimeter(L, 1.0) == want, L
    # a volume the side can hold, and one it cannot
    assert 2e154 < perimeter_P2(1e154, 1e307) < 3e154
    with pytest.raises(ValueError, match="four-sided"):
        perimeter_P2(1e154, 1e308)
    for L in (1.7e308, sys.float_info.max):
        for f in (perimeter_P2, optimal_perimeter):
            with pytest.raises(ValueError, match="^fixed side too large: the perimeter overflows$"):
                f(L, 1.0)


def test_six_sided_cells_at_overflowing_squares():
    # 3 sqrt(3) L^2 (5.2e308) and 16 V (1.6e309) both overflow, and
    # is_six_sided read inf < inf as four-sided, so optimal_perimeter took P2
    # and raised "volume too large for a four-sided cell on this side"
    assert is_six_sided(1e154, 1e308)
    want = 1e154 * optimal_perimeter(1.0, 1.0)
    for got in (optimal_perimeter(1e154, 1e308), perimeter_P1(1e154, 1e308)):
        assert abs(got - want) <= 1e-15 * want
    # the scaled comparison keeps the regime boundary 3 sqrt(3) L^2 = 16 V
    assert not is_six_sided(1e154, 0.99 * 3.0 * SQRT3 / 16.0 * 1e308)
    assert is_six_sided(1e154, 1.01 * 3.0 * SQRT3 / 16.0 * 1e308)
    # P1's radicand overflows with either term; the perimeter overflows only
    # for L above about 1.09e308, where (sqrt(7) - 1) L does
    assert perimeter_P1(1.0, 1.7e308) == perimeter_P1(1e-8, 1.7e308) > 5e154
    assert abs(perimeter_P1(1e300, 1.0) - (math.sqrt(7.0) - 1.0) * 1e300) <= 1e-15 * 1.7e300
    with pytest.raises(ValueError, match="^fixed side too large: the perimeter overflows$"):
        perimeter_P1(1.7e308, 1.0)


def test_six_sided_test_and_p1_keep_their_bits_where_finite():
    # the rescaled forms are taken only where the direct ones overflow
    rng = Lcg(73)
    for _ in range(300):
        L = 10.0 ** rng.uniform(-8.0, 154.0)
        for V in (5e-324, L * L * rng.uniform(0.01, 100.0), 10.0 ** rng.uniform(-300.0, 307.0)):
            direct = 3.0 * SQRT3 * L * L < 16.0 * V
            assert is_six_sided(L, V) == direct, (L, V)
            rad = (3.0 * L * L + 4.0 * SQRT3 * V) / 21.0
            if rad != math.inf:
                assert perimeter_P1(L, V).hex() == (7.0 * math.sqrt(rad) - L).hex(), (L, V)


def _fixed_side_written(L, V):
    # solve_fixed_side's direct forms, for inputs where they are finite
    if 3.0 * SQRT3 * L * L < 16.0 * V:
        t = math.sqrt((3.0 * L * L + 4.0 * SQRT3 * V) / 21.0)
        x1 = max(0.0, 2.0 * t - L)
        return (x1, t, t, t, x1), 7.0 * t - L
    s = math.sqrt((3.0 * L * L - 4.0 * SQRT3 * V) / 3.0)
    return (0.0, L - s, s, L - s, 0.0), 3.0 * L - s


def _assert_fixed_side_agrees(L, V):
    # a cell with finite non-negative sides and optimal_perimeter's bits, or
    # a ValueError from both
    try:
        want = optimal_perimeter(L, V)
    except ValueError:
        with pytest.raises(ValueError):
            solve_fixed_side(L, V)
        return
    sol = solve_fixed_side(L, V)
    assert sol.perimeter.hex() == want.hex(), (L, V)
    assert all(math.isfinite(x) and x >= 0.0 for x in sol.sides), (L, V, sol.sides)


def test_fixed_side_cells_at_huge_inputs():
    # were inf sides and perimeter, nan sides, and "inconsistent four-sided
    # solution"
    for L, V, want in ((1e154, 1e308, 3.813e154), (3.41e292, 1.7e308, 6.82e292), (1e200, 1e300, 2e200)):
        sol = solve_fixed_side(L, V)
        assert abs(sol.perimeter - want) <= 1e-3 * want, (L, V)
        _assert_fixed_side_agrees(L, V)
    # homogeneity: the six-sided cell at (1e154, 1e308) is 1e154 times the
    # one at (1, 1)
    unit = solve_fixed_side(1.0, 1.0)
    for got, x in zip(solve_fixed_side(1e154, 1e308).sides, unit.sides):
        assert abs(got - 1e154 * x) <= 1e-15 * 1e154, (got, x)
    # V negligible beside L^2: the top side rounds to L, not above it
    sol = solve_fixed_side(3.7144023276646766e-07, 5.295329e-317)
    assert sol.sides == (0.0, 0.0, 3.7144023276646766e-07, 0.0, 0.0)
    for L in (1.7e308, sys.float_info.max):
        with pytest.raises(ValueError, match="^fixed side too large: the perimeter overflows$"):
            solve_fixed_side(L, 1.0)


def test_fixed_side_cells_keep_their_bits_where_finite():
    rng = Lcg(79)
    for _ in range(300):
        L = 10.0 ** rng.uniform(-8.0, 150.0)
        near, far = L * L * rng.uniform(0.01, 100.0), 10.0 ** rng.uniform(-300.0, 300.0)
        for V in (near, far):
            sides, perimeter = _fixed_side_written(L, V)
            if not (math.isfinite(perimeter) and 0.0 <= sides[2] <= L):
                continue
            sol = solve_fixed_side(L, V)
            assert [x.hex() for x in sol.sides] == [x.hex() for x in sides], (L, V)
            assert sol.perimeter.hex() == perimeter.hex(), (L, V)


def test_fixed_side_cells_match_optimal_perimeter_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = sys.float_info.max
    # plain bounded floats, and powers of ten so every decade is reached
    sides = st.one_of(
        st.floats(min_value=MIN_SIDE, max_value=big),
        st.floats(min_value=-8.0, max_value=308.25).map(lambda e: min(big, 10.0**e)),
    )
    volumes = st.one_of(
        st.floats(min_value=5e-324, max_value=big),
        st.floats(min_value=-323.0, max_value=308.25).map(lambda e: min(big, max(5e-324, 10.0**e))),
    )

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(sides, volumes)
    def agrees(L, V):
        _assert_fixed_side_agrees(L, V)

    agrees()


def _walk_loop(L, sides):
    # fixed_side_vertices as one loop, before its merge-free path and its
    # closing test at the walk's scale
    x = y = px = py = 0.0
    pts = [(x, y)]
    for s, d in zip((L, *sides), LATTICE_DIRECTIONS):
        x, y = x + s * d.x, y + s * d.y
        if not (abs(px - x) <= DEDUP_TOL and abs(py - y) <= DEDUP_TOL):
            pts.append((x, y))
            px, py = x, y
    if len(pts) > 1 and abs(px) <= DEDUP_TOL and abs(py) <= DEDUP_TOL:
        pts.pop()
    return pts


def test_fixed_side_walk_matches_its_loop():
    # the merge-free path takes L and x1..x5 in [4 DEDUP_TOL, 16]; seeded
    # sides at 0, at DEDUP_TOL (a merge), on both sides of 4 DEDUP_TOL and
    # of 16, and in between, on open walks and on the cells that close
    edge = 4.0 * DEDUP_TOL
    picks = (0.0, DEDUP_TOL, math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0),
             16.0, math.nextafter(16.0, 17.0))
    rng = Lcg(83)

    def side(hi):
        return picks[int(rng.uniform(0.0, len(picks)))] if rng.uniform(0.0, 1.0) < 0.5 else rng.uniform(0.0, hi)

    walks = []
    for _ in range(3000):
        walks.append((side(20.0), tuple(side(20.0) for _ in range(5))))
    for _ in range(1000):
        L = rng.uniform(0.01, 20.0) if rng.uniform(0.0, 1.0) < 0.8 else picks[-2 + (rng.uniform(0.0, 1.0) < 0.5)]
        V = L * L * 10.0 ** rng.uniform(-13.0, 1.0)
        walks.append((L, solve_fixed_side(L, V).sides))
    fast = merged = scaled = 0
    for L, sides in walks:
        got, want = fixed_side_vertices(L, sides), _walk_loop(L, sides)
        assert len(got) == len(want), (L, sides)
        assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in want], (L, sides)
        fast += all(edge <= s <= 16.0 for s in (L, *sides))
        # a walk's first merge is of two consecutive vertices
        raw = [(0.0, 0.0)]
        for s, d in zip((L, *sides), LATTICE_DIRECTIONS):
            raw.append((raw[-1][0] + s * d.x, raw[-1][1] + s * d.y))
        merged += any(abs(px - x) <= DEDUP_TOL and abs(py - y) <= DEDUP_TOL
                      for (px, py), (x, y) in zip(raw, raw[1:]))
        scaled += max(L, *sides) > 16.0  # the closing test runs at the m/16 scale
    assert fast >= 200 and len(walks) - fast >= 200  # both paths are well covered
    assert merged >= 200 and scaled >= 200  # and so are the merge and the scaled closing test


def test_moderate_cells_close_at_the_walks_scale():
    # sides from 16 up: a cell's walk ends a rounding residue of a few
    # DEDUP_TOL from its start, which the closing test at the m/16 scale
    # drops and one at plain DEDUP_TOL would keep as a fifth or seventh vertex
    rng = Lcg(89)
    residues = 0
    for _ in range(4000):
        L = 10.0 ** rng.uniform(math.log10(16.0), 6.0)
        sides = solve_fixed_side(L, L * L * 10.0 ** rng.uniform(-1.5, 0.5)).sides
        assert len(fixed_side_vertices(L, sides)) in (4, 6), (L, sides)
        x = y = 0.0
        for s, d in zip((L, *sides), LATTICE_DIRECTIONS):
            x, y = x + s * d.x, y + s * d.y
        residues += abs(x) > DEDUP_TOL or abs(y) > DEDUP_TOL
    assert residues >= 500


@pytest.mark.parametrize("V", [1e200, 1e308, sys.float_info.max])
def test_huge_cells_close_at_the_walks_scale(V):
    # the walk's rounding residue, 3.7e137 from the first vertex at 1e308,
    # was kept as a seventh vertex; at the largest double it folded back
    L0, _ = isoperimetric_optimum(V)
    sol = solve_fixed_side(L0, V)
    chain = fixed_side_polygon(L0, sol.sides)
    assert len(chain.vertices) == 6
    want = optimal_perimeter(L0, V)
    assert abs(polyline_length(chain) - want) <= math.ulp(want)
    # the longest side sets the scale, also over a short fixed side
    assert len(fixed_side_vertices(1e-8, solve_fixed_side(1e-8, V).sides)) == 6


# ---------------------------------------------------------------- regime boundary


def test_regimes_agree_at_the_boundary():
    for V in (0.5, 1.0, 1.7):
        Lb = regime_boundary_side(V)
        assert abs(perimeter_P1(Lb, V) - perimeter_P2(Lb, V)) <= 1e-12


def test_optimal_perimeter_continuous_across_the_boundary():
    V = 1.0
    Lb = regime_boundary_side(V)
    eps = 1e-7
    below = optimal_perimeter(Lb - eps, V)
    above = optimal_perimeter(Lb + eps, V)
    assert is_six_sided(Lb - eps, V)
    assert not is_six_sided(Lb + eps, V)
    assert abs(above - below) <= 1e-6


def _steps_from(x: float, n: int) -> float:
    toward = math.inf if n > 0 else 0.0
    for _ in range(abs(n)):
        x = math.nextafter(x, toward)
    return x


@pytest.mark.parametrize("V", [1e-12, 1e-6, 0.01, 0.5, 1.0, 1.7, 100.0, 1e6, 1e12])
def test_optimal_perimeter_takes_the_form_is_six_sided_names(V):
    # at the regime switch and a few ulps either side, the active form is
    # the one is_six_sided names, and its bits are solve_fixed_side's
    Lb = regime_boundary_side(V)
    regimes = set()
    for n in range(-4, 5):
        L = _steps_from(Lb, n)
        six = is_six_sided(L, V)
        regimes.add(six)
        sol = solve_fixed_side(L, V)
        assert sol.regime == (REGIME_SIX if six else REGIME_FOUR)
        got = optimal_perimeter(L, V).hex()
        assert got == sol.perimeter.hex()
        assert got == (perimeter_P1 if six else perimeter_P2)(L, V).hex()
    assert regimes == {True, False}


def test_x1_vanishes_approaching_the_boundary():
    V = 1.0
    Lb = regime_boundary_side(V)
    below = solve_fixed_side(Lb - 1e-6, V)
    above = solve_fixed_side(Lb + 1e-6, V)
    assert below.regime == REGIME_SIX and below.sides[0] <= 1e-4
    assert above.regime == REGIME_FOUR and above.sides[0] == 0.0


# ---------------------------------------------------------------- round trips and input checks


def test_solution_polygon_round_trip():
    rng = Lcg(67)
    for _ in range(50):
        L = rng.uniform(0.4, 2.2)
        V = rng.uniform(0.3, 1.5)
        sol = solve_fixed_side(L, V)
        assert all(s >= 0.0 for s in sol.sides)
        assert abs(polygon_area(sol.polygon()) - V) <= 1e-9
        assert abs(polyline_length(sol.polygon()) - sol.perimeter) <= 1e-9


@pytest.mark.parametrize("volume", [math.inf, math.nan, 0.0, -1.0])
def test_isoperimetric_optimum_needs_positive_finite_volume(volume):
    with pytest.raises(ValueError, match="^volume must be positive and finite$"):
        isoperimetric_optimum(volume)


@pytest.mark.parametrize(
    "L, V, message",
    [
        (math.nan, 1.0, "L and V must be finite"),
        (math.inf, 1.0, "L and V must be finite"),
        (1.0, math.nan, "L and V must be finite"),
        (1.0, math.inf, "L and V must be finite"),
        (1.0, -math.inf, "L and V must be finite"),
        (1.0, 0.0, "volume must be positive"),
        (1.0, -1.0, "volume must be positive"),
        (0.0, -1.0, "volume must be positive"),
        (0.0, 1.0, "fixed side must be >= 1e-08"),
        (5e-9, 1.0, "fixed side must be >= 1e-08"),
    ],
)
def test_optimal_perimeter_input_messages(L, V, message):
    with pytest.raises(ValueError) as info:
        optimal_perimeter(L, V)
    assert str(info.value) == message


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        solve_fixed_side(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_fixed_side(1.0, -1.0)
    with pytest.raises(ValueError):
        optimal_perimeter(1.0, 0.0)
    with pytest.raises(ValueError):
        isoperimetric_optimum(0.0)
