"""Acceptance suite: one test per shipped guarantee.

Each test pins the tolerance it promises.  Run with -v to get one
pass/fail line per guarantee.
"""

import io
import math
import time

from conftest import random_convex_polygon

from hexbubble import cli
from hexbubble.checks import (
    build_degree8,
    equal_perimeters,
    horner,
    kissing_perimeter,
    unequal_candidates,
    x4_from_volume,
)
from hexbubble.embedded import embedded_geometry, minimize_rho1, rho1, rho2_minimum
from hexbubble.hexnorm import (
    circumscribing_hexagon,
    geodesic_path,
    hex_norm,
    double_bubble_perimeter,
    polygon_area,
    polyline_length,
)
from hexbubble.kissing import (
    kissing_geometry,
    kissing_minimum,
    p3_minimizer,
    small_alpha_closed_form,
)
from hexbubble.oracle import Lcg, grid_refine_min, perturb_local_min
from hexbubble.singlebubble import (
    isoperimetric_optimum,
    perimeter_P1,
    perimeter_P2,
    solve_fixed_side,
)
from hexbubble.solver import embedded_value, find_alpha0, kissing_value, solve

SQRT3 = math.sqrt(3.0)


def test_1_phase_transition_location_and_tie():
    start = time.perf_counter()
    a0 = find_alpha0()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert 0.147 <= a0 <= 0.157
    assert abs(embedded_value(a0) - kissing_value(a0)) <= 1e-8


def test_2_isoperimetric_constant_and_regular_hexagon():
    L0, P = isoperimetric_optimum(1.0)
    assert abs(P - 2.0 * math.sqrt(2.0) * 3.0 ** 0.25) <= 1e-12
    poly = solve_fixed_side(L0, 1.0).polygon()
    lens = [hex_norm((b.x - a.x, b.y - a.y)) for a, b in poly.edges()]
    assert len(lens) == 6
    assert max(lens) - min(lens) <= 1e-12


def test_3_small_alpha_closed_form_and_branch_collapse():
    rng = Lcg(199)
    for _ in range(20):
        alpha = rng.uniform(1e-6, 0.125 - 1e-12)
        got = kissing_minimum(alpha).perimeter
        want = 2.0 * 3.0 ** 0.25 * (math.sqrt(2.0) + math.sqrt(alpha))
        assert abs(got - want) <= 1e-12
    # at the handoff ratio the two branches give the same perimeter ...
    assert abs(small_alpha_closed_form(0.125) - p3_minimizer(0.125)[1]) <= 1e-10
    # ... because the unequal candidate collapses onto the diagonal
    row = unequal_candidates(0.125)[1]
    want_L = math.sqrt(2.0 * SQRT3) / 3.0
    assert abs(row.L1 - want_L) <= 1e-10
    assert abs(row.L2 - want_L) <= 1e-10


def test_4_oracle_equivalence():
    start = time.perf_counter()

    # fixed-side cell: minimize boundary length over the two free cross
    # sides, the far side resolved from the volume constraint
    rng = Lcg(211)
    for _ in range(20):
        V = rng.uniform(0.3, 1.8)
        boundary_L = math.sqrt(16.0 * V / (3.0 * SQRT3))
        L = boundary_L * rng.uniform(0.3, 1.2)

        def sides(p, L=L, V=V):
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

        def perimeter(p, L=L, sides=sides):
            s = sides(p)
            if s is None:
                raise ValueError("a side goes negative")
            return L + sum(s)

        hi = L + 3.0 * math.sqrt(V) + 1.0
        # grid 96: past the regime boundary the feasible set is a thin
        # band; diagonal moves ride the active volume constraint
        _, got = grid_refine_min(
            perimeter,
            (0.0, 0.0),
            (hi, hi),
            grid=96,
            refine_iters=60,
            directions=[(1.0, -1.0), (1.0, 1.0)],
        )
        assert abs(got - solve_fixed_side(L, V).perimeter) <= 1e-5

    # glued pair over (L1, L2); the diagonal direction crosses the
    # min(L1, L2) kink that traps plain axis descent
    rng = Lcg(223)
    for _ in range(20):
        alpha = rng.uniform(0.05, 1.0)
        _, got = grid_refine_min(
            lambda p: kissing_perimeter(p[0], p[1], alpha),
            (0.05, 0.05),
            (2.4, 2.4),
            grid=64,
            refine_iters=60,
            directions=[(1.0, 1.0)],
        )
        assert abs(got - kissing_minimum(alpha).perimeter) <= 1e-5

    # nested pair over (L1, L2)
    rng = Lcg(227)
    for _ in range(20):
        alpha = rng.uniform(0.05, 1.0)
        l1_hi = math.sqrt(8.0 * SQRT3 * alpha / 3.0)

        def feasible(p, alpha=alpha):
            L1, L2 = p
            if L1 < 1e-6 or L2 < L1:
                return False
            if 8.0 * SQRT3 * alpha < 3.0 * L1 * L1:
                return False
            vp = 1.0 + SQRT3 * L1 * L1 / 8.0
            return 8.0 * SQRT3 * vp >= 3.0 * L2 * L2

        def objective(p, alpha=alpha, feasible=feasible):
            if not feasible(p):
                raise ValueError("outside the nested family")
            return rho1(p[0], p[1], alpha)

        _, got = grid_refine_min(
            objective,
            (0.01, 0.8),
            (l1_hi, 2.0),
            grid=64,
            refine_iters=60,
        )
        assert abs(got - minimize_rho1(alpha)[2]) <= 1e-5

    assert time.perf_counter() - start < 300.0


def test_5_degree8_polynomial_consistency():
    rng = Lcg(239)
    for _ in range(20):
        alpha = rng.uniform(0.01, 1.0)
        cs = build_degree8(alpha)
        L_star, _ = p3_minimizer(alpha)
        assert abs(horner(cs, L_star)) <= 1e-6 * max(abs(c) for c in cs)
        # even polynomial whose coefficients change sign once: exactly one
        # positive root (Descartes), and p rises through 0 within 1e-8 of L*
        assert cs[1] == cs[3] == cs[5] == cs[7] == 0.0
        signs = [c > 0.0 for c in cs if c != 0.0]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1
        assert horner(cs, L_star - 1e-8) < 0.0 < horner(cs, L_star + 1e-8)


def test_6_dominance_inequalities():
    rng = Lcg(241)
    # double-six never loses to the mixed or double-trapezoid forms
    for _ in range(1000):
        alpha = rng.uniform(0.01, 1.0)
        L = rng.uniform(2.0 / 3.0 ** 0.25 + 1e-6, 3.0)
        p3, _, p5, p6 = equal_perimeters(L, alpha)
        assert p5 is not None and p6 is not None
        assert p3 <= p5 + 1e-12
        assert p3 <= p6 + 1e-12
    # on the four-sided domain the trapezoid form costs more
    for _ in range(1000):
        V = rng.uniform(0.3, 2.0)
        edge = 2.0 * math.sqrt(V) / 3.0 ** 0.25
        L = edge * (1.0 + rng.uniform(0.0, 0.8))
        assert perimeter_P2(L, V) > perimeter_P1(L, V) - 1e-12
    # the outer cell prefers holding the larger volume
    for _ in range(1000):
        alpha = rng.uniform(0.001, 1.0)
        assert minimize_rho1(alpha)[2] <= rho2_minimum(alpha)[2] + 1e-12


def test_7_geometry_round_trip_and_local_minimality():
    rng = Lcg(233)
    for k in range(50):
        alpha = rng.uniform(0.02, 1.0)
        r = solve(alpha)
        for entry in r.solutions:
            assert abs(polygon_area(entry.geometry_a) - 1.0) <= 1e-9
            assert abs(polygon_area(entry.geometry_b) - alpha) <= 1e-9
            total, _ = double_bubble_perimeter(entry.geometry_a, entry.geometry_b)
            assert abs(total - r.candidates[entry.case]) <= 1e-9
            if entry.case == "embedded":
                rebuild = lambda p, a=alpha: embedded_geometry(p[0], p[1], 1.0, a)[:2]
            else:
                rebuild = lambda p, a=alpha: kissing_geometry(p[0], p[1], a)[:2]
            assert perturb_local_min(
                entry.geometry_a,
                entry.geometry_b,
                rebuild,
                (entry.L1, entry.L2),
                trials=500,
                eps=1e-3,
                seed=1000 + k,
            )


def test_8_metric_core():
    rng = Lcg(251)
    for _ in range(10_000):
        p = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        q = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        path = geodesic_path(p, q)
        d = hex_norm((q[0] - p[0], q[1] - p[1]))
        assert abs(polyline_length(path) - d) <= 1e-12
    rng = Lcg(257)
    for _ in range(1000):
        poly = random_convex_polygon(rng)
        region = circumscribing_hexagon(poly)
        assert polyline_length(region.boundary()) <= polyline_length(poly) + 1e-12


def test_9_determinism(tmp_path):
    argv = ["sweep", "--from", "0.12", "--to", "0.19", "--steps", "24"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    buf1, buf2 = io.StringIO(), io.StringIO()
    assert cli.run_verify("quick", 7, buf1) == 0
    assert cli.run_verify("quick", 7, buf2) == 0
    assert buf1.getvalue() == buf2.getvalue()
