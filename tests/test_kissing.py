"""Glued-pair family: regimes, candidate rows, the diagonal branch, and
the radical-free polynomial route."""

import math

import pytest

from conftest import SQRT3, golden_min_1d
from hexbubble import checks, kissing, singlebubble
from hexbubble.hexnorm import double_bubble_perimeter, polygon_area
from hexbubble.kissing import (
    BRANCH_EQUAL,
    BRANCH_UNEQUAL,
    HANDOFF_ALPHA,
    build_degree8,
    equal_perimeters,
    horner,
    kissing_geometry,
    kissing_minimum,
    kissing_perimeter,
    p3_minimizer,
    small_alpha_closed_form,
    unequal_candidates,
)
from hexbubble.oracle import Lcg, grid_refine_min
from hexbubble.singlebubble import is_six_sided, optimal_perimeter

# feasibility edge for the volume-1 trapezoid radicand: 3L^2 = 4 sqrt(3)
L_TRAPEZOID_1 = 2.0 / 3.0 ** 0.25  # ~1.5197


# ---------------------------------------------------------------- composition


def test_regime_flags():
    # cell A holds volume 1, cell B volume alpha = 0.25
    assert is_six_sided(0.5, 1.0) and is_six_sided(0.5, 0.25)
    assert not is_six_sided(2.0, 1.0)


def test_perimeter_composition():
    rng = Lcg(71)
    for _ in range(100):
        L1 = rng.uniform(0.3, 2.2)
        L2 = rng.uniform(0.3, 2.2)
        alpha = rng.uniform(0.02, 1.0)
        want = (
            optimal_perimeter(L1, 1.0)
            + optimal_perimeter(L2, alpha)
            - min(L1, L2)
        )
        assert abs(kissing_perimeter(L1, L2, alpha) - want) <= 1e-12


# ---------------------------------------------------------------- equal-side family


def test_p3_formula_at_alpha_one():
    for L in (0.5, 1.0, 1.7):
        p3 = equal_perimeters(L, 1.0)[0]
        want = 14.0 * math.sqrt((3.0 * L * L + 4.0 * SQRT3) / 21.0) - 3.0 * L
        assert abs(p3 - want) <= 1e-12


def test_presence_thresholds():
    alpha = 0.25
    edge4 = 2.0 * math.sqrt(alpha) / 3.0 ** 0.25  # volume-alpha trapezoid edge
    p3, p4, p5, p6 = equal_perimeters(edge4 - 1e-9, alpha)
    assert p4 is None and p5 is None and p6 is None
    p3, p4, p5, p6 = equal_perimeters(1.4, alpha)  # above edge4, below edge for V=1
    assert p4 is not None and p5 is None and p6 is None
    p3, p4, p5, p6 = equal_perimeters(1.6, alpha)  # above both edges
    assert p4 is not None and p5 is not None and p6 is not None
    assert equal_perimeters(L_TRAPEZOID_1 - 1e-9, 1.0)[2] is None
    assert equal_perimeters(L_TRAPEZOID_1 + 1e-9, 1.0)[2] is not None


def test_p3_dominates_where_rivals_exist():
    rng = Lcg(73)
    for _ in range(200):
        alpha = rng.uniform(0.01, 1.0)
        L = rng.uniform(L_TRAPEZOID_1 + 1e-9, 3.0)
        p3, p4, p5, p6 = equal_perimeters(L, alpha)
        assert p4 is not None and p5 is not None and p6 is not None
        assert p3 <= p5 + 1e-12
        assert p3 <= p6 + 1e-12
    for _ in range(200):
        alpha = rng.uniform(0.01, 1.0)
        # P3 <= P4 holds from sqrt(2) 3^(1/4) sqrt(alpha) on; sample there
        L = rng.uniform(math.sqrt(2.0) * 3.0 ** 0.25 * math.sqrt(alpha), 3.0)
        p3, p4, _, _ = equal_perimeters(L, alpha)
        assert p4 is not None
        assert p3 <= p4 + 1e-12


def test_p3_derivative_strictly_increasing():
    alpha = 0.37

    def dp3(L):
        u1 = math.sqrt((3.0 * L * L + 4.0 * SQRT3) / 21.0)
        u2 = math.sqrt((3.0 * L * L + 4.0 * SQRT3 * alpha) / 21.0)
        return L / u1 + L / u2 - 3.0

    grid = [0.01 + 0.05 * k for k in range(200)]
    vals = [dp3(L) for L in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_p3_minimizer_stationarity():
    rng = Lcg(79)
    for _ in range(20):
        alpha = rng.uniform(0.01, 1.0)
        L, _ = p3_minimizer(alpha)
        u1 = math.sqrt((3.0 * L * L + 4.0 * SQRT3) / 21.0)
        u2 = math.sqrt((3.0 * L * L + 4.0 * SQRT3 * alpha) / 21.0)
        assert abs(L / u1 + L / u2 - 3.0) <= 1e-11


def test_p3_minimizer_equal_volumes():
    L, P = p3_minimizer(1.0)
    assert abs(L - 1.0459095686688096) <= 1e-12
    assert abs(P - 6.624093934902461) <= 1e-12
    assert abs(L * L - 12.0 * SQRT3 / 19.0) <= 1e-12


def test_p3_minimizer_matches_golden_section():
    L, P = p3_minimizer(1.0)
    x, fx = golden_min_1d(lambda t: equal_perimeters(t, 1.0)[0], 0.2, 3.0)
    assert abs(x - L) <= 1e-6
    assert abs(fx - P) <= 1e-10


# ---------------------------------------------------------------- candidate rows


def test_candidate_table_shape_and_admissibility():
    rows = unequal_candidates(0.05)
    assert len(rows) == 8
    assert [r.admissible for r in rows] == [
        False, True, False, False, False, True, False, False,
    ]
    assert not any(r.admissible for r in unequal_candidates(0.125))
    assert not any(r.admissible for r in unequal_candidates(0.5))


def test_admissible_rows_match_the_closed_form():
    for alpha in (0.02, 0.05, 0.1, 0.124):
        want = small_alpha_closed_form(alpha)
        rows = unequal_candidates(alpha)
        row2, row6 = rows[1], rows[5]
        assert row2.admissible and row6.admissible
        p2 = kissing_perimeter(row2.L1, row2.L2, alpha)
        p6 = kissing_perimeter(row6.L1, row6.L2, alpha)
        assert abs(p2 - want) <= 1e-12
        # row 6 is the same configuration with the roles mirrored
        assert abs(p6 - p2) <= 2e-15
        for row in rows:
            if row.admissible:
                assert kissing_perimeter(row.L1, row.L2, alpha) >= want - 1e-12


def test_row2_sides_at_alpha_005():
    rows = unequal_candidates(0.05)
    assert abs(rows[1].L1 - 0.6204032394013997) <= 1e-15
    assert abs(rows[1].L2 - 0.39237746085102826) <= 1e-15


def test_candidates_collapse_at_the_handoff():
    row = unequal_candidates(0.125)[1]
    want = math.sqrt(2.0 * SQRT3) / 3.0
    assert abs(row.L1 - want) <= 1e-12
    assert abs(row.L2 - want) <= 1e-12
    assert not row.admissible  # strict inequality fails exactly at 1/8


# ---------------------------------------------------------------- the minimum


def test_small_alpha_branch():
    rng = Lcg(83)
    for _ in range(20):
        alpha = rng.uniform(1e-4, 0.125 - 1e-9)
        sol = kissing_minimum(alpha)
        assert sol.branch == BRANCH_UNEQUAL
        row = unequal_candidates(alpha)[1]
        assert (sol.L1, sol.L2) == (row.L1, row.L2)
        assert abs(sol.perimeter - small_alpha_closed_form(alpha)) <= 1e-12
    sol = kissing_minimum(1.0 / 16.0)
    assert abs(sol.perimeter - 2.0 * 3.0 ** 0.25 * (math.sqrt(2.0) + 0.25)) <= 1e-12


def test_frozen_small_alpha_values():
    sol = kissing_minimum(0.05)
    assert abs(sol.L1 - 0.6204032394013997) <= 1e-15
    assert abs(sol.L2 - 0.39237746085102826) <= 1e-15
    assert abs(sol.perimeter - 4.310985627684941) <= 1e-15


def test_handoff_is_seamless():
    below = kissing_minimum(0.125 - 1e-9)
    at = kissing_minimum(0.125)
    above = kissing_minimum(0.125 + 1e-9)
    assert below.branch == BRANCH_UNEQUAL
    assert at.branch == BRANCH_EQUAL
    assert above.branch == BRANCH_EQUAL
    assert abs(at.perimeter - 2.5 * math.sqrt(2.0 * SQRT3)) <= 1e-14
    assert abs(at.perimeter - 4.653024295510498) <= 1e-15
    want = math.sqrt(2.0 * SQRT3) / 3.0
    assert abs(at.L1 - want) <= 1e-12 and abs(at.L2 - want) <= 1e-12
    assert abs(above.perimeter - below.perimeter) <= 1e-7
    assert abs(above.L1 - below.L1) <= 1e-5


def test_handoff_derivative_identities():
    # at alpha = 1/8 the diagonal stationarity L/u1 + L/u2 = 3 splits as 1 + 2
    L = math.sqrt(2.0 * SQRT3) / 3.0
    u1 = math.sqrt((3.0 * L * L + 4.0 * SQRT3) / 21.0)
    u2 = math.sqrt((3.0 * L * L + 4.0 * SQRT3 / 8.0) / 21.0)
    assert abs(L / u1 - 1.0) <= 1e-12
    assert abs(L / u2 - 2.0) <= 1e-12


def test_minimum_against_grid_oracle():
    alpha = 0.5
    # the perimeter has a min(L1, L2) kink along the diagonal; without a
    # diagonal move the descent stalls on the trap line
    _, got = grid_refine_min(
        lambda p: kissing_perimeter(p[0], p[1], alpha),
        (0.05, 0.05),
        (2.4, 2.4),
        grid=64,
        refine_iters=60,
        directions=[(1.0, 1.0)],
    )
    assert abs(got - kissing_minimum(alpha).perimeter) <= 1e-5


def test_invalid_alpha():
    for bad in (0.0, -0.1, 1.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="ratio"):
            kissing_minimum(bad)
    with pytest.raises(ValueError, match="side"):
        equal_perimeters(0.0, 0.5)


# ---------------------------------------------------------------- polynomial route


def _sign_changes(cs):
    signs = [c > 0.0 for c in cs if c != 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _assert_sign_pattern(cs):
    # c0 <= 0, c2 < 0 (or underflowed), c6, c8 > 0, odd terms exactly 0
    # (an even polynomial): one change, so one positive root (Descartes)
    assert len(cs) == 9
    assert cs[1] == cs[3] == cs[5] == cs[7] == 0.0
    assert cs[0] <= 0.0 and cs[2] <= 0.0 and cs[6] > 0.0 and cs[8] > 0.0
    assert _sign_changes(cs) == 1


def _brackets(cs, L):
    return horner(cs, L - 1e-8) < 0.0 < horner(cs, L + 1e-8)


def test_degree8_equal_volumes():
    cs = build_degree8(1.0)
    assert abs(cs[8] - 171.0 / 2401.0) <= 1e-15 * (171.0 / 2401.0)
    _assert_sign_pattern(cs)
    L, _ = p3_minimizer(1.0)
    assert _brackets(cs, L)
    assert abs(horner(cs, L)) <= 1e-6 * max(abs(c) for c in cs)
    assert abs(horner(cs, L)) <= 1e-12  # much tighter in practice


@pytest.mark.parametrize(
    "alpha, want",
    [
        (
            "0x1.0000000000000p-3",
            ["-0x1.eb50b6898aedcp-7", "-0x1.a97dd425484d9p-6", "0x1.1735468c62cdap-4",
             "0x1.dead8ea9f1574p-3", "0x1.23b7ec61aa7d4p-4"],
        ),
        (
            "0x1.0b26286c1e801p-1",
            ["-0x1.0b8556436282ap-2", "-0x1.2c4fddad52383p-3", "0x1.3e5d52f554358p-2",
             "0x1.43c0541a935e7p-2", "0x1.23b7ec61aa7d4p-4"],
        ),
        (
            "0x1.879b086f0496dp-1",
            ["-0x1.1f6bb7024b851p-1", "-0x1.fe892f3279464p-3", "0x1.d53a588513263p-2",
             "0x1.77772120da1b4p-2", "0x1.23b7ec61aa7d4p-4"],
        ),
        (
            "0x1.0000000000000p+0",
            ["-0x1.eb50b6898aedcp-1", "-0x1.7a36f57679289p-2", "0x1.33127215f6d4ap-1",
             "0x1.a97dd425484dap-2", "0x1.23b7ec61aa7d4p-4"],
        ),
    ],
    ids=["1/8", "0.5218", "0.7649", "1"],
)
def test_degree8_coefficients_are_pinned(alpha, want):
    # float.hex of c0, c2, ..., c8 (the odd ones are exactly 0), frozen
    # under Python 3.11; at the two middle ratios sum() of floats on 3.12
    # and later rounds c4 differently, so the products are added by hand
    cs = build_degree8(float.fromhex(alpha))
    assert [c.hex() for c in cs[0::2]] == want
    assert all(c == 0.0 for c in cs[1::2])


def test_degree8_random_alpha():
    rng = Lcg(89)
    c8 = 171.0 / 2401.0
    for _ in range(20):
        alpha = rng.uniform(0.01, 1.0)
        cs = build_degree8(alpha)
        assert abs(cs[8] - c8) <= 1e-15 * c8  # leading term never sees alpha
        _assert_sign_pattern(cs)
        L, _ = p3_minimizer(alpha)
        assert abs(horner(cs, L)) <= 1e-6 * max(abs(c) for c in cs)
        assert _brackets(cs, L)
        assert checks.degree8_certificate(alpha, L) == (True, "")


def test_degree8_certificate_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    log_uniform = st.floats(min_value=math.log10(5e-324), max_value=0.0).map(
        lambda e: max(5e-324, 10.0 ** e)
    )
    uniform = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)

    @hypothesis.settings(derandomize=True, deadline=None)
    @hypothesis.given(st.one_of(log_uniform, uniform))
    def check(alpha):
        cs = build_degree8(alpha)
        _assert_sign_pattern(cs)
        L, _ = p3_minimizer(alpha)
        assert _brackets(cs, L)
        assert checks.degree8_certificate(alpha, L) == (True, "")
        # a minimizer off by 1e-6 relative lies outside the 1e-8 bracket
        assert not _brackets(cs, L * (1.0 + 1e-6))
        assert not checks.degree8_certificate(alpha, L * (1.0 + 1e-6))[0]

    check()


def test_degree8_certificate_is_independent_of_newton(monkeypatch):
    minimizers = {a: p3_minimizer(a)[0] for a in (5e-324, 1e-12, 0.125, 0.5, 1.0)}

    def refuse(*args):
        raise AssertionError("the certificate called the solver's P3 route")

    monkeypatch.setattr(singlebubble, "newton_root", refuse)
    monkeypatch.setattr(kissing, "newton_root", refuse)
    monkeypatch.setattr(kissing, "p3_minimizer", refuse)
    for alpha, L in minimizers.items():
        assert checks.degree8_certificate(alpha, L) == (True, "")


# ---------------------------------------------------------------- geometry


def test_geometry_round_trip():
    rng = Lcg(97)
    for _ in range(10):
        alpha = rng.uniform(0.02, 1.0)
        sol = kissing_minimum(alpha)
        geometry_a, geometry_b, _, _ = kissing_geometry(sol.L1, sol.L2, alpha)
        assert abs(polygon_area(geometry_a) - 1.0) <= 1e-9
        assert abs(polygon_area(geometry_b) - alpha) <= 1e-9
        total, joint = double_bubble_perimeter(geometry_a, geometry_b)
        assert abs(total - sol.perimeter) <= 1e-9
        assert abs(joint - min(sol.L1, sol.L2)) <= 1e-9


def test_frozen_equal_volume_geometry():
    chain_a, chain_b, sides_a, sides_b = kissing_geometry(1.0, 1.0, 1.0)
    assert len(chain_a.vertices) == 6
    assert len(chain_b.vertices) == 6
    assert sides_a == sides_b
    total, joint = double_bubble_perimeter(chain_a, chain_b)
    assert abs(total - 6.626174221841099) <= 1e-12
    assert abs(joint - 1.0) <= 1e-12
    assert abs(total - kissing_perimeter(1.0, 1.0, 1.0)) <= 1e-12
