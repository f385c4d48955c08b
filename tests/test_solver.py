"""Case comparison, the transition ratio, sweeps, and figure geometry."""

import math

import pytest

from hexbubble.embedded import minimize_rho1
from hexbubble.hexnorm import PolyChain, double_bubble_perimeter, polygon_area
from hexbubble.kissing import kissing_minimum, small_alpha_closed_form
from hexbubble.singlebubble import fixed_side_polygon
from hexbubble.solver import (
    CASE_BOTH,
    CASE_EMBEDDED,
    CASE_KISSING,
    DoubleBubbleResult,
    embedded_value,
    find_alpha0,
    kissing_value,
    solve,
    sweep,
)


# ---------------------------------------------------------------- anchors


def test_frozen_anchor_solutions():
    anchors = [
        (0.05, CASE_EMBEDDED, 4.274027773985185),
        (0.1, CASE_EMBEDDED, 4.533601577654296),
        (0.152, CASE_EMBEDDED, 4.7498020004036645),
        (0.3, CASE_KISSING, 5.197335013999179),
        (0.5, CASE_KISSING, 5.680876580447726),
        (1.0, CASE_KISSING, 6.624093934902461),
    ]
    for alpha, case, perimeter in anchors:
        r = solve(alpha)
        assert r.case == case
        assert abs(r.perimeter - perimeter) <= 1e-9
        assert len(r.solutions) == 1
    r = solve(1.0)
    assert abs(r.solutions[0].L1 - 1.0459095686688338) <= 1e-10
    assert r.solutions[0].L1 == r.solutions[0].L2


def test_candidates_map():
    r = solve(0.05)
    assert set(r.candidates) == {"embedded", "kissing", "kissing-closed-form"}
    assert r.candidates["kissing-closed-form"] == small_alpha_closed_form(0.05)
    assert r.candidates["kissing"] == r.candidates["kissing-closed-form"]
    assert abs(r.candidates["embedded"] - r.perimeter) <= 1e-15
    r = solve(0.3)
    assert set(r.candidates) == {"embedded", "kissing"}
    assert abs(r.candidates["kissing"] - r.perimeter) <= 1e-15


# ---------------------------------------------------------------- transition


def test_find_alpha0():
    a0 = find_alpha0()
    assert abs(a0 - 0.1524572115391493) <= 1e-8
    assert 0.147 <= a0 <= 0.157
    assert abs(embedded_value(a0) - kissing_value(a0)) <= 1e-8


def test_transition_is_a_tie():
    a0 = find_alpha0()
    r = solve(a0)
    assert r.case == CASE_BOTH
    assert len(r.solutions) == 2
    assert [e.case for e in r.solutions] == [CASE_EMBEDDED, CASE_KISSING]
    assert abs(r.candidates["embedded"] - r.candidates["kissing"]) <= 1e-8
    for entry in r.solutions:
        assert abs(polygon_area(entry.geometry_a) - 1.0) <= 1e-9
        assert abs(polygon_area(entry.geometry_b) - a0) <= 1e-9


def test_difference_signs():
    assert embedded_value(0.05) < kissing_value(0.05)
    assert embedded_value(0.5) > kissing_value(0.5)


def test_exactly_one_sign_change():
    n = 1000
    alphas = [0.02 + (1.0 - 0.02) * i / (n - 1) for i in range(n)]
    signs = [embedded_value(a) - kissing_value(a) < 0.0 for a in alphas]
    flips = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    assert flips == 1


def test_bad_bracket_raises():
    with pytest.raises(ValueError, match="bracket"):
        find_alpha0(0.3, 0.5)


# ---------------------------------------------------------------- sweep


def test_sweep_grid_and_counts():
    results = sweep(0.05, 0.3, 100)
    assert len(results) == 100
    assert results[0].alpha == 0.05
    assert results[-1].alpha == 0.3
    cases = [r.case for r in results]
    assert cases.count(CASE_EMBEDDED) == 41
    assert cases.count(CASE_KISSING) == 59
    flips = sum(1 for a, b in zip(cases, cases[1:]) if a != b)
    assert flips == 1
    for a, b in zip(results, results[1:]):
        assert b.perimeter >= a.perimeter - 1e-12  # more volume costs boundary


def test_sweep_beats_separate_bubbles():
    for r in sweep(0.05, 1.0, 20):
        separate = 2.0 * math.sqrt(2.0) * 3.0 ** 0.25 * (1.0 + math.sqrt(r.alpha))
        assert r.perimeter < separate


def test_sweep_single_step():
    results = sweep(1.0, 1.0, 1)
    assert len(results) == 1
    assert results[0].alpha == 1.0


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(0.5, 0.1, 10)
    with pytest.raises(ValueError):
        sweep(0.1, 0.5, 0)
    with pytest.raises(ValueError):
        sweep(0.0, 0.5, 10)


# ---------------------------------------------------------------- geometry


def test_equal_volumes_are_congruent():
    r = solve(1.0)
    entry = r.solutions[0]
    base_y = min(v.y for v in entry.geometry_a.vertices)
    reflected = sorted(
        (round(v.x, 9), round(2.0 * base_y - v.y, 9))
        for v in entry.geometry_b.vertices
    )
    original = sorted((round(v.x, 9), round(v.y, 9)) for v in entry.geometry_a.vertices)
    assert len(reflected) == len(original)
    for (ax, ay), (bx, by) in zip(original, reflected):
        assert abs(ax - bx) <= 1e-9 and abs(ay - by) <= 1e-9


def test_solution_entry_joint_lengths():
    r = solve(0.1)
    entry = r.solutions[0]
    assert entry.case == CASE_EMBEDDED
    assert abs(entry.joint_length - entry.L1) <= 1e-15
    r = solve(0.5)
    entry = r.solutions[0]
    assert entry.case == CASE_KISSING
    assert abs(entry.joint_length - min(entry.L1, entry.L2)) <= 1e-15
    assert r.joint_length == r.solutions[0].joint_length


def test_build_figure_geometry():
    r = solve(0.4)
    entry = r.solutions[0]
    a, b = entry.geometry_a, entry.geometry_b
    anchor = min(a.vertices, key=lambda v: (v.x, v.y))
    assert abs(anchor.x) <= 1e-12 and abs(anchor.y) <= 1e-12
    # translation only: vertex differences against the unanchored cell are constant
    raw = fixed_side_polygon(entry.L1, entry.sides_a)
    dxs = {round(u.x - v.x, 12) for u, v in zip(a.vertices, raw.vertices)}
    dys = {round(u.y - v.y, 12) for u, v in zip(a.vertices, raw.vertices)}
    assert len(dxs) == 1 and len(dys) == 1
    total, joint = double_bubble_perimeter(a, b)
    assert abs(total - r.perimeter) <= 1e-9
    assert abs(joint - r.joint_length) <= 1e-9


def test_find_alpha0_rejects_unreachable_tolerances():
    # nan first: on a build without the check it returns at once instead of
    # bisecting forever as the nonpositive ones do
    for tol in (math.nan, 0.0, -1e-9, math.inf):
        with pytest.raises(ValueError, match="tol"):
            find_alpha0(tol=tol)


def test_solve_builds_only_the_reported_cells(monkeypatch):
    built = []
    validate = PolyChain.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(PolyChain, "__post_init__", counting)
    for alpha, cells in ((0.05, 2), (0.3, 2), (0.1524572115391493, 4)):
        built.clear()
        assert len(solve(alpha).solutions) == cells // 2
        assert len(built) == cells, alpha
    built.clear()
    embedded_value(0.3)
    kissing_value(0.3)
    find_alpha0()
    assert built == []


def test_measured_total_matches_reported():
    from hexbubble.oracle import Lcg

    rng = Lcg(149)
    for _ in range(8):
        alpha = rng.uniform(0.02, 1.0)
        r = solve(alpha)
        for entry in r.solutions:
            total, _ = double_bubble_perimeter(entry.geometry_a, entry.geometry_b)
            assert abs(total - r.candidates[entry.case]) <= 1e-9


def test_alpha_validation():
    for bad in (0.0, -0.1, 1.5, math.inf):
        with pytest.raises(ValueError, match="ratio"):
            solve(bad)


def test_bool_ratio_rejected():
    # bool is an int subclass; True must not pass as alpha = 1
    for fn in (solve, embedded_value, kissing_value, minimize_rho1, kissing_minimum):
        with pytest.raises(ValueError, match="not bool"):
            fn(True)
    with pytest.raises(ValueError, match="not bool"):
        sweep(0.5, True, 3)
