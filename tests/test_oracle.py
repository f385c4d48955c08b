"""Brute-force oracle: LCG reproducibility, grid+refine, perturbation probe."""

import math

import pytest

from hexbubble.embedded import embedded_geometry, minimize_rho1
from hexbubble.kissing import kissing_geometry, kissing_minimum, kissing_perimeter
from hexbubble.oracle import BoxSpec, Lcg, grid_refine_min, perturb_local_min
from hexbubble.singlebubble import solve_fixed_side, x4_from_volume

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------- LCG


def test_lcg_frozen_sequence_seed_zero():
    # state <- (6364136223846793005*state + 1442695040888963407) mod 2^64,
    # uniform = (state >> 11) / 2^53; from seed 0 the first state is the
    # increment itself
    rng = Lcg(0)
    assert rng.next_u64() == 1442695040888963407
    rng = Lcg(0)
    got = [rng.uniform() for _ in range(4)]
    assert got == [
        0.07820865487829387,
        0.10169876029679303,
        0.6053233226252335,
        0.40121620369530075,
    ]


def test_lcg_frozen_sequence_seed_12345():
    rng = Lcg(12345)
    got = [rng.uniform() for _ in range(4)]
    assert got == [
        0.10957860598549463,
        0.26538529591773785,
        0.8856239926684798,
        0.8357374096797802,
    ]


def test_lcg_uniform_respects_bounds_and_mapping():
    a, b = Lcg(9), Lcg(9)
    for _ in range(200):
        u = a.uniform()
        v = b.uniform(2.0, 5.0)
        assert 0.0 <= u < 1.0
        assert 2.0 <= v < 5.0
        assert abs(v - (2.0 + 3.0 * u)) <= 1e-12


# ---------------------------------------------------------------- grid_refine_min


def test_quadratic_bowl_argmin():
    box = BoxSpec(lower=(0.0, 0.0), upper=(1.0, 1.0))
    point, value = grid_refine_min(
        lambda p: (p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2, box, grid=32, refine_iters=60
    )
    assert abs(point[0] - 0.3) <= 1e-6
    assert abs(point[1] - 0.7) <= 1e-6
    assert value <= 1e-12


def test_grid_refine_deterministic():
    box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    obj = lambda p: (p[0] - 0.123) ** 2 + abs(p[1] + 0.456)
    first = grid_refine_min(obj, box, grid=24, refine_iters=50)
    second = grid_refine_min(obj, box, grid=24, refine_iters=50)
    assert first == second


def test_separable_convex_reaches_1e8():
    box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    point, _ = grid_refine_min(
        lambda p: (p[0] - 0.31) ** 2 + (p[1] + 0.273) ** 2,
        box,
        grid=16,
        refine_iters=120,
    )
    assert abs(point[0] - 0.31) <= 1e-8
    assert abs(point[1] + 0.273) <= 1e-8
    # a kink at the minimum must not stall the shrinking steps either
    point, _ = grid_refine_min(
        lambda p: abs(p[0] - 0.5) + abs(p[1] - 0.25), box, grid=16, refine_iters=120
    )
    assert abs(point[0] - 0.5) <= 1e-8
    assert abs(point[1] - 0.25) <= 1e-8


def test_grid_too_coarse_rejected():
    box = BoxSpec(lower=(0.0,), upper=(1.0,))
    with pytest.raises(ValueError, match="grid"):
        grid_refine_min(lambda p: p[0], box, grid=8)


def test_no_feasible_grid_point_raises():
    # feasible set is a tiny ball that the inclusive grid misses
    w = (0.5000003, 0.5000003)
    box = BoxSpec(
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
        feasible=lambda p: math.hypot(p[0] - w[0], p[1] - w[1]) < 1e-6,
        witness=w,
    )
    with pytest.raises(ValueError, match="feasible"):
        grid_refine_min(lambda p: p[0], box, grid=16)


def test_witness_is_required_and_checked():
    with pytest.raises(ValueError, match="witness"):
        BoxSpec(lower=(0.0,), upper=(1.0,), feasible=lambda p: p[0] > 0.5)
    with pytest.raises(ValueError, match="witness"):
        BoxSpec(
            lower=(0.0,),
            upper=(1.0,),
            feasible=lambda p: p[0] > 0.5,
            witness=(0.1,),
        )


def test_box_bounds_validation():
    with pytest.raises(ValueError):
        BoxSpec(lower=(1.0,), upper=(0.0,))
    with pytest.raises(ValueError):
        BoxSpec(lower=(), upper=())


# ---------------------------------------------------------------- against the closed forms


def test_oracle_matches_fixed_side_closed_form():
    L, V = 0.3, 1.0

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

    box = BoxSpec(
        lower=(0.0, 0.0),
        upper=(4.0, 6.0),
        feasible=lambda p: sides(p) is not None,
        witness=(0.0, 2.0 * V / (SQRT3 * L) + 0.1),
    )
    _, got = grid_refine_min(
        lambda p: L + sum(sides(p)),
        box,
        grid=48,
        refine_iters=60,
        directions=[(1.0, -1.0), (1.0, 1.0)],
    )
    assert abs(got - solve_fixed_side(L, V).perimeter) <= 1e-5


def test_oracle_matches_kissing_minimum():
    alpha = 0.5
    box = BoxSpec(lower=(0.05, 0.05), upper=(2.4, 2.4))
    # the optimum sits on the min(L1, L2) kink: include the diagonal so
    # refinement can slide along it
    _, got = grid_refine_min(
        lambda p: kissing_perimeter(p[0], p[1], alpha),
        box,
        grid=64,
        refine_iters=60,
        directions=[(1.0, 1.0)],
    )
    assert abs(got - kissing_minimum(alpha).perimeter) <= 1e-5


# ---------------------------------------------------------------- perturb_local_min


def test_perturb_accepts_kissing_minimizer():
    sol = kissing_minimum(1.0)

    def rebuild(params):
        ga, gb, _, _ = kissing_geometry(params[0], params[1], 1.0)
        return ga, gb

    assert perturb_local_min(
        *rebuild((sol.L1, sol.L2)),
        rebuild,
        (sol.L1, sol.L2),
        trials=500,
        eps=1e-3,
        seed=7,
    )


def test_perturb_accepts_embedded_minimizer():
    alpha = 0.05
    L1, L2, _ = minimize_rho1(alpha)

    def rebuild(params):
        return embedded_geometry(params[0], params[1], 1.0, alpha)

    ga, gb = rebuild((L1, L2))
    assert perturb_local_min(ga, gb, rebuild, (L1, L2), trials=500, eps=1e-3, seed=3)


def test_perturb_rejects_off_minimum_configuration():
    sol = kissing_minimum(1.0)
    start = (sol.L1 * 1.05, sol.L2)  # deliberately not the minimizer

    def rebuild(params):
        ga, gb, _, _ = kissing_geometry(params[0], params[1], 1.0)
        return ga, gb

    ga, gb = rebuild(start)
    assert not perturb_local_min(ga, gb, rebuild, start, trials=500, eps=1e-2, seed=1)


def test_perturb_eps_out_of_range_rejected():
    sol = kissing_minimum(1.0)
    geometry_a, geometry_b, _, _ = kissing_geometry(sol.L1, sol.L2, 1.0)
    with pytest.raises(ValueError, match="eps"):
        perturb_local_min(
            geometry_a,
            geometry_b,
            lambda p: (geometry_a, geometry_b),
            (sol.L1, sol.L2),
            eps=0.1,
        )
    with pytest.raises(ValueError, match="eps"):
        perturb_local_min(
            geometry_a,
            geometry_b,
            lambda p: (geometry_a, geometry_b),
            (sol.L1, sol.L2),
            eps=0.0,
        )


def test_perturb_trial_sequence_is_seed_deterministic():
    alpha = 0.05
    L1, L2, _ = minimize_rho1(alpha)
    logs = []
    for _ in range(2):
        seen = []

        def rebuild(params, seen=seen):
            seen.append(params)
            return embedded_geometry(params[0], params[1], 1.0, alpha)

        ga, gb = embedded_geometry(L1, L2, 1.0, alpha)
        assert perturb_local_min(ga, gb, rebuild, (L1, L2), trials=60, eps=1e-3, seed=42)
        logs.append(seen)
    assert logs[0] == logs[1]


def test_perturb_skips_infeasible_trials():
    alpha = 0.05
    L1, L2, _ = minimize_rho1(alpha)
    calls = {"n": 0}

    def rebuild(params):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise ValueError("synthetic infeasible trial")
        if calls["n"] % 5 == 0:
            return None
        return embedded_geometry(params[0], params[1], 1.0, alpha)

    ga, gb = embedded_geometry(L1, L2, 1.0, alpha)
    assert perturb_local_min(ga, gb, rebuild, (L1, L2), trials=90, eps=1e-3, seed=5)
    assert calls["n"] == 90
