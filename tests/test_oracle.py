"""Brute-force oracle: LCG reproducibility, grid+refine, perturbation probe."""

import hashlib
import math
import re

import pytest

from hexbubble import checks, embedded, hexnorm, kissing, singlebubble
from hexbubble.embedded import embedded_geometry, minimize_rho1
from hexbubble.kissing import kissing_geometry, kissing_minimum, kissing_perimeter
from hexbubble.oracle import Lcg, grid_refine_min, perturb_local_min
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
    point, value = grid_refine_min(
        lambda p: (p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2,
        (0.0, 0.0),
        (1.0, 1.0),
        grid=32,
        refine_iters=60,
    )
    assert abs(point[0] - 0.3) <= 1e-6
    assert abs(point[1] - 0.7) <= 1e-6
    assert value <= 1e-12


def test_grid_refine_deterministic():
    obj = lambda p: (p[0] - 0.123) ** 2 + abs(p[1] + 0.456)
    first = grid_refine_min(obj, (-1.0, -1.0), (1.0, 1.0), grid=24, refine_iters=50)
    second = grid_refine_min(obj, (-1.0, -1.0), (1.0, 1.0), grid=24, refine_iters=50)
    assert first == second


def test_separable_convex_reaches_1e8():
    box = (-1.0, -1.0), (1.0, 1.0)
    point, _ = grid_refine_min(
        lambda p: (p[0] - 0.31) ** 2 + (p[1] + 0.273) ** 2,
        *box,
        grid=16,
        refine_iters=120,
    )
    assert abs(point[0] - 0.31) <= 1e-8
    assert abs(point[1] + 0.273) <= 1e-8
    # a kink at the minimum must not stall the shrinking steps either
    point, _ = grid_refine_min(
        lambda p: abs(p[0] - 0.5) + abs(p[1] - 0.25), *box, grid=16, refine_iters=120
    )
    assert abs(point[0] - 0.5) <= 1e-8
    assert abs(point[1] - 0.25) <= 1e-8


def test_grid_too_coarse_rejected():
    with pytest.raises(ValueError, match="grid"):
        grid_refine_min(lambda p: p[0], (0.0,), (1.0,), grid=8)


def test_no_feasible_grid_point_raises():
    # feasible set is a tiny ball that the inclusive grid misses
    w = (0.5000003, 0.5000003)

    def objective(p):
        if math.hypot(p[0] - w[0], p[1] - w[1]) >= 1e-6:
            raise ValueError("outside the ball")
        return p[0]

    with pytest.raises(ValueError, match="feasible"):
        grid_refine_min(objective, (0.0, 0.0), (1.0, 1.0), grid=16)


def test_box_bounds_validation():
    for lower, upper, match in [
        ((1.0,), (0.0,), "lower < upper"),
        ((0.0,), (0.0,), "lower < upper"),
        ((0.0, math.nan), (1.0, 1.0), "finite"),
        ((0.0,), (math.inf,), "finite"),
        ((), (), "nonempty"),
        ((0.0,), (1.0, 1.0), "equal length"),
    ]:
        with pytest.raises(ValueError, match=match):
            grid_refine_min(lambda p: p[0], lower, upper)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(grid=16.0), "grid must be an int, got 16.0"),
        (dict(grid=True), "grid must be an int, got True"),
        (dict(grid=8), "grid must be >= 16"),
        (dict(refine_iters=2.5), "refine_iters must be an int, got 2.5"),
        (dict(refine_iters=False), "refine_iters must be an int, got False"),
        (dict(refine_iters=-1), "refine_iters must be >= 0"),
        (dict(directions=[(1.0, 1.0, 1.0)]), "has 3 components, the box has 2"),
        (dict(directions=[(1.0,)]), "has 1 components, the box has 2"),
        (dict(directions=[(0.0, 0.0)]), "must be finite and nonzero"),
        (dict(directions=[(1.0, math.nan)]), "must be finite and nonzero"),
        (dict(directions=[(math.inf, 1.0)]), "must be finite and nonzero"),
        (dict(trials=True), "trials must be an int, got True"),
        (dict(trials=2.5), "trials must be an int, got 2.5"),
        (dict(trials=0), "trials must be positive"),
    ],
)
def test_oracle_arguments_are_validated(kwargs, match):
    # a malformed argument raises ValueError up front, before any objective
    # or rebuild call: no silently dropped component, no IndexError from
    # the objective, no trial run for trials=True
    calls = []
    sol = kissing_minimum(1.0)
    ga, gb, _, _ = kissing_geometry(sol.L1, sol.L2, 1.0)

    def objective(p):
        calls.append(p)
        return p[0] * p[0] + p[1] * p[1]

    def rebuild(p):
        calls.append(p)
        return ga, gb

    with pytest.raises(ValueError, match=re.escape(match)):
        if "trials" in kwargs:
            perturb_local_min(ga, gb, rebuild, (sol.L1, sol.L2), **kwargs)
        else:
            grid_refine_min(objective, (0.0, 0.0), (1.0, 1.0), **kwargs)
    assert calls == []


def test_grid_scan_skips_grid_values_outside_the_box():
    # lower + (upper - lower) * 15 / 15 rounds 7.1e-15 above upper, past
    # the 1e-15 slack, so the inclusive grid's top value is not in the box
    lo, hi = 4.040082995238743, 22.148791792286822
    top = lo + (hi - lo) * 15 / 15
    assert top > hi + 1e-15
    seen = []

    def objective(p):
        seen.append(p[0])
        return -p[0]

    point, value = grid_refine_min(objective, (lo,), (hi,), grid=16)
    assert top not in seen
    assert max(seen) <= hi + 1e-15
    assert point[0] <= hi + 1e-15 and value == -point[0]


def test_grid_scan_ties_go_to_the_first_point_with_the_last_axis_fastest():
    # a constant objective never improves, so the first feasible grid point
    # is returned: (0, 1) when the last axis moves fastest, (1, 0) if not
    def objective(p):
        if p[0] + p[1] < 1.0:
            raise ValueError("below the anti-diagonal")
        return 2.5

    assert grid_refine_min(objective, (0.0, 0.0), (1.0, 1.0), grid=16) == ((0.0, 1.0), 2.5)


def test_descent_walk_ends_where_the_objective_raises():
    # -x falls toward a wall at 0.54 past which the objective raises.  The
    # best grid point 8/15 sits below the wall and every +x step of the four
    # cycles (1/15 down to 1/120) lands past it, so each +x walk makes one
    # raising call and ends; the -x walks make one worse call each
    calls = []

    def objective(p):
        calls.append(p[0])
        if p[0] > 0.54:
            raise ValueError("past the wall")
        return -p[0]

    point, value = grid_refine_min(objective, (0.0,), (1.0,), grid=16, refine_iters=4)
    walk = calls[16:]
    assert point == (8 / 15,) and value == -8 / 15
    assert len(walk) == 8
    assert [x > 0.54 for x in walk] == [True, False] * 4


def test_exceptions_other_than_value_error_propagate_from_the_grid():
    # a bug in the objective is never read as infeasibility, in the scan or
    # in the descent walk that follows it
    def broken(p):
        raise TypeError("bug in the objective")

    with pytest.raises(TypeError, match="bug"):
        grid_refine_min(broken, (0.0,), (1.0,), grid=16)

    calls = []

    def broken_off_grid(p):
        calls.append(p)
        if len(calls) > 16:
            raise TypeError("bug in the objective")
        return (p[0] - 0.3) ** 2

    with pytest.raises(TypeError, match="bug"):
        grid_refine_min(broken_off_grid, (0.0,), (1.0,), grid=16)
    assert len(calls) == 17


@pytest.mark.parametrize(
    "objective_for, kwargs, want",
    [
        (
            lambda: checks._single_bubble_objective(0.9, 1.1),
            dict(grid=48, refine_iters=50, directions=[(1.0, -1.0), (1.0, 1.0)]),
            ("0x1.ef41506b1ca88p-2", "0x1.6236bb4210a0ap-1", "0x1.f8ac936610a51p+1"),
        ),
        (
            lambda: checks._kissing_objective(0.5),
            dict(grid=64, refine_iters=60, directions=[(1.0, 1.0)]),
            ("0x1.c213ad593d10cp-1", "0x1.c213ad593d10cp-1", "0x1.6b937b5d68a88p+2"),
        ),
        (
            lambda: checks._embedded_objective(0.1),
            dict(grid=64, refine_iters=60),
            ("0x1.03ac1f5fa934dp-1", "0x1.465f207377db5p+0", "0x1.2226873b47a10p+2"),
        ),
    ],
    ids=["fixed-side", "kissing", "embedded"],
)
def test_grid_refine_min_is_pinned_on_the_verify_objectives(objective_for, kwargs, want):
    # (argmin, value) as float.hex, frozen from the odometer scan that the
    # product scan replaced; the verify checks use these settings
    objective, lower, upper = objective_for()
    (x1, x2), value = grid_refine_min(objective, lower, upper, **kwargs)
    assert (x1.hex(), x2.hex(), value.hex()) == want


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

    def perimeter(p):
        s = sides(p)
        if s is None:
            raise ValueError("a side goes negative")
        return L + sum(s)

    _, got = grid_refine_min(
        perimeter,
        (0.0, 0.0),
        (4.0, 6.0),
        grid=48,
        refine_iters=60,
        directions=[(1.0, -1.0), (1.0, 1.0)],
    )
    assert abs(got - solve_fixed_side(L, V).perimeter) <= 1e-5


def test_oracle_matches_kissing_minimum():
    alpha = 0.5
    # the optimum sits on the min(L1, L2) kink: include the diagonal so
    # refinement can slide along it
    _, got = grid_refine_min(
        lambda p: kissing_perimeter(p[0], p[1], alpha),
        (0.05, 0.05),
        (2.4, 2.4),
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
        return embedded_geometry(params[0], params[1], 1.0, alpha)[:2]

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
            return embedded_geometry(params[0], params[1], 1.0, alpha)[:2]

        ga, gb = embedded_geometry(L1, L2, 1.0, alpha)[:2]
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
        return embedded_geometry(params[0], params[1], 1.0, alpha)[:2]

    ga, gb = embedded_geometry(L1, L2, 1.0, alpha)[:2]
    assert perturb_local_min(ga, gb, rebuild, (L1, L2), trials=90, eps=1e-3, seed=5)
    assert calls["n"] == 90


def test_perturb_propagates_exceptions_other_than_value_error():
    sol = kissing_minimum(1.0)
    ga, gb, _, _ = kissing_geometry(sol.L1, sol.L2, 1.0)

    def broken(params):
        raise TypeError("bug in the rebuild")

    with pytest.raises(TypeError, match="bug"):
        perturb_local_min(ga, gb, broken, (sol.L1, sol.L2), trials=10)


def _counted(monkeypatch, module, name, log):
    # patch module.name to append (args, "ok" or "raised") to log per call
    real = getattr(module, name)

    def counted(*args):
        try:
            value = real(*args)
        except ValueError:
            log.append((args, "raised"))
            raise
        log.append((args, "ok"))
        return value

    monkeypatch.setattr(module, name, counted)


def test_embedded_objective_evaluates_the_inner_cell_once_per_l1(monkeypatch):
    # the notched host is evaluated at every point and the inner cell at
    # most once per feasible L1; infeasible points raise from these two
    # single-cell routines, not from a separate predicate, and a raise is
    # never kept, so a side that raised is tried again at its next point
    hosts, cells, points = [], [], []
    _counted(monkeypatch, embedded, "outer_notched", hosts)
    _counted(monkeypatch, embedded, "inner_hexagon", cells)
    objective, lower, upper = checks._embedded_objective(0.1)

    def counted_objective(p):
        try:
            value = objective(p)
        except ValueError:
            points.append((p, "raised"))
            raise
        points.append((p, "ok"))
        return value

    grid_refine_min(counted_objective, lower, upper, grid=64, refine_iters=60)
    assert [args[:2] for args, _ in hosts] == [p for p, _ in points]
    assert all(args[2] == 1.0 for args, _ in hosts)
    kept = [args[0] for args, outcome in cells if outcome == "ok"]
    assert len(kept) == len(set(kept)) > 64
    assert all(args[1] == 0.1 for args, _ in cells)
    raised = [p for (p, outcome) in points if outcome == "raised"]
    assert raised
    host_raised = sum(outcome == "raised" for _, outcome in hosts)
    cell_raised = sum(outcome == "raised" for _, outcome in cells)
    assert host_raised > 0 and cell_raised > 0
    assert host_raised + cell_raised == len(raised)
    raising_sides = [args[0] for args, outcome in cells if outcome == "raised"]
    assert len(raising_sides) > len(set(raising_sides))


def test_kissing_objective_evaluates_each_cell_once_per_side(monkeypatch):
    # during one oracle-kissing run optimal_perimeter runs at most once per
    # distinct (side, volume), though the scan alone visits every side 64
    # times per cell
    calls = []
    _counted(monkeypatch, singlebubble, "optimal_perimeter", calls)
    objective, lower, upper = checks._kissing_objective(0.5)
    points = []

    def counted_objective(p):
        points.append(p)
        return objective(p)

    grid_refine_min(counted_objective, lower, upper, grid=64, refine_iters=60,
                    directions=[(1.0, 1.0)])
    args = [a for a, _ in calls]
    assert len(args) == len(set(args))
    assert {a for a in args if a[1] == 1.0} == {(p[0], 1.0) for p in points}
    assert {a for a in args if a[1] == 0.5} == {(p[1], 0.5) for p in points}
    assert len(points) > 64 * 64 > 2 * len(args)


@pytest.mark.parametrize("posed", ["_embedded_objective", "_kissing_objective"])
def test_pair_objectives_check_alpha_once_when_posed(monkeypatch, posed):
    # the objective checks alpha when it is posed, and no grid point checks
    # it again; an invalid alpha is refused before the scan
    calls = []
    check = singlebubble.check_alpha

    def counted(alpha):
        calls.append(alpha)
        check(alpha)

    for module in (checks, embedded, kissing, singlebubble):
        monkeypatch.setattr(module, "check_alpha", counted)
    objective, lower, upper = getattr(checks, posed)(0.3)
    grid_refine_min(objective, lower, upper, grid=16, refine_iters=4)
    assert calls == [0.3]
    with pytest.raises(ValueError, match="volume ratio"):
        getattr(checks, posed)(1.5)


@pytest.mark.parametrize(
    "alpha, minimum, build, want",
    [
        (
            0.05,
            embedded.embedded_minimum,
            lambda L1, L2, a: embedded_geometry(L1, L2, 1.0, a),
            "426d997edb56567acc7305a8f7cf53e0e2a21e19974bfb814b33e66a08f17f88",
        ),
        (
            1.0,
            kissing_minimum,
            kissing_geometry,
            "b827050dc5c92986fe45c6871455cd025e5d2af2d44603771f37c1f325828293",
        ),
    ],
    ids=["nested", "glued"],
)
def test_perturbation_trial_totals_are_pinned(monkeypatch, alpha, minimum, build, want):
    # sha256 of the float.hex of the baseline and of all 500 trial totals
    # that perturb_local_min measures, frozen before the metric read the
    # cell certificate: its shortcuts change no total by a bit
    totals = []
    measure = hexnorm.double_bubble_perimeter

    def recorded(a, b):
        total, joint = measure(a, b)
        totals.append(total.hex())
        return total, joint

    monkeypatch.setattr(hexnorm, "double_bubble_perimeter", recorded)
    sol = minimum(alpha)
    params = (sol.L1, sol.L2)

    def rebuild(p):
        return build(p[0], p[1], alpha)[:2]

    assert perturb_local_min(*rebuild(params), rebuild, params, trials=500, eps=1e-3, seed=0)
    assert len(totals) == 501
    assert hashlib.sha256(" ".join(totals).encode()).hexdigest() == want
