"""The self-check suites and the paper's exclusions, posed to the oracle.

Every check pits a closed form against a route that shares none of its
algebra: the brute-force grid oracle, the perturbation test, the degree-8
polynomial, or measurement of the built cells.  The exclusions are the
configurations that the paper's reduction rules out, so `solve` never
evaluates them: the glued pair's other stationary rows and its diagonal
branches P4..P6 (unequal_candidates, equal_perimeters), the degenerate
nested variant and the off-center notch.  The glued pair's perimeter
summed from its two cells (kissing_perimeter) is here too: the solver
takes that value in closed form.  The solver path (hexnorm,
singlebubble, kissing, embedded, solver) holds only what `solve`
evaluates and imports nothing from here or from `oracle`, so the
checkers stay independent of what they check.  `run_verify` runs a suite
and prints one line per check.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import embedded, hexnorm, kissing, singlebubble, solver
from .hexnorm import SQRT3, hex_norm, polygon_area
from .oracle import Lcg, grid_refine_min, perturb_local_min
from .singlebubble import MIN_SIDE, REGIME_FOUR, REGIME_SIX, check_alpha
from .solver import fmt

DIAG_TOL = 1e-6  # diagonal tolerance for the case-2 check


# ---------------------------------------------------------------- objectives


# An objective with its search box (lower, upper).  The objective raises
# ValueError where p gives no valid configuration: that is the oracle's
# only infeasibility signal.
Posed = tuple[Callable[[tuple[float, ...]], float], tuple[float, ...], tuple[float, ...]]


# An exact power of two that brings an overflowed term of a homogeneous
# form back into range: lengths are scaled by it and areas by its square.
# A term that then underflows lies far below half an ulp of the largest.
_SCALE = 2.0 ** -600


def x4_from_volume(x1: float, x2: float, L: float, V: float) -> float:
    """Invert the shoelace area for x4 >= 0 given x1, x2, L, V.

    Raises ValueError when the radicand is negative, i.e. the requested
    volume exceeds what any x4 can enclose with these sides.  x4 is
    homogeneous of degree one, so where a term of the radicand overflows
    it is taken at the sides times 2^-600 and V times 2^-1200 and scaled
    back; an x4 that overflows raises.
    """
    rad = x1 * x1 + 2.0 * x1 * x2 + 2.0 * L * (x1 + x2) - 4.0 * V / SQRT3
    if 0.0 <= rad < math.inf:
        return math.sqrt(rad)
    if -math.inf < rad < 0.0:  # finite, so no term overflowed
        raise ValueError("infeasible volume for the given sides")
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(L) and math.isfinite(V)):
        raise ValueError("sides and volume must be finite")
    x4 = x4_from_volume(x1 * _SCALE, x2 * _SCALE, L * _SCALE, V * _SCALE * _SCALE) / _SCALE
    if x4 == math.inf:
        raise ValueError("sides too large: x4 overflows")
    return x4


def _single_bubble_objective(L: float, V: float) -> Posed:
    """Perimeter over the two free sides (x1, x2) of a volume-V cell on a
    fixed side L.  The remaining sides come from closure and the volume
    constraint; a point where any side goes negative raises ValueError."""

    def objective(p: tuple[float, ...]) -> float:
        x1, x2 = p
        if x1 < 0.0 or x2 < 0.0:
            raise ValueError("negative free side")
        x4 = x4_from_volume(x1, x2, L, V)  # raises if no real x4
        x3 = L + x1 - x4
        x5 = x1 + x2 - x4
        if x3 < -1e-12 or x5 < -1e-12:
            raise ValueError("negative closing side")
        # added left to right: sum() of floats is compensated from Python 3.12
        return L + (x1 + x2 + x3 + x4 + x5)

    bound = L + 3.0 * math.sqrt(V) + 1.0
    return objective, (0.0, 0.0), (bound, bound)


# The two pair objectives check alpha once, when posed, and add the same
# parts in the same order as rho1 and kissing_perimeter.  The oracle's
# product grid repeats each side length 64 times, so a posed objective
# caches each single-cell length by its side (functools.cache keeps no
# raised ValueError: such a side raises again at its next point).  Each
# posing starts with empty caches.


def _embedded_objective(alpha: float) -> Posed:
    """rho1 over (L1, L2): the notched host at every point, then the
    inner cell, once per L1."""
    check_alpha(alpha)
    cap1 = math.sqrt(8.0 * SQRT3 * alpha / 3.0)
    inner = functools.cache(lambda L1: embedded.inner_hexagon(L1, alpha)[1])

    def objective(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return embedded.outer_notched(L1, L2, 1.0)[1] + inner(L1) - L1

    return objective, (1e-3, 1e-3), (cap1 * (1.0 + 1e-9), 3.0)


def kissing_perimeter(L1: float, L2: float, alpha: float) -> float:
    """Glued-pair perimeter with each cell in its active regime.

    Where the two cells' perimeters overflow as a sum the shared side is
    taken off first; a pair perimeter that overflows raises.
    """
    check_alpha(alpha)
    big = singlebubble.optimal_perimeter(L1, 1.0)
    small = singlebubble.optimal_perimeter(L2, alpha)
    shared = min(L1, L2)
    perimeter = big + small - shared
    if perimeter != math.inf:
        return perimeter
    # the two cells' sum overflowed; a cell's perimeter is at least twice
    # its side, so taking the shared side off first leaves a finite part
    perimeter = big + (small - shared)
    if perimeter == math.inf:
        raise ValueError("sides too large: the pair's perimeter overflows")
    return perimeter


def _kissing_objective(alpha: float) -> Posed:
    """kissing_perimeter over (L1, L2), each cell's length once per side."""
    check_alpha(alpha)
    lo = 0.05 * min(1.0, math.sqrt(alpha))
    big = functools.cache(lambda L1: singlebubble.optimal_perimeter(L1, 1.0))
    small = functools.cache(lambda L2: singlebubble.optimal_perimeter(L2, alpha))

    def objective(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return big(L1) + small(L2) - min(L1, L2)

    return objective, (lo, lo), (2.4, 2.4)


# ---------------------------------------------------------------- exclusions


# The glued pair off its optimum.  kissing_minimum evaluates two closed
# forms; what follows is why no other glued configuration beats them: the
# other unequal-side stationary rows, and the diagonal branches P4..P6.

# relative slack when holding a candidate to its claimed regime; stationary
# side pairs may sit exactly on the regime boundary
REGIME_TOL = 1e-12

# Stationarity of Popt(L, V) - indicator*L in L.  For the six-sided form
# d/dL [7 sqrt((3L^2+4 sqrt(3)V)/21) - (1+i) L] = 0 gives
# L^2 = 4 sqrt(3) V (1+i)^2 / (21 - 3 (1+i)^2); for the trapezoid form
# d/dL [3L - sqrt((3L^2-4 sqrt(3)V)/3) - i L] = 0 gives
# L^2 = 4 sqrt(3) V (3-i)^2 / (3 ((3-i)^2 - 1)).  The indicator marks the
# cell whose side is the shorter (fully shared) one.

_ROWS = (
    ((REGIME_SIX, 1), (REGIME_SIX, 0)),
    ((REGIME_SIX, 0), (REGIME_SIX, 1)),
    ((REGIME_FOUR, 1), (REGIME_FOUR, 0)),
    ((REGIME_FOUR, 0), (REGIME_FOUR, 1)),
    ((REGIME_SIX, 1), (REGIME_FOUR, 0)),
    ((REGIME_SIX, 0), (REGIME_FOUR, 1)),
    ((REGIME_FOUR, 1), (REGIME_SIX, 0)),
    ((REGIME_FOUR, 0), (REGIME_SIX, 1)),
)


class CandidateRow(NamedTuple):
    L1: float
    L2: float
    admissible: bool


def _stationary_side(form: str, indicator: int, V: float) -> float:
    if form == REGIME_SIX:
        c = float((1 + indicator) ** 2)
        return math.sqrt(4.0 * SQRT3 * V * c / (21.0 - 3.0 * c))
    c = float((3 - indicator) ** 2)
    return math.sqrt(4.0 * SQRT3 * V * c / (3.0 * (c - 1.0)))


def _regime_consistent(form: str, L: float, V: float) -> bool:
    t = 3.0 * SQRT3 * L * L
    if form == REGIME_SIX:
        return t <= 16.0 * V * (1.0 + REGIME_TOL)
    return t >= 16.0 * V * (1.0 - REGIME_TOL)


def unequal_candidates(alpha: float) -> list[CandidateRow]:
    """The eight stationary (L1, L2) pairs with their admissibility.

    A row is admissible when the cell carrying the indicator has the
    strictly shorter side (equivalently: alpha lies in the row's validity
    range, which is that same inequality in closed form) and both sides
    sit in their claimed regimes.  On (0, 1] only the rows pairing a
    plain six-sided volume-1 cell with an indicator-carrying volume-alpha
    cell survive, and only below alpha = 1/8; row 2 is the pair that
    kissing_minimum computes in closed form.
    """
    check_alpha(alpha)
    rows: list[CandidateRow] = []
    for (form1, i1), (form2, i2) in _ROWS:
        L1 = _stationary_side(form1, i1, 1.0)
        L2 = _stationary_side(form2, i2, alpha)
        ordered = L1 < L2 if i1 == 1 else L2 < L1
        ok = (
            ordered
            and _regime_consistent(form1, L1, 1.0)
            and _regime_consistent(form2, L2, alpha)
        )
        rows.append(CandidateRow(L1, L2, ok))
    return rows


def equal_perimeters(
    L: float, alpha: float
) -> tuple[float, Optional[float], Optional[float], Optional[float]]:
    """(P3, P4, P5, P6) on the diagonal L1 = L2 = L; None when infeasible.

    P3 glues two six-sided cells, P4/P5 mix regimes, P6 glues two
    trapezoids; each value is present exactly when its radicands are
    nonnegative.  P3 always exists.  Where 3L^2 overflows the forms are
    taken at L 2^-600 and scaled back, and a value that overflows raises.
    """
    check_alpha(alpha)
    if not math.isfinite(L) or L < MIN_SIDE:
        raise ValueError(f"side must be >= {MIN_SIDE}")
    x, c1, ca = L, 4.0 * SQRT3, 4.0 * SQRT3 * alpha  # the side and the volume terms
    huge = 3.0 * L * L == math.inf
    if huge:
        # each form is homogeneous of degree one in (L, sqrt(volume)); at
        # L 2^-600 the volume terms underflow to zero
        x, c1, ca = L * _SCALE, 0.0, 0.0
    square = 3.0 * x * x
    u1 = math.sqrt((square + c1) / 21.0)
    u2 = math.sqrt((square + ca) / 21.0)
    r1 = (square - c1) / 3.0
    ra = (square - ca) / 3.0
    p3 = 7.0 * u1 + 7.0 * u2 - 3.0 * x
    p4 = 7.0 * u1 + x - math.sqrt(ra) if ra >= 0.0 else None
    p5 = 7.0 * u2 + x - math.sqrt(r1) if r1 >= 0.0 else None
    p6 = 5.0 * x - math.sqrt(r1) - math.sqrt(ra) if r1 >= 0.0 and ra >= 0.0 else None
    if not huge:
        return p3, p4, p5, p6
    values = (p3 / _SCALE, p4 / _SCALE, p5 / _SCALE, p6 / _SCALE)  # all four exist here
    if math.inf in values:
        raise ValueError("side too large: a diagonal perimeter overflows")
    return values


# The nested pair's degenerate variant and its off-center notch.

def _case2_objectives(alpha: float) -> dict[str, Callable[[tuple[float, ...]], float]]:
    c = 4.0 * SQRT3 / 3.0

    def printed(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return L2 + c / L2 + 1.5 * L1 + c * alpha / L1

    def notch_from_l1(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return (
            (9.0 * L2 * L2 + 8.0 * SQRT3 + 3.0 * L1 * L1) / (6.0 * L2)
            + 1.5 * L1
            + c * alpha / L1
            - L1
        )

    def swapped(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return L2 + c * alpha / L2 + 1.5 * L1 + c / L1

    return {"printed": printed, "notch-from-L1": notch_from_l1, "swapped-volumes": swapped}


def case2_report(alpha: float) -> dict[str, dict[str, float | bool]]:
    """Minimize each reading of the degenerate variant over {L2 <= L1}.

    The source text for this variant is garbled, so all three readings
    are minimized and reported: the expression as printed (notch area
    taken from L2, joint term L2), the same with the notch taken from L1,
    and the swapped-volume version.  Each entry carries the minimizer and
    whether it sits on the L2 = L1 diagonal.  The printed reading sits there
    for every alpha in (0, 1]: it is separable convex, and its unconstrained
    minimizer violates L2 <= L1.
    """
    check_alpha(alpha)
    objectives = _case2_objectives(alpha)
    report: dict[str, dict[str, float | bool]] = {}
    for name, fn in objectives.items():
        # the inner cell holds volume alpha except in the swapped reading
        cap = 8.0 * SQRT3 * (1.0 if name == "swapped-volumes" else alpha) / 3.0
        hi = math.sqrt(cap)
        lo = hi * 1e-3

        def below_diagonal(p: tuple[float, ...]) -> float:
            if p[1] > p[0] * (1.0 + 1e-12):
                raise ValueError("outside L2 <= L1")
            return fn(p)

        (l1, l2), value = grid_refine_min(
            below_diagonal, (lo, lo), (hi, hi), grid=64, refine_iters=60,
            directions=[(1.0, 1.0)],
        )
        report[name] = {
            "L1": l1,
            "L2": l2,
            "value": value,
            "diagonal": abs(l2 - l1) <= DIAG_TOL * (1.0 + l1),
        }
    return report


def notch_skew_perimeter(L1: float, L2: float, alpha: float, delta: float) -> float:
    """Welded-pair perimeter with the notch slid off-center by delta.

    The wedge sides become (L1 - delta)/2 and (L1 + delta)/2; the inner
    cell's glued sides track them, its volume is restored through
    x1 + x4, and the outer's through y1.  The exact expansion is
    rho1 + delta^2 (L2 - 2 L1)/(4 L1 L2), so the symmetric notch is a
    strict local minimum iff L2 >= 2 L1.
    """
    check_alpha(alpha)
    if not (math.isfinite(L1) and math.isfinite(L2) and math.isfinite(delta)):
        raise ValueError("notch skew needs finite L1, L2 and delta")
    if L1 < MIN_SIDE:
        raise ValueError(f"sides must be >= {MIN_SIDE}")
    if abs(delta) >= min(L1, L2 - L1):
        raise ValueError("skew out of range")
    w60 = (L1 - delta) / 2.0
    w120 = (L1 + delta) / 2.0
    # group the symmetric product so delta -> -delta is exact in floats
    vp = 1.0 + SQRT3 * (w60 * w120) / 2.0
    y1 = (8.0 * SQRT3 * vp - 3.0 * L2 * L2) / (12.0 * L2)
    # a term overflows only where L2 > L1 + |delta| exceeds 1e153, and there
    # 3 (L2^2 - L1^2 + delta^2) > 8 sqrt(3) puts the exact y1 below 0, so the
    # -inf or nan it reads as is infeasible too
    if not y1 >= 0.0:
        raise ValueError("infeasible: span too large for the volume")
    s = (
        4.0 * SQRT3 * alpha / (3.0 * L1)
        - L1 / 2.0
        + delta * delta / (4.0 * L1)
    )
    x1 = s / 2.0 + delta / 4.0
    x4 = s / 2.0 - delta / 4.0
    if x1 < 0.0 or x4 < 0.0:
        raise ValueError("infeasible: inner cell sides collapse")
    return (2.0 * y1 + 2.0 * L2) + (s + 2.0 * L1) - L1


# ---------------------------------------------------------------- checks


def _chk_iso_closed_form(rng: Lcg) -> tuple[bool, str]:
    L0, P = singlebubble.isoperimetric_optimum(1.0)
    want = 2.0 * math.sqrt(2.0) * 3.0 ** 0.25
    if abs(P - want) > 1e-12:
        return False, f"perimeter {fmt(P)} != {fmt(want)}"
    poly = singlebubble.solve_fixed_side(L0, 1.0).polygon()
    lens = [hex_norm((q.x - p.x, q.y - p.y)) for p, q in poly.edges()]
    if len(lens) != 6 or max(lens) - min(lens) > 1e-12:
        return False, f"hexagon not regular: sides {[fmt(v) for v in lens]}"
    return True, ""


def _chk_regime_continuity(rng: Lcg) -> tuple[bool, str]:
    for _ in range(5):
        V = rng.uniform(0.5, 2.0)
        Lb = math.sqrt(16.0 * V / (3.0 * SQRT3))
        gap = abs(singlebubble.perimeter_P1(Lb, V) - singlebubble.perimeter_P2(Lb, V))
        if gap > 1e-9:
            return False, f"P1/P2 differ by {fmt(gap)} at the regime boundary, V={fmt(V)}"
    return True, ""


def _chk_small_alpha(rng: Lcg) -> tuple[bool, str]:
    for _ in range(8):
        a = rng.uniform(1e-3, 0.124)
        sol = kissing.kissing_minimum(a)
        want = kissing_perimeter(sol.L1, sol.L2, a)
        if abs(sol.perimeter - want) > 1e-12:
            return False, f"closed form off by {fmt(sol.perimeter - want)} at alpha={fmt(a)}"
    return True, ""


def _chk_p3_dominance(rng: Lcg) -> tuple[bool, str]:
    for _ in range(6):
        a = rng.uniform(0.3, 1.0)
        Lmax = math.sqrt(16.0 * a / (3.0 * SQRT3))
        for i in range(8):
            L = Lmax * (0.4 + 0.59 * i / 7.0)
            p3, _, p5, p6 = equal_perimeters(L, a)
            direct = kissing_perimeter(L, L, a)
            if abs(p3 - direct) > 1e-9:
                return False, f"P3 disagrees with the glued-pair perimeter at L={fmt(L)}, alpha={fmt(a)}"
            if p5 is not None and p3 > p5 + 1e-12:
                return False, f"P3 > P5 at L={fmt(L)}, alpha={fmt(a)}"
            if p6 is not None and p3 > p6 + 1e-12:
                return False, f"P3 > P6 at L={fmt(L)}, alpha={fmt(a)}"
    return True, ""


def _chk_p2_exceeds_p1(rng: Lcg) -> tuple[bool, str]:
    for _ in range(10):
        V = rng.uniform(0.5, 2.0)
        Lmin = 2.0 * math.sqrt(V) / 3.0 ** 0.25
        L = Lmin * (1.0 + 1.5 * rng.uniform())
        if singlebubble.perimeter_P2(L, V) <= singlebubble.perimeter_P1(L, V) - 1e-12:
            return False, f"P2 <= P1 at L={fmt(L)}, V={fmt(V)}"
    return True, ""


# P(alpha), ascending: the one irreducible factor left when the perimeter is
# eliminated between the nested and P3 stationarity systems
ALPHA0_POLY = (
    1095687, -81547884, 19096099002, 657933778368, 16253223663543, -123958224025928,
    -124486600624726, 125755117235708, -33340482374308, -75906003042516, 89002434477994,
    -16622903296072, -6990247398729, -692203257128, -19104023414, 253374652, 8645447,
)


def alpha0_poly_sign(x: Fraction) -> int:
    """Sign of ALPHA0_POLY at x, exactly: of d^16 P(n/d) in integers."""
    n, d = x.as_integer_ratio()
    acc, dk = 0, 1
    for c in reversed(ALPHA0_POLY):
        acc, dk = acc * n + c * dk, dk * d
    return (acc > 0) - (acc < 0)


def alpha0_certificate(a0: float) -> tuple[bool, str]:
    """Whether a0 is the double nearest alpha0, where g = embedded_value -
    kissing_value changes sign.

    alpha0 is the one root in (0, 1] of ALPHA0_POLY (a Sturm count, in the
    tests).  That assumes the factors kept from each elimination are those
    that vanish on the solver's branches, that embedded._L1_CAP does not
    bind on (0, 1], and the paper's reduction to these two families.  P
    changing sign across a0 +- ulp(a0)/2, evaluated exactly, puts its root
    within half an ulp of a0; |g(a0)| <= 1e-13, against g's slope of about
    0.36, ties that root to the solver's closed forms.
    """
    x, half = Fraction(a0), Fraction(math.ulp(a0)) / 2
    if alpha0_poly_sign(x - half) * alpha0_poly_sign(x + half) >= 0:
        return False, f"P does not change sign within half an ulp of alpha0={fmt(a0)}"
    gap = abs(solver.embedded_value(a0) - solver.kissing_value(a0))
    if gap > 1e-13:
        return False, f"perimeter gap {fmt(gap)} at alpha0"
    return True, ""


def _chk_alpha0(rng: Lcg) -> tuple[bool, str]:
    a0 = solver.find_alpha0()
    if not 0.147 <= a0 <= 0.157:
        return False, f"alpha0={fmt(a0)} outside [0.147, 0.157]"
    return alpha0_certificate(a0)


# The degree-8 route: P3's stationarity polynomial in L, built from its own
# algebra, apart from the solver's quartic in L^2 (kissing.p3_minimizer).


def horner(cs: tuple[float, ...], x: float) -> float:
    """Value at x of the polynomial with ascending coefficients cs."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def build_degree8(alpha: float) -> tuple[float, ...]:
    """Radical-free stationarity polynomial for the P3 branch, as its 9
    ascending coefficients c0..c8.

    With Q = 9L^4 + 12 sqrt(3)(1+alpha) L^2 + 48 alpha and
    R = 6L^4 + 4 sqrt(3)(1+alpha) L^2, clearing radicals in dP3/dL = 0
    gives p = 4 L^4 Q / 441 - (Q/49 - R/21)^2, an even polynomial whose
    positive real root is the P3 minimizer.

    That root is the only one: with s = sqrt(3)(1+alpha), Q/49 - R/21 =
    48 alpha/49 + (8s/147) L^2 - (5/49) L^4, so c0 = -(48 alpha/49)^2 <= 0,
    c2 = -2 (48 alpha/49)(8s/147) < 0, c6 = 48s/441 + 240s/21609 > 0,
    c8 = 171/2401 > 0, c4 has either sign and the odd coefficients are 0.
    One sign change means one positive root by Descartes' rule, for every
    alpha > 0.  In floats c0 underflows to 0 below alpha ~ 1e-161 and c2
    below ~ 3e-323, where c4 ~ -(8 sqrt(3)/147)^2 < 0 keeps the one change.
    """
    check_alpha(alpha)
    s = SQRT3 * (1.0 + alpha)
    q = (48.0 * alpha, 0.0, 12.0 * s, 0.0, 9.0)
    r = (0.0, 0.0, 4.0 * s, 0.0, 6.0)
    term1 = (0.0,) * 4 + tuple(4.0 / 441.0 * qi for qi in q)
    inner = [qi / 49.0 - ri / 21.0 for qi, ri in zip(q, r)]
    # inner * inner; every odd coefficient sums products with an exact
    # 0.0 factor, so it stays exactly 0.0.  The products are added left to
    # right, not by sum(), whose float result changed in Python 3.12
    term2 = []
    for k in range(9):
        acc = 0.0
        for i in range(max(0, k - 4), min(k, 4) + 1):
            acc += inner[i] * inner[k - i]
        term2.append(acc)
    return tuple(t1 - t2 for t1, t2 in zip(term1, term2))


def degree8_certificate(alpha: float, L: float) -> tuple[bool, str]:
    """Whether build_degree8(alpha) alone certifies L as the P3 minimizer:
    one coefficient sign change (so one positive root, by Descartes' rule),
    |p(L)| small against the largest coefficient, and p rising through 0
    between L - 1e-8 and L + 1e-8, which puts that root within 1e-8 of L."""
    cs = build_degree8(alpha)
    signs = [c > 0.0 for c in cs if c != 0.0]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes != 1:
        return False, f"{changes} coefficient sign changes at alpha={fmt(alpha)}, expected 1"
    value = horner(cs, L)
    if abs(value) > 1e-6 * max(abs(c) for c in cs):
        return False, f"|p(L*)|={fmt(abs(value))} too large at alpha={fmt(alpha)}"
    if not horner(cs, L - 1e-8) < 0.0 < horner(cs, L + 1e-8):
        return False, f"no positive root near L* at alpha={fmt(alpha)}"
    return True, ""


def _chk_degree8(rng: Lcg) -> tuple[bool, str]:
    for _ in range(6):
        a = rng.uniform(0.13, 1.0)
        ok, detail = degree8_certificate(a, kissing.p3_minimizer(a)[0])
        if not ok:
            return False, detail
    return True, ""


def _chk_rho_route_order(rng: Lcg) -> tuple[bool, str]:
    # solve evaluates rho1 only, so the exclusion is checked down to the
    # smallest ratios too: every other draw is log-uniform in [1e-300, 1e-2]
    for k in range(8):
        a = rng.uniform(0.01, 1.0) if k % 2 == 0 else 10.0 ** rng.uniform(-300.0, -2.0)
        first = embedded.minimize_rho1(a)[2]
        second = embedded.rho2_minimum(a)[2]
        if first > second + 1e-12:
            return False, f"nested route order violated at alpha={fmt(a)}"
    return True, ""


def _chk_geometry_roundtrip(rng: Lcg) -> tuple[bool, str]:
    alphas = [0.05, 0.5, 1.0, rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)]
    for a in alphas:
        result = solver.solve(a)
        for entry in result.solutions:
            va = polygon_area(entry.geometry_a)
            vb = polygon_area(entry.geometry_b)
            if abs(va - 1.0) > 1e-9 or abs(vb - a) > 1e-9:
                return False, f"volumes ({fmt(va)}, {fmt(vb)}) at alpha={fmt(a)}"
            total, joint = hexnorm.double_bubble_perimeter(
                entry.geometry_a, entry.geometry_b
            )
            if abs(total - result.candidates[entry.case]) > 1e-9:
                return False, f"measured perimeter {fmt(total)} at alpha={fmt(a)}"
            if abs(joint - entry.joint_length) > 1e-9:
                return False, f"measured joint {fmt(joint)} at alpha={fmt(a)}"
    return True, ""


def _chk_oracle_fixed_side(rng: Lcg) -> tuple[bool, str]:
    for _ in range(2):
        L = rng.uniform(0.3, 1.6)
        V = rng.uniform(0.5, 1.5)
        objective, lower, upper = _single_bubble_objective(L, V)
        # the volume constraint pins the four-sided optimum on a slanted
        # boundary; axis moves alone wedge there, diagonals slide along it
        _, got = grid_refine_min(
            objective, lower, upper, grid=48, refine_iters=50,
            directions=[(1.0, -1.0), (1.0, 1.0)],
        )
        want = singlebubble.solve_fixed_side(L, V).perimeter
        if abs(got - want) > 1e-5:
            return False, f"oracle {fmt(got)} vs closed form {fmt(want)} at L={fmt(L)}, V={fmt(V)}"
    return True, ""


def _oracle_agrees(alphas, objective_for, minimum, label, directions=None) -> tuple[bool, str]:
    """The grid oracle on objective_for(a) lands within 1e-5 of minimum(a)."""
    for a in alphas:
        objective, lower, upper = objective_for(a)
        _, got = grid_refine_min(
            objective, lower, upper, grid=64, refine_iters=60, directions=directions
        )
        want = minimum(a)
        if abs(got - want) > 1e-5:
            return False, f"oracle {fmt(got)} vs {label} {fmt(want)} at alpha={fmt(a)}"
    return True, ""


def _chk_oracle_kissing(rng: Lcg) -> tuple[bool, str]:
    # the equal-side optimum sits on the min(L1, L2) kink, where every
    # diagonal point is axis-stationary; descend along the kink too
    alphas = (rng.uniform(0.2, 1.0), rng.uniform(0.01, 0.12), 0.5)
    return _oracle_agrees(
        alphas, _kissing_objective, lambda a: kissing.kissing_minimum(a).perimeter,
        "closed form", directions=[(1.0, 1.0)],
    )


def _chk_oracle_embedded(rng: Lcg) -> tuple[bool, str]:
    alphas = (rng.uniform(0.05, 1.0), rng.uniform(0.02, 0.15), 0.5)
    return _oracle_agrees(
        alphas, _embedded_objective, lambda a: embedded.minimize_rho1(a)[2], "convex minimum"
    )


def _perturbation_holds(rng: Lcg, alphas, minimum, build, label) -> tuple[bool, str]:
    """No cells build(L1, L2, a) within 1e-3 of minimum(a) undercut it."""
    for a in alphas:
        sol = minimum(a)

        def rebuild(params: tuple[float, ...]) -> tuple[hexnorm.PolyChain, hexnorm.PolyChain]:
            return build(params[0], params[1], a)[:2]

        params = (sol.L1, sol.L2)
        ok = perturb_local_min(
            *rebuild(params), rebuild, params, trials=500, eps=1e-3, seed=rng.next_u64() & 0xFFFF
        )
        if not ok:
            return False, f"perturbation undercuts the {label} minimum at alpha={fmt(a)}"
    return True, ""


def _chk_perturb_embedded(rng: Lcg) -> tuple[bool, str]:
    alphas = (0.05, rng.uniform(0.02, 0.15))
    return _perturbation_holds(
        rng, alphas, embedded.minimize_rho1,
        lambda L1, L2, a: embedded.embedded_geometry(L1, L2, 1.0, a), "nested",
    )


def _chk_perturb_kissing(rng: Lcg) -> tuple[bool, str]:
    alphas = (1.0, rng.uniform(0.2, 1.0))
    return _perturbation_holds(
        rng, alphas, kissing.kissing_minimum, kissing.kissing_geometry, "glued"
    )


def _chk_sign_change_scan(rng: Lcg) -> tuple[bool, str]:
    changes = 0
    prev = 0
    for i in range(1000):
        a = 0.01 + (1.0 - 0.01) * i / 999.0
        g = solver.embedded_value(a) - solver.kissing_value(a)
        sign = (g > 0.0) - (g < 0.0)
        if sign != 0 and prev != 0 and sign != prev:
            changes += 1
        if sign != 0:
            prev = sign
    if changes != 1:
        return False, f"{changes} sign changes on the scan, expected 1"
    return True, ""


def _chk_sweep_monotone(rng: Lcg) -> tuple[bool, str]:
    results = solver.sweep(0.02, 1.0, 60)
    flips = 0
    for r, s in zip(results, results[1:]):
        if s.perimeter < r.perimeter - 1e-12:
            return False, f"perimeter decreases between alpha={fmt(r.alpha)} and {fmt(s.alpha)}"
        if s.case != r.case:
            flips += 1
    if flips != 1:
        return False, f"case column flips {flips} times, expected 1"
    for r in results:
        bound = (
            singlebubble.isoperimetric_optimum(1.0)[1]
            + singlebubble.isoperimetric_optimum(r.alpha)[1]
        )
        if r.perimeter >= bound:
            return False, f"no gain over separate cells at alpha={fmt(r.alpha)}"
    return True, ""


_QUICK_CHECKS: list[tuple[str, Callable[[Lcg], tuple[bool, str]]]] = [
    ("iso-closed-form", _chk_iso_closed_form),
    ("regime-continuity", _chk_regime_continuity),
    ("small-alpha-closed-form", _chk_small_alpha),
    ("p3-dominance", _chk_p3_dominance),
    ("p2-exceeds-p1", _chk_p2_exceeds_p1),
    ("alpha0-bracket", _chk_alpha0),
    ("degree8-root", _chk_degree8),
    ("rho-route-order", _chk_rho_route_order),
    ("geometry-roundtrip", _chk_geometry_roundtrip),
    ("oracle-fixed-side", _chk_oracle_fixed_side),
]

_FULL_CHECKS = _QUICK_CHECKS + [
    ("oracle-kissing", _chk_oracle_kissing),
    ("oracle-embedded", _chk_oracle_embedded),
    ("perturb-embedded", _chk_perturb_embedded),
    ("perturb-kissing", _chk_perturb_kissing),
    ("sign-change-scan", _chk_sign_change_scan),
    ("sweep-monotone", _chk_sweep_monotone),
]


_SUITES = {"quick": _QUICK_CHECKS, "full": _FULL_CHECKS}


def run_verify(suite: str, seed: int, out, timings: Optional[dict[str, float]] = None) -> int:
    """Run a suite, print its transcript to out and return the exit code.
    A `timings` dict, when given, receives each check's wall time in seconds.
    An unknown suite name raises ValueError before anything is printed."""
    checks = _SUITES.get(suite)
    if checks is None:
        raise ValueError(f"unknown suite {suite!r}, expected one of: {', '.join(_SUITES)}")
    print("hexbubble verification", file=out)
    print(f"suite: {suite}", file=out)
    print(f"seed: {seed}", file=out)
    failures = 0
    for index, (name, check) in enumerate(checks):
        rng = Lcg(seed * 1000003 + index)
        start = time.perf_counter()
        try:
            ok, detail = check(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if timings is not None:
            timings[name] = time.perf_counter() - start
        if ok:
            print(f"PASS {name}", file=out)
        else:
            failures += 1
            print(f"FAIL {name}: {detail}", file=out)
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"result: {verdict} ({len(checks) - failures}/{len(checks)})", file=out)
    return 0 if failures == 0 else 1
