"""Case comparison and the phase transition.

For each volume ratio alpha the optimal pair is either the nested
(embedded) configuration or the glued (kissing) one; the embedded case
wins below a critical ratio alpha0 ~ 0.152 and the kissing case above
it.  alpha0 is algebraic: the one root in (0, 1] of a degree-16 integer
polynomial, so find_alpha0 returns its correctly rounded value, ALPHA0,
and checks certifies that constant exactly.  Both cases' minima are
closed forms, so the solver path holds no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import embedded as embedded_mod
from . import kissing as kissing_mod
from .hexnorm import PolyChain
from .singlebubble import check_alpha

CASE_EMBEDDED = "embedded"
CASE_KISSING = "kissing"
CASE_BOTH = "both"

# perimeter agreement below this counts as a tie of the two cases
TIE_TOL = 1e-9

# the double nearest the crossover ratio alpha0 (0x1.383b7c892b3f6p-3)
ALPHA0 = 0.1524572114334714
ALPHA0_BRACKET = (0.1, 0.3)

FMT = "%.12g"  # every number in solve, sweep, iso and verify output


def fmt(x: float) -> str:
    return FMT % float(x)


# Frozen dataclasses whose hand-written __init__ fills __dict__ directly, where
# the generated one calls object.__setattr__ per field; the rest is generated.


@dataclass(frozen=True, init=False)
class SolutionEntry:
    case: str
    geometry_a: PolyChain
    geometry_b: PolyChain
    sides_a: tuple[float, ...]
    sides_b: tuple[float, ...]
    L1: float
    L2: float
    joint_length: float

    def __init__(self, case, geometry_a, geometry_b, sides_a, sides_b, L1, L2, joint_length):
        data = self.__dict__
        data["case"] = case
        data["geometry_a"] = geometry_a
        data["geometry_b"] = geometry_b
        data["sides_a"] = sides_a
        data["sides_b"] = sides_b
        data["L1"] = L1
        data["L2"] = L2
        data["joint_length"] = joint_length


@dataclass(frozen=True, init=False)
class DoubleBubbleResult:
    alpha: float
    case: str
    perimeter: float
    solutions: tuple[SolutionEntry, ...]
    joint_length: float  # of solutions[0]
    candidates: dict[str, float]

    def __init__(self, alpha, case, perimeter, solutions, joint_length, candidates):
        data = self.__dict__
        data["alpha"] = alpha
        data["case"] = case
        data["perimeter"] = perimeter
        data["solutions"] = solutions
        data["joint_length"] = joint_length
        data["candidates"] = candidates


def embedded_value(alpha: float) -> float:
    """Embedded-case optimal perimeter (no record, no geometry)."""
    return embedded_mod.rho1_minimizer(alpha)[1]


def kissing_value(alpha: float) -> float:
    """Kissing-case optimal perimeter (no record, no geometry)."""
    return kissing_mod.kissing_value(alpha)


def _embedded_entry(L1: float, alpha: float) -> SolutionEntry:
    # cell A, holding volume 1, is the outer cell; the welded notch sides
    # sum to L1, the joint length
    L2 = embedded_mod.rho1_optimal_L2(L1)
    cells = embedded_mod.embedded_geometry(L1, L2, 1.0, alpha)
    return SolutionEntry(CASE_EMBEDDED, *cells, L1, L2, L1)


def _kissing_entry(sol: kissing_mod.KissingSolution, alpha: float) -> SolutionEntry:
    cells = kissing_mod.kissing_geometry(sol.L1, sol.L2, alpha)
    return SolutionEntry(CASE_KISSING, *cells, sol.L1, sol.L2, min(sol.L1, sol.L2))


def solve(alpha: float) -> DoubleBubbleResult:
    """Optimal double bubble at ratio alpha; ties within 1e-9 report both.

    `candidates` holds both cases' minima; the nested host width and the
    cells are computed only for the reported entries.  Each case's minimum
    checks the ratio; the nested one runs first, so a bad alpha raises there.
    """
    L1, emb = embedded_mod.rho1_minimizer(alpha)
    kis = kissing_mod.kissing_minimum(alpha)
    diff = emb - kis.perimeter
    if abs(diff) <= TIE_TOL:
        case = CASE_BOTH
        entries = (_embedded_entry(L1, alpha), _kissing_entry(kis, alpha))
    elif diff < 0.0:
        case = CASE_EMBEDDED
        entries = (_embedded_entry(L1, alpha),)
    else:
        case = CASE_KISSING
        entries = (_kissing_entry(kis, alpha),)
    return DoubleBubbleResult(
        alpha,
        case,
        min(emb, kis.perimeter),
        entries,
        entries[0].joint_length,
        {CASE_EMBEDDED: emb, CASE_KISSING: kis.perimeter},
    )


def find_alpha0(lo: float = ALPHA0_BRACKET[0], hi: float = ALPHA0_BRACKET[1]) -> float:
    """The crossover ratio: embedded below, kissing above.

    Returns ALPHA0, the double nearest alpha0, once both ends pass
    check_alpha and lo < ALPHA0 < hi; otherwise the bracket does not
    straddle the transition and ValueError is raised.  No perimeter is
    evaluated.  alpha0 is the one root in (0, 1] of a degree-16 integer
    polynomial P (ALPHA0_POLY in checks), and ALPHA0 is its correctly
    rounded value: P changes sign across ALPHA0 +- ulp/2, which
    checks.alpha0_certificate verifies exactly.
    """
    check_alpha(lo)
    check_alpha(hi)
    if not lo < ALPHA0 < hi:
        raise ValueError("bracket does not straddle the transition")
    return ALPHA0


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list[DoubleBubbleResult]:
    """solve() on an inclusive grid of `steps` ratios."""
    check_alpha(alpha_min)
    check_alpha(alpha_max)
    if alpha_min > alpha_max:
        raise ValueError("alpha_min must not exceed alpha_max")
    # bool is an int subclass, so True would otherwise pass as one step
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError("steps must be a positive integer")
    if steps == 1:
        alphas = [alpha_min]
    else:
        span = alpha_max - alpha_min
        # the formula can miss alpha_max by an ulp, so the grid ends on it exactly
        alphas = [alpha_min + span * i / (steps - 1) for i in range(steps - 1)] + [alpha_max]
    return [solve(a) for a in alphas]
