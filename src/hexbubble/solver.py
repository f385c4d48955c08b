"""Case comparison and the phase transition.

For each volume ratio alpha the optimal pair is either the nested
(embedded) configuration or the glued (kissing) one; the embedded case
wins below a critical ratio alpha0 ~ 0.152 and the kissing case above
it.  alpha0 is located by bisection on the perimeter difference, which
changes sign exactly once on (0, 1).
"""

from __future__ import annotations

import math
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

ALPHA0_BRACKET = (0.1, 0.3)
ALPHA0_TOL = 1e-9


@dataclass(frozen=True)
class SolutionEntry:
    case: str
    geometry_a: PolyChain
    geometry_b: PolyChain
    sides_a: tuple[float, ...]
    sides_b: tuple[float, ...]
    L1: float
    L2: float
    joint_length: float


@dataclass(frozen=True)
class DoubleBubbleResult:
    alpha: float
    case: str
    perimeter: float
    solutions: tuple[SolutionEntry, ...]
    joint_length: float  # of solutions[0]
    candidates: dict[str, float]


def embedded_value(alpha: float) -> float:
    """Embedded-case optimal perimeter (no geometry construction)."""
    return embedded_mod.embedded_minimum(alpha).perimeter


def kissing_value(alpha: float) -> float:
    """Kissing-case optimal perimeter (no geometry construction)."""
    return kissing_mod.kissing_minimum(alpha).perimeter


def _embedded_entry(sol: embedded_mod.EmbeddedSolution) -> SolutionEntry:
    # cell A holds volume 1: the outer cell on the rho1 route, else the inner
    rho1 = sol.route == embedded_mod.ROUTE_RHO1
    outer_volume, inner_volume = (1.0, sol.alpha) if rho1 else (sol.alpha, 1.0)
    outer, inner = embedded_mod.embedded_geometry(
        sol.L1, sol.L2, outer_volume, inner_volume
    )
    outer_sides, _ = embedded_mod.outer_notched(sol.L1, sol.L2, outer_volume)
    inner_sides, _ = embedded_mod.inner_hexagon(sol.L1, inner_volume)
    if rho1:
        cells = (outer, inner, outer_sides, inner_sides)
    else:
        cells = (inner, outer, inner_sides, outer_sides)
    # the welded notch sides sum to L1, the joint length
    return SolutionEntry(CASE_EMBEDDED, *cells, sol.L1, sol.L2, sol.L1)


def _kissing_entry(sol: kissing_mod.KissingSolution) -> SolutionEntry:
    cells = kissing_mod.kissing_geometry(sol.L1, sol.L2, sol.alpha)
    return SolutionEntry(CASE_KISSING, *cells, sol.L1, sol.L2, min(sol.L1, sol.L2))


def solve(alpha: float) -> DoubleBubbleResult:
    """Optimal double bubble at ratio alpha; ties within 1e-9 report both.

    The comparison set always holds both cases; below the 1/8 handoff the
    kissing side is the unequal candidate, whose closed form is surfaced
    separately in `candidates`.  Cells are built only for the reported
    entries.
    """
    check_alpha(alpha)
    emb = embedded_mod.embedded_minimum(alpha)
    kis = kissing_mod.kissing_minimum(alpha)
    candidates: dict[str, float] = {
        CASE_EMBEDDED: emb.perimeter,
        CASE_KISSING: kis.perimeter,
    }
    if kis.branch == kissing_mod.BRANCH_UNEQUAL:
        candidates["kissing-closed-form"] = kissing_mod.small_alpha_closed_form(alpha)
    diff = emb.perimeter - kis.perimeter
    if abs(diff) <= TIE_TOL:
        case = CASE_BOTH
        entries = (_embedded_entry(emb), _kissing_entry(kis))
    elif diff < 0.0:
        case = CASE_EMBEDDED
        entries = (_embedded_entry(emb),)
    else:
        case = CASE_KISSING
        entries = (_kissing_entry(kis),)
    return DoubleBubbleResult(
        alpha,
        case,
        min(emb.perimeter, kis.perimeter),
        entries,
        entries[0].joint_length,
        candidates,
    )


def find_alpha0(
    lo: float = ALPHA0_BRACKET[0],
    hi: float = ALPHA0_BRACKET[1],
    tol: float = ALPHA0_TOL,
) -> float:
    """The crossover ratio: embedded below, kissing above.

    Bisects the difference embedded_value - kissing_value, which is
    negative at the bracket's left end and positive at its right end;
    raises if the bracket does not straddle the sign change, or if tol is
    not positive and finite (the bisection could not reach it).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")

    def g(a: float) -> float:
        return embedded_value(a) - kissing_value(a)

    glo, ghi = g(lo), g(hi)
    if not (glo < 0.0 < ghi):
        raise ValueError("bracket does not straddle the transition")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list[DoubleBubbleResult]:
    """solve() on an inclusive grid of `steps` ratios."""
    check_alpha(alpha_min)
    check_alpha(alpha_max)
    if alpha_min > alpha_max:
        raise ValueError("alpha_min must not exceed alpha_max")
    if steps < 1:
        raise ValueError("steps must be positive")
    if steps == 1:
        alphas = [alpha_min]
    else:
        span = alpha_max - alpha_min
        alphas = [alpha_min + span * i / (steps - 1) for i in range(steps)]
    return [solve(a) for a in alphas]
