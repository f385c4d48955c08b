"""Case comparison and the phase transition.

For each volume ratio alpha the optimal pair is either the nested
(embedded) configuration or the glued (kissing) one; the embedded case
wins below a critical ratio alpha0 ~ 0.152 and the kissing case above
it.  alpha0 is located by bisection on the perimeter difference, which
changes sign exactly once on (0, 1).
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
    check_alpha(alpha)
    return min(
        embedded_mod.minimize_rho1(alpha)[2],
        embedded_mod.rho2_minimum(alpha)[2],
    )


def kissing_value(alpha: float) -> float:
    """Kissing-case optimal perimeter (no geometry construction)."""
    check_alpha(alpha)
    if alpha < kissing_mod.HANDOFF_ALPHA * (1.0 - kissing_mod.HANDOFF_TOL):
        return kissing_mod.small_alpha_closed_form(alpha)
    return kissing_mod.p3_minimizer(alpha)[1]


def _embedded_entry(sol: "embedded_mod.EmbeddedSolution") -> SolutionEntry:
    if sol.route == embedded_mod.ROUTE_RHO1:
        sides_a, sides_b = sol.outer_sides, sol.inner_sides
    else:
        sides_a, sides_b = sol.inner_sides, sol.outer_sides
    return SolutionEntry(
        CASE_EMBEDDED,
        sol.geometry_a,
        sol.geometry_b,
        sides_a,
        sides_b,
        sol.L1,
        sol.L2,
        sol.L1,  # the welded notch sides sum to L1
    )


def _kissing_entry(sol: "kissing_mod.KissingSolution") -> SolutionEntry:
    return SolutionEntry(
        CASE_KISSING,
        sol.geometry_a,
        sol.geometry_b,
        sol.sides_a,
        sol.sides_b,
        sol.L1,
        sol.L2,
        min(sol.L1, sol.L2),
    )


def solve(alpha: float) -> DoubleBubbleResult:
    """Optimal double bubble at ratio alpha; ties within 1e-9 report both.

    The comparison set always holds both cases; below the 1/8 handoff the
    kissing side is the unequal-candidate closed form, which is surfaced
    separately in `candidates`.
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
    raises if the bracket does not straddle the sign change.
    """

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


def build_figure_geometry(result: DoubleBubbleResult) -> tuple[PolyChain, PolyChain]:
    """Geometry pair of the result's first solution, re-anchored so cell
    A's leftmost-lowest vertex is the origin."""
    entry = result.solutions[0]
    anchor = min(entry.geometry_a.vertices, key=lambda v: (v.x, v.y))
    return (
        entry.geometry_a.translated(-anchor.x, -anchor.y),
        entry.geometry_b.translated(-anchor.x, -anchor.y),
    )
