"""The glued pair: candidate table, the 1/8 handoff, the polynomial route.

Run: python3 demos/demo_kissing.py
"""

import math

from hexbubble.checks import build_degree8, horner, unequal_candidates
from hexbubble.kissing import kissing_minimum, p3_minimizer, small_alpha_closed_form


def main() -> None:
    alpha = 0.05
    print(f"stationary unequal-side candidates at alpha = {alpha}:")
    print(f"{'row':>4}  {'L1':>10}  {'L2':>10}  admissible")
    for i, row in enumerate(unequal_candidates(alpha), start=1):
        print(f"{i:>4}  {row.L1:10.6f}  {row.L2:10.6f}  {row.admissible}")
    print("rows 2 and 6 are the same configuration with the cells' roles")
    print("swapped; both drop out at alpha = 1/8.")

    print()
    print("closed form below the handoff: 2 3^(1/4) (sqrt(2) + sqrt(alpha))")
    for a in (0.02, 0.05, 0.1, 0.124):
        sol = kissing_minimum(a)
        print(
            f"  alpha = {a:<6} perimeter = {sol.perimeter:.12f} "
            f"(branch {sol.branch}, closed form {small_alpha_closed_form(a):.12f})"
        )

    print()
    print("across the handoff the branch switches but nothing jumps:")
    for a in (0.125 - 1e-6, 0.125, 0.125 + 1e-6):
        sol = kissing_minimum(a)
        print(f"  alpha = {a:.6f}  L1 = {sol.L1:.8f}  L2 = {sol.L2:.8f}  "
              f"P = {sol.perimeter:.10f}  [{sol.branch}]")
    print(f"  collapse side sqrt(2 sqrt(3))/3 = {math.sqrt(2.0 * math.sqrt(3.0)) / 3.0:.8f}")

    print()
    alpha = 1.0
    L, P = p3_minimizer(alpha)
    print(f"equal volumes: diagonal minimizer L* = {L:.12f}, perimeter = {P:.12f}")
    cs = build_degree8(alpha)
    signs = " ".join("0" if c == 0.0 else "+" if c > 0.0 else "-" for c in cs)
    print("radical-free route: the stationarity polynomial (degree 8, even)")
    print(f"  coefficients: {[round(c, 8) for c in cs]}")
    print(f"  signs c0..c8: {signs}  (one change: one positive root, by Descartes)")
    print(f"  p(L* - 1e-8) = {horner(cs, L - 1e-8):+.3e}")
    print(f"  p(L* + 1e-8) = {horner(cs, L + 1e-8):+.3e}  (so the root is within 1e-8 of L*)")
    print(f"  p(L*) = {horner(cs, L):.3e}  (zero up to rounding)")
    print(f"  L*^2 vs 12 sqrt(3)/19: {L * L:.12f} vs {12.0 * math.sqrt(3.0) / 19.0:.12f}")


if __name__ == "__main__":
    main()
