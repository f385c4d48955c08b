"""The nested pair: notched host, inner cell, volume routes, notch skew.

Run: python3 demos/demo_embedded.py
"""

from hexbubble.checks import notch_skew_perimeter
from hexbubble.embedded import (
    embedded_geometry,
    inner_hexagon,
    minimize_rho1,
    outer_notched,
    rho1_minimizer,
    rho1_optimal_L2,
    rho2_minimum,
)


def main() -> None:
    print("inner cell at width 1:")
    for V in (0.3, 0.5, 1.0):
        sides, perim = inner_hexagon(1.0, V)
        print(f"  V = {V}: sides = {tuple(round(s, 6) for s in sides)}, "
              f"boundary = {perim:.8f}")

    print()
    print("host cell with a width-1 notch, volume 1:")
    for L2 in (1.1, 1.3, rho1_optimal_L2(1.0)):
        sides, perim = outer_notched(1.0, L2, 1.0)
        print(f"  L2 = {L2:.6f}: sides = {tuple(round(s, 6) for s in sides)}, "
              f"boundary = {perim:.8f}")
    print("at the optimal L2 the horizontal side equals L2/2 exactly.")

    print()
    print("two volume assignments (host holds 1 vs host holds alpha):")
    print(f"{'alpha':>7}  {'host=1':>14}  {'host=alpha':>14}")
    for a in (0.1, 0.3, 2.0 / 3.0, 0.9, 1.0):
        v1 = rho1_minimizer(a)[1]
        v2 = rho2_minimum(a)[2]
        print(f"{a:7.4f}  {v1:14.10f}  {v2:14.10f}")
    print("the host always prefers the larger volume; at alpha = 1 the two")
    print("assignments coincide.")

    print()
    alpha = 0.1
    L1, L2, value = minimize_rho1(alpha)
    print(f"skewing the notch off-center at alpha = {alpha} "
          f"(L1 = {L1:.6f}, L2 = {L2:.6f}):")
    for delta in (0.0, 0.05, 0.1, 0.15):
        p = notch_skew_perimeter(L1, L2, alpha, delta)
        print(f"  delta = {delta:4.2f}: perimeter = {p:.12f}  (+{p - value:.3e})")
    print("the gain is exactly delta^2 (L2 - 2 L1)/(4 L1 L2); with L2 > 2 L1")
    print("the centered notch is a strict local minimum.")

    print()
    sol = minimize_rho1(alpha)
    print(f"full solution at alpha = {alpha}: perimeter = {sol.perimeter:.12f}")
    host, inner, _, _ = embedded_geometry(sol.L1, sol.L2, 1.0, alpha)
    print(f"  host vertices:  {len(host.vertices)}")
    print(f"  inner vertices: {len(inner.vertices)}")
    print("  (three vertices coincide: the notch mouth and wedge tip)")


if __name__ == "__main__":
    main()
