"""Command-line surface: solve, sweep, verify, render, iso.

Numeric output carries 12 significant digits everywhere; JSON payloads
store numbers as decimal strings so snapshots do not depend on float
repr quirks.  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error, 3 I/O error, 141 stdout closed by its reader.  HEXBUBBLE_SEED,
when set, overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Optional, Sequence

from . import embedded, hexnorm, kissing, singlebubble, solver
from .hexnorm import PlanePoint, PolyChain, hex_norm, polygon_area
from .oracle import BoxSpec, Lcg, grid_refine_min, perturb_local_min

FMT = "%.12g"
SVG_SCALE = 100.0  # SVG user units per plane unit; also stated in the file header
SVG_TITLE_BAND = 26.0
SVG_GAP = 24.0
SEED_ENV = "HEXBUBBLE_SEED"


def _fmt(x: float) -> str:
    return FMT % float(x)


def _short(x: float) -> str:
    return "%.6g" % float(x)


# ---------------------------------------------------------------- records


def _solution_block(entry: solver.SolutionEntry) -> dict:
    return {
        "case": entry.case,
        "L1": _fmt(entry.L1),
        "L2": _fmt(entry.L2),
        "joint_length": _fmt(entry.joint_length),
        "sides_a": [_fmt(s) for s in entry.sides_a],
        "sides_b": [_fmt(s) for s in entry.sides_b],
        "vertices_a": [[_fmt(v.x), _fmt(v.y)] for v in entry.geometry_a.vertices],
        "vertices_b": [[_fmt(v.x), _fmt(v.y)] for v in entry.geometry_b.vertices],
    }


def output_record(result: solver.DoubleBubbleResult) -> dict:
    """JSON-ready record; every number is a 12-significant-digit string."""
    first = result.solutions[0]
    return {
        "alpha": _fmt(result.alpha),
        "case": result.case,
        "perimeter": _fmt(result.perimeter),
        "L1": _fmt(first.L1),
        "L2": _fmt(first.L2),
        "joint_length": _fmt(result.joint_length),
        "solutions": [_solution_block(e) for e in result.solutions],
    }


def _text_report(result: solver.DoubleBubbleResult) -> str:
    lines = [
        f"alpha      = {_fmt(result.alpha)}",
        f"case       = {result.case}",
        f"perimeter  = {_fmt(result.perimeter)}",
        f"joint      = {_fmt(result.joint_length)}",
        "candidates = "
        + " | ".join(f"{k} {_fmt(v)}" for k, v in sorted(result.candidates.items())),
    ]
    for i, e in enumerate(result.solutions, start=1):
        lines.append(f"solution {i}: {e.case}")
        lines.append(f"  L1 = {_fmt(e.L1)}   L2 = {_fmt(e.L2)}   joint = {_fmt(e.joint_length)}")
        lines.append("  sides A    = " + ", ".join(_fmt(s) for s in e.sides_a))
        lines.append("  sides B    = " + ", ".join(_fmt(s) for s in e.sides_b))
        lines.append(
            "  vertices A = "
            + "; ".join(f"({_fmt(v.x)}, {_fmt(v.y)})" for v in e.geometry_a.vertices)
        )
        lines.append(
            "  vertices B = "
            + "; ".join(f"({_fmt(v.x)}, {_fmt(v.y)})" for v in e.geometry_b.vertices)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------- svg


def _shared_segments(a: PolyChain, b: PolyChain) -> list[tuple[PlanePoint, PlanePoint]]:
    """Boundary stretches the chains share, in any direction; unlike
    double_bubble_perimeter this draws a non-lattice joint instead of raising."""
    segs = []
    rows = a._rows
    for i, _, lo, hi in hexnorm._contacts(rows, b._rows)[1]:
        x, y, _, _, _, _, _, _, ux, uy, _ = rows[i]
        segs.append((PlanePoint(x + lo * ux, y + lo * uy), PlanePoint(x + hi * ux, y + hi * uy)))
    return segs


def _centroid(chain: PolyChain) -> tuple[float, float]:
    xs = [v.x for v in chain.vertices]
    ys = [v.y for v in chain.vertices]
    return sum(xs) / len(xs), sum(ys) / len(ys)


class _Panel:
    """One framed drawing: a few polygons, highlighted joint, edge labels."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.polys: list[tuple[PolyChain, str]] = []
        self.joint: list[tuple[PlanePoint, PlanePoint]] = []

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [v.x for chain, _ in self.polys for v in chain.vertices]
        ys = [v.y for chain, _ in self.polys for v in chain.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def _panel_svg(panel: _Panel, off_x: float) -> tuple[str, float, float]:
    minx, miny, maxx, maxy = panel.bounds()
    w = (maxx - minx) * SVG_SCALE
    h = (maxy - miny) * SVG_SCALE
    margin = 0.05 * max(w, h) + 14.0  # 5 percent plus room for labels
    width = w + 2 * margin
    height = h + 2 * margin + SVG_TITLE_BAND

    def to_svg(p: PlanePoint) -> tuple[float, float]:
        return (
            off_x + margin + (p.x - minx) * SVG_SCALE,
            SVG_TITLE_BAND + margin + (maxy - p.y) * SVG_SCALE,
        )

    parts = [
        f'<text x="{off_x + width / 2:.2f}" y="{SVG_TITLE_BAND - 8:.2f}" '
        f'text-anchor="middle" font-size="14" fill="#222">{panel.title}</text>'
    ]
    for chain, color in panel.polys:
        pts = " ".join("%.2f,%.2f" % to_svg(v) for v in chain.vertices)
        parts.append(
            f'<polygon points="{pts}" fill="{color}" fill-opacity="0.12" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    for s1, s2 in panel.joint:
        x1, y1 = to_svg(s1)
        x2, y2 = to_svg(s2)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#2ca02c" stroke-width="5" stroke-linecap="round" opacity="0.85"/>'
        )
    # edge labels: D-length at the midpoint, nudged away from the centroid
    seen: set[tuple[int, int]] = set()
    for chain, _ in panel.polys:
        cx, cy = _centroid(chain)
        for p1, p2 in chain.edges():
            d = hex_norm((p2.x - p1.x, p2.y - p1.y))
            if d <= 1e-9:
                continue
            mx, my = (p1.x + p2.x) / 2.0, (p1.y + p2.y) / 2.0
            key = (round(mx * 1e6), round(my * 1e6))
            if key in seen:  # joint edges get one label, not two
                continue
            seen.add(key)
            nx, ny = mx - cx, my - cy
            norm = math.hypot(nx, ny) or 1.0
            lx, ly = mx + 0.12 * nx / norm, my + 0.12 * ny / norm
            sx, sy = to_svg(PlanePoint(lx, ly))
            parts.append(
                f'<text x="{sx:.2f}" y="{sy:.2f}" text-anchor="middle" '
                f'font-size="11" fill="#444">{_short(d)}</text>'
            )
    return "\n".join(parts), width, height


def _svg_document(panels: list[_Panel]) -> str:
    body_parts: list[str] = []
    off = 0.0
    heights = []
    for i, panel in enumerate(panels):
        part, w, h = _panel_svg(panel, off)
        body_parts.append(part)
        heights.append(h)
        off += w + (SVG_GAP if i + 1 < len(panels) else 0.0)
    width, height = off, max(heights)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<!-- scale: {SVG_SCALE:g} SVG user units per plane unit -->\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}" '
        f'font-family="Helvetica, Arial, sans-serif">\n'
        + "\n".join(body_parts)
        + "\n</svg>\n"
    )


def render_svg(result: solver.DoubleBubbleResult) -> str:
    """Standalone SVG: one panel per minimizing configuration."""
    panels = []
    for entry in result.solutions:
        title = (
            f"{entry.case}: alpha={_short(result.alpha)} "
            f"perimeter={_short(result.perimeter)}"
        )
        panel = _Panel(title)
        panel.polys = [(entry.geometry_a, "#1f77b4"), (entry.geometry_b, "#d62728")]
        panel.joint = _shared_segments(entry.geometry_a, entry.geometry_b)
        panels.append(panel)
    return _svg_document(panels)


def _hexagon_svg(volume: float) -> str:
    L0, P = singlebubble.isoperimetric_optimum(volume)
    poly = singlebubble.solve_fixed_side(L0, volume).polygon()
    panel = _Panel(f"isoperimetric hexagon: V={_short(volume)} perimeter={_short(P)}")
    panel.polys = [(poly, "#1f77b4")]
    return _svg_document([panel])


# ---------------------------------------------------------------- verify

_SQ3 = math.sqrt(3.0)


def _single_bubble_objective(
    L: float, V: float
) -> tuple[Callable[[tuple[float, ...]], float], BoxSpec]:
    """Perimeter over the two free sides (x1, x2) of a volume-V cell on a
    fixed side L.  The remaining sides come from closure and the volume
    constraint, so every feasible point is an admissible polygon."""

    def sides(p: tuple[float, ...]) -> Optional[tuple[float, ...]]:
        x1, x2 = p
        if x1 < 0.0 or x2 < 0.0:
            return None
        try:
            x4 = singlebubble.x4_from_volume(x1, x2, L, V)
        except ValueError:
            return None
        x3 = L + x1 - x4
        x5 = x1 + x2 - x4
        if x3 < -1e-12 or x5 < -1e-12:
            return None
        return (x1, x2, x3, x4, x5)

    def objective(p: tuple[float, ...]) -> float:
        s = sides(p)
        assert s is not None
        return L + sum(s)

    bound = L + 3.0 * math.sqrt(V) + 1.0
    # with x2 = 0, x4 is real from x1 = sqrt(L^2 + 4V/sqrt(3)) - L on and
    # x5 = x1 - x4 stays >= 0 up to x1 = 2V/(sqrt(3) L); take the middle
    x1_lo = math.sqrt(L * L + 4.0 * V / _SQ3) - L
    x1_hi = 2.0 * V / (_SQ3 * L)
    witness = (0.5 * (x1_lo + x1_hi), 0.0)
    box = BoxSpec(
        lower=(0.0, 0.0),
        upper=(bound, bound),
        feasible=lambda p: sides(p) is not None,
        witness=witness,
    )
    return objective, box


def _embedded_objective(
    alpha: float,
) -> tuple[Callable[[tuple[float, ...]], float], BoxSpec]:
    cap1 = math.sqrt(8.0 * _SQ3 * alpha / 3.0)

    def feasible(p: tuple[float, ...]) -> bool:
        try:
            embedded.rho1(p[0], p[1], alpha)
        except ValueError:
            return False
        return True

    w1 = 0.5 * cap1
    witness = (w1, max(embedded.rho1_optimal_L2(w1), w1) + 0.05)
    box = BoxSpec(
        lower=(1e-3, 1e-3),
        upper=(cap1 * (1.0 + 1e-9), 3.0),
        feasible=feasible,
        witness=witness,
    )
    return lambda p: embedded.rho1(p[0], p[1], alpha), box


def _kissing_objective(
    alpha: float,
) -> tuple[Callable[[tuple[float, ...]], float], BoxSpec]:
    lo = 0.05 * min(1.0, math.sqrt(alpha))
    box = BoxSpec(lower=(lo, lo), upper=(2.4, 2.4))
    return lambda p: kissing.kissing_perimeter(p[0], p[1], alpha), box


def _chk_iso_closed_form(rng: Lcg) -> tuple[bool, str]:
    L0, P = singlebubble.isoperimetric_optimum(1.0)
    want = 2.0 * math.sqrt(2.0) * 3.0 ** 0.25
    if abs(P - want) > 1e-12:
        return False, f"perimeter {_fmt(P)} != {_fmt(want)}"
    poly = singlebubble.solve_fixed_side(L0, 1.0).polygon()
    lens = [hex_norm((q.x - p.x, q.y - p.y)) for p, q in poly.edges()]
    if len(lens) != 6 or max(lens) - min(lens) > 1e-12:
        return False, f"hexagon not regular: sides {[_fmt(v) for v in lens]}"
    return True, ""


def _chk_regime_continuity(rng: Lcg) -> tuple[bool, str]:
    for _ in range(5):
        V = rng.uniform(0.5, 2.0)
        Lb = math.sqrt(16.0 * V / (3.0 * _SQ3))
        gap = abs(singlebubble.perimeter_P1(Lb, V) - singlebubble.perimeter_P2(Lb, V))
        if gap > 1e-9:
            return False, f"P1/P2 differ by {_fmt(gap)} at the regime boundary, V={_fmt(V)}"
    return True, ""


def _chk_small_alpha(rng: Lcg) -> tuple[bool, str]:
    for _ in range(8):
        a = rng.uniform(1e-3, 0.124)
        got = kissing.kissing_minimum(a).perimeter
        want = kissing.small_alpha_closed_form(a)
        if abs(got - want) > 1e-12:
            return False, f"closed form off by {_fmt(got - want)} at alpha={_fmt(a)}"
    return True, ""


def _chk_p3_dominance(rng: Lcg) -> tuple[bool, str]:
    for _ in range(6):
        a = rng.uniform(0.3, 1.0)
        Lmax = math.sqrt(16.0 * a / (3.0 * _SQ3))
        for i in range(8):
            L = Lmax * (0.4 + 0.59 * i / 7.0)
            p3, _, p5, p6 = kissing.equal_perimeters(L, a)
            direct = kissing.kissing_perimeter(L, L, a)
            if abs(p3 - direct) > 1e-9:
                return False, f"P3 disagrees with the glued-pair perimeter at L={_fmt(L)}, alpha={_fmt(a)}"
            if p5 is not None and p3 > p5 + 1e-12:
                return False, f"P3 > P5 at L={_fmt(L)}, alpha={_fmt(a)}"
            if p6 is not None and p3 > p6 + 1e-12:
                return False, f"P3 > P6 at L={_fmt(L)}, alpha={_fmt(a)}"
    return True, ""


def _chk_p2_exceeds_p1(rng: Lcg) -> tuple[bool, str]:
    for _ in range(10):
        V = rng.uniform(0.5, 2.0)
        Lmin = 2.0 * math.sqrt(V) / 3.0 ** 0.25
        L = Lmin * (1.0 + 1.5 * rng.uniform())
        if singlebubble.perimeter_P2(L, V) <= singlebubble.perimeter_P1(L, V) - 1e-12:
            return False, f"P2 <= P1 at L={_fmt(L)}, V={_fmt(V)}"
    return True, ""


def _chk_alpha0(rng: Lcg) -> tuple[bool, str]:
    a0 = solver.find_alpha0()
    if not 0.147 <= a0 <= 0.157:
        return False, f"alpha0={_fmt(a0)} outside [0.147, 0.157]"
    gap = abs(solver.embedded_value(a0) - solver.kissing_value(a0))
    if gap > 1e-8:
        return False, f"perimeter gap {_fmt(gap)} at alpha0"
    return True, ""


def _chk_degree8(rng: Lcg) -> tuple[bool, str]:
    for _ in range(6):
        a = rng.uniform(0.13, 1.0)
        Lstar, _ = kissing.p3_minimizer(a)
        poly = kissing.build_degree8(a)
        scale = max(abs(c) for c in poly.coefficients)
        if abs(poly(Lstar)) > 1e-6 * scale:
            return False, f"|p(L*)|={_fmt(abs(poly(Lstar)))} too large at alpha={_fmt(a)}"
        roots = [r for r in kissing.poly_real_roots(poly) if r > 0.0]
        if not roots or min(abs(r - Lstar) for r in roots) > 1e-8:
            return False, f"no positive root near L* at alpha={_fmt(a)}"
    return True, ""


def _chk_rho_route_order(rng: Lcg) -> tuple[bool, str]:
    for _ in range(8):
        a = rng.uniform(0.01, 1.0)
        first = embedded.minimize_rho1(a)[2]
        second = embedded.rho2_minimum(a)[2]
        if first > second + 1e-12:
            return False, f"nested route order violated at alpha={_fmt(a)}"
    return True, ""


def _chk_geometry_roundtrip(rng: Lcg) -> tuple[bool, str]:
    alphas = [0.05, 0.5, 1.0, rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)]
    for a in alphas:
        result = solver.solve(a)
        for entry in result.solutions:
            va = polygon_area(entry.geometry_a)
            vb = polygon_area(entry.geometry_b)
            if abs(va - 1.0) > 1e-9 or abs(vb - a) > 1e-9:
                return False, f"volumes ({_fmt(va)}, {_fmt(vb)}) at alpha={_fmt(a)}"
            total, joint = hexnorm.double_bubble_perimeter(
                entry.geometry_a, entry.geometry_b
            )
            if abs(total - result.candidates[entry.case]) > 1e-9:
                return False, f"measured perimeter {_fmt(total)} at alpha={_fmt(a)}"
            if abs(joint - entry.joint_length) > 1e-9:
                return False, f"measured joint {_fmt(joint)} at alpha={_fmt(a)}"
    return True, ""


def _chk_oracle_fixed_side(rng: Lcg) -> tuple[bool, str]:
    for _ in range(2):
        L = rng.uniform(0.3, 1.6)
        V = rng.uniform(0.5, 1.5)
        objective, box = _single_bubble_objective(L, V)
        # the volume constraint pins the four-sided optimum on a slanted
        # boundary; axis moves alone wedge there, diagonals slide along it
        _, got = grid_refine_min(
            objective, box, grid=48, refine_iters=50,
            directions=[(1.0, -1.0), (1.0, 1.0)],
        )
        want = singlebubble.solve_fixed_side(L, V).perimeter
        if abs(got - want) > 1e-5:
            return False, f"oracle {_fmt(got)} vs closed form {_fmt(want)} at L={_fmt(L)}, V={_fmt(V)}"
    return True, ""


def _chk_oracle_kissing(rng: Lcg) -> tuple[bool, str]:
    for a in (rng.uniform(0.2, 1.0), rng.uniform(0.01, 0.12), 0.5):
        objective, box = _kissing_objective(a)
        # the equal-side optimum sits on the min(L1, L2) kink, where every
        # diagonal point is axis-stationary; descend along the kink too
        _, got = grid_refine_min(
            objective, box, grid=64, refine_iters=60, directions=[(1.0, 1.0)]
        )
        want = kissing.kissing_minimum(a).perimeter
        if abs(got - want) > 1e-5:
            return False, f"oracle {_fmt(got)} vs closed form {_fmt(want)} at alpha={_fmt(a)}"
    return True, ""


def _chk_oracle_embedded(rng: Lcg) -> tuple[bool, str]:
    for a in (rng.uniform(0.05, 1.0), rng.uniform(0.02, 0.15), 0.5):
        objective, box = _embedded_objective(a)
        _, got = grid_refine_min(objective, box, grid=64, refine_iters=60)
        want = embedded.minimize_rho1(a)[2]
        if abs(got - want) > 1e-5:
            return False, f"oracle {_fmt(got)} vs convex minimum {_fmt(want)} at alpha={_fmt(a)}"
    return True, ""


def _chk_perturb_embedded(rng: Lcg) -> tuple[bool, str]:
    for a in (0.05, rng.uniform(0.02, 0.15)):
        sol = embedded.embedded_minimum(a)

        def rebuild(params: tuple[float, ...]) -> tuple[PolyChain, PolyChain]:
            return embedded.embedded_geometry(params[0], params[1], 1.0, a)[:2]

        ok = perturb_local_min(
            *rebuild((sol.L1, sol.L2)),
            rebuild,
            (sol.L1, sol.L2),
            trials=500,
            eps=1e-3,
            seed=rng.next_u64() & 0xFFFF,
        )
        if not ok:
            return False, f"perturbation undercuts the nested minimum at alpha={_fmt(a)}"
    return True, ""


def _chk_perturb_kissing(rng: Lcg) -> tuple[bool, str]:
    for a in (1.0, rng.uniform(0.2, 1.0)):
        sol = kissing.kissing_minimum(a)

        def rebuild(params: tuple[float, ...]) -> tuple[PolyChain, PolyChain]:
            ga, gb, _, _ = kissing.kissing_geometry(params[0], params[1], a)
            return ga, gb

        ok = perturb_local_min(
            *rebuild((sol.L1, sol.L2)),
            rebuild,
            (sol.L1, sol.L2),
            trials=500,
            eps=1e-3,
            seed=rng.next_u64() & 0xFFFF,
        )
        if not ok:
            return False, f"perturbation undercuts the glued minimum at alpha={_fmt(a)}"
    return True, ""


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
            return False, f"perimeter decreases between alpha={_fmt(r.alpha)} and {_fmt(s.alpha)}"
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
            return False, f"no gain over separate cells at alpha={_fmt(r.alpha)}"
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


def run_verify(suite: str, seed: int, out) -> int:
    checks = _QUICK_CHECKS if suite == "quick" else _FULL_CHECKS
    print("hexbubble verification", file=out)
    print(f"suite: {suite}", file=out)
    print(f"seed: {seed}", file=out)
    failures = 0
    for index, (name, check) in enumerate(checks):
        rng = Lcg(seed * 1000003 + index)
        try:
            ok, detail = check(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if ok:
            print(f"PASS {name}", file=out)
        else:
            failures += 1
            print(f"FAIL {name}: {detail}", file=out)
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"result: {verdict} ({len(checks) - failures}/{len(checks)})", file=out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- commands


def _error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        result = solver.solve(args.alpha)
    except ValueError as exc:
        return _error(str(exc))
    if args.format == "json":
        print(json.dumps(output_record(result), indent=2))
    else:
        print(_text_report(result))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        results = solver.sweep(args.alpha_from, args.alpha_to, args.steps)
    except ValueError as exc:
        return _error(str(exc))
    rows = ["alpha,case,perimeter,L1,L2"]
    for r in results:
        first = r.solutions[0]
        rows.append(
            f"{_fmt(r.alpha)},{r.case},{_fmt(r.perimeter)},{_fmt(first.L1)},{_fmt(first.L2)}"
        )
    payload = "\n".join(rows) + "\n"
    try:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            return _error(f"{SEED_ENV} must be an integer, got {env!r}")
    return run_verify(args.suite, seed, sys.stdout)


def cmd_render(args: argparse.Namespace) -> int:
    try:
        result = solver.solve(args.alpha)
    except ValueError as exc:
        return _error(str(exc))
    svg = render_svg(result)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_iso(args: argparse.Namespace) -> int:
    try:
        L0, P = singlebubble.isoperimetric_optimum(args.volume)
    except ValueError as exc:
        return _error(str(exc))
    print(f"L0        = {_fmt(L0)}")
    print(f"perimeter = {_fmt(P)}")
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(_hexagon_svg(args.volume))
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexbubble",
        description="Double-bubble perimeter minimization in the hexagonal norm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimize for one volume ratio")
    p.add_argument("--alpha", type=float, required=True, help="volume ratio in (0, 1]")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve over a ratio grid, write CSV")
    p.add_argument("--from", dest="alpha_from", type=float, required=True)
    p.add_argument("--to", dest="alpha_to", type=float, required=True)
    p.add_argument("--steps", type=int, default=100, help="number of grid points")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw the minimizing configuration(s)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("iso", help="single-bubble isoperimetric optimum")
    p.add_argument("--volume", type=float, default=1.0)
    p.add_argument("--out", default=None, help="optional SVG of the optimal hexagon")
    p.set_defaults(func=cmd_iso)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull so the
        # interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports it
    sys.exit(code)


if __name__ == "__main__":
    entry()
