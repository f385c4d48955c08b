"""Command-line surface: solve, sweep, verify, render, iso.  The verify
suites live in `checks`, imported only when verify runs; this module
parses, prints and draws.

Numeric output carries 12 significant digits everywhere; JSON payloads
store numbers as decimal strings so snapshots do not depend on float
repr quirks.  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error, 3 I/O error, 141 stdout closed by its reader.  HEXBUBBLE_SEED,
when set, overrides --seed.  `verify --timings` adds one JSON line to
stderr and leaves stdout as it is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import singlebubble, solver
from .hexnorm import PlanePoint, PolyChain, hex_norm, shared_segments
from .solver import fmt

SVG_SCALE = 100.0  # SVG user units per plane unit; also stated in the file header
SVG_TITLE_BAND = 26.0
SVG_GAP = 24.0
SEED_ENV = "HEXBUBBLE_SEED"


def _short(x: float) -> str:
    return "%.6g" % float(x)


# ---------------------------------------------------------------- records


def _solution_block(entry: solver.SolutionEntry) -> dict:
    return {
        "case": entry.case,
        "L1": fmt(entry.L1),
        "L2": fmt(entry.L2),
        "joint_length": fmt(entry.joint_length),
        "sides_a": [fmt(s) for s in entry.sides_a],
        "sides_b": [fmt(s) for s in entry.sides_b],
        "vertices_a": [[fmt(v.x), fmt(v.y)] for v in entry.geometry_a.vertices],
        "vertices_b": [[fmt(v.x), fmt(v.y)] for v in entry.geometry_b.vertices],
    }


def output_record(result: solver.DoubleBubbleResult) -> dict:
    """JSON-ready record; every number is a 12-significant-digit string."""
    first = result.solutions[0]
    return {
        "alpha": fmt(result.alpha),
        "case": result.case,
        "perimeter": fmt(result.perimeter),
        "L1": fmt(first.L1),
        "L2": fmt(first.L2),
        "joint_length": fmt(result.joint_length),
        "solutions": [_solution_block(e) for e in result.solutions],
    }


def _text_report(result: solver.DoubleBubbleResult) -> str:
    lines = [
        f"alpha      = {fmt(result.alpha)}",
        f"case       = {result.case}",
        f"perimeter  = {fmt(result.perimeter)}",
        f"joint      = {fmt(result.joint_length)}",
        "candidates = "
        + " | ".join(f"{k} {fmt(v)}" for k, v in sorted(result.candidates.items())),
    ]
    for i, e in enumerate(result.solutions, start=1):
        lines.append(f"solution {i}: {e.case}")
        lines.append(f"  L1 = {fmt(e.L1)}   L2 = {fmt(e.L2)}   joint = {fmt(e.joint_length)}")
        lines.append("  sides A    = " + ", ".join(fmt(s) for s in e.sides_a))
        lines.append("  sides B    = " + ", ".join(fmt(s) for s in e.sides_b))
        lines.append(
            "  vertices A = "
            + "; ".join(f"({fmt(v.x)}, {fmt(v.y)})" for v in e.geometry_a.vertices)
        )
        lines.append(
            "  vertices B = "
            + "; ".join(f"({fmt(v.x)}, {fmt(v.y)})" for v in e.geometry_b.vertices)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------- svg


def _centroid(chain: PolyChain) -> tuple[float, float]:
    # added left to right, not by sum(), whose float result changed in
    # Python 3.12, so the SVG text is the same on every supported version
    sx = sy = 0.0
    for v in chain.vertices:
        sx += v.x
        sy += v.y
    n = len(chain.vertices)
    return sx / n, sy / n


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
        panel.joint = shared_segments(entry.geometry_a, entry.geometry_b)
        panels.append(panel)
    return _svg_document(panels)


def _hexagon_svg(volume: float) -> str:
    L0, P = singlebubble.isoperimetric_optimum(volume)
    poly = singlebubble.solve_fixed_side(L0, volume).polygon()
    panel = _Panel(f"isoperimetric hexagon: V={_short(volume)} perimeter={_short(P)}")
    panel.polys = [(poly, "#1f77b4")]
    return _svg_document([panel])


# ---------------------------------------------------------------- commands


def _error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _write(path: str, text: str, encoding: str) -> int:
    """Write text to path; exit code 0, or 3 with one error line."""
    try:
        with open(path, "w", encoding=encoding, newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


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
            f"{fmt(r.alpha)},{r.case},{fmt(r.perimeter)},{fmt(first.L1)},{fmt(first.L2)}"
        )
    return _write(args.out, "\n".join(rows) + "\n", "ascii")


def run_verify(suite: str, seed: int, out, timings: Optional[dict[str, float]] = None) -> int:
    """checks.run_verify.  The checker, and the oracle with it, is imported
    here on first use, so that the other commands never load it."""
    from . import checks

    return checks.run_verify(suite, seed, out, timings)


def cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            return _error(f"{SEED_ENV} must be an integer, got {env!r}")
    timings: Optional[dict[str, float]] = {} if args.timings else None
    code = run_verify(args.suite, seed, sys.stdout, timings)
    if timings is not None:
        sys.stdout.flush()  # the JSON line follows the result line
        print(json.dumps(timings), file=sys.stderr)
    return code


def cmd_render(args: argparse.Namespace) -> int:
    try:
        result = solver.solve(args.alpha)
    except ValueError as exc:
        return _error(str(exc))
    return _write(args.out, render_svg(result), "utf-8")


def cmd_iso(args: argparse.Namespace) -> int:
    try:
        L0, P = singlebubble.isoperimetric_optimum(args.volume)
    except ValueError as exc:
        return _error(str(exc))
    svg = None
    if args.out is not None:
        # the drawing needs a side of at least MIN_SIDE, the value only a
        # positive volume: fail before any output or file appears
        try:
            svg = _hexagon_svg(args.volume)
        except ValueError as exc:
            return _error(f"volume {fmt(args.volume)} is too small to draw ({exc})")
    print(f"L0        = {fmt(L0)}")
    print(f"perimeter = {fmt(P)}")
    if svg is not None:
        return _write(args.out, svg, "utf-8")
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
    p.add_argument(
        "--timings", action="store_true",
        help="after the result, write {check: seconds} as JSON to stderr",
    )
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
