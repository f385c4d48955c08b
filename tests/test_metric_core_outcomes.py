"""Frozen outcomes of the metric core on a seeded corpus of cell pairs.

`metric_core_outcomes.json` holds, for every pair of the corpus below,
double_bubble_perimeter's (total, joint) as float.hex or its error
message, and for every chain whether PolyChain accepts it.  The file was
written from the metric core that preceded the flat edge tables, and the
current core must reproduce it exactly.  The one allowed change is a
pair that now raises "interiors overlap" where an independent grid
sample finds a point strictly inside both chains: the earlier core
measured coincident and nested cells that share their boundary.

Fixture rule for fold-backs.  PolyChain once accepted a closed chain
that runs back along itself, two consecutive edges collinear and
opposite, as simple.  Rejecting those changed exactly 49 entries, all
among the 400 random chains and each from "ok" to "closed chain is not
simple"; no pair entry moved, and the entries were changed in place.
The test below confirms with a witness of its own that no chain frozen
as "ok" folds back, and that each of the 115 random chains that fold
back (the 49, and 66 that were rejected already) is frozen as not
simple.

The first 1200 pairs perturb the nested and glued optima.  Their base
(alpha, L1, L2) triples are frozen in `metric_core_bases.json` as
float.hex, written once from the nested and glued minima (today
`minimize_rho1` and `kissing_minimum`) as they stood before the shared
Newton root-finder, so that a change in the last bits of a minimizer
cannot move a metric outcome.  The bases
are not regenerated; a separate test only checks that they are still
the minimizers to rounding.

Regenerate (only when an outcome is meant to change) with

    PYTHONPATH=src python tests/test_metric_core_outcomes.py
"""

import json
import math
from pathlib import Path

from hexbubble.embedded import embedded_geometry, minimize_rho1
from hexbubble.hexnorm import (
    GEOM_TOL,
    LATTICE_DIRECTIONS,
    PlanePoint,
    PolyChain,
    double_bubble_perimeter,
    merge_vertices,
)
from hexbubble.kissing import kissing_geometry, kissing_minimum
from hexbubble.oracle import Lcg

FIXTURE = Path(__file__).with_name("metric_core_outcomes.json")
BASES = Path(__file__).with_name("metric_core_bases.json")
OVERLAP = "!interiors overlap"

Vertices = tuple[tuple[float, float], ...]


# ---------------------------------------------------------------- corpus


def _pick(rng: Lcg, n: int) -> int:
    # from the high bits: the LCG's low bits repeat with a short period
    return (rng.next_u64() >> 33) % n


def _log_uniform(rng: Lcg, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _verts(chain: PolyChain) -> Vertices:
    return tuple((v.x, v.y) for v in chain.vertices)


def _perturbed(rng: Lcg, bases: list[list[str]], build, out: list) -> None:
    # like perturb_local_min: every side scaled by (1 + eps*u), u in [-1, 1]
    for k, base in enumerate(bases):
        if k % 4 == 0:
            alpha = _log_uniform(rng, -16.0, -13.0)  # around the lattice defect
        else:
            alpha = _log_uniform(rng, -16.0, 0.0)
        frozen_alpha, base_L1, base_L2 = map(float.fromhex, base)
        assert alpha == frozen_alpha, (k, alpha, frozen_alpha)
        eps = 0.0 if k % 10 == 0 else 1e-3
        L1 = base_L1 * (1.0 + eps * rng.uniform(-1.0, 1.0))
        L2 = base_L2 * (1.0 + eps * rng.uniform(-1.0, 1.0))
        try:
            a, b = build(L1, L2, alpha)
        except ValueError as exc:
            out.append(("build: " + str(exc), None))
            continue
        out.append((_verts(a), _verts(b)))


def _lattice_hexagon(rng: Lcg, h: float) -> Vertices:
    """A lattice hexagon on the triangular grid of step h; sides of length
    zero collapse, so some are triangles, trapezoids or parallelograms."""
    while True:
        s1, s2, s3 = (h * _pick(rng, 4) for _ in range(3))
        t = h * (_pick(rng, 7) - 3)
        s4, s5, s6 = s1 - t, s2 + t, s3 - t
        sides = (s1, s2, s3, s4, s5, s6)
        if min(sides) >= 0.0 and sum(1 for s in sides if s > 0.0) >= 3:
            break
    i, j = _pick(rng, 9) - 4, _pick(rng, 9) - 4
    x = h * (i + 0.5 * j)
    y = h * j * math.sqrt(3.0) / 2.0
    pts = [(x, y)]
    for s, d in zip(sides, LATTICE_DIRECTIONS):
        x, y = x + s * d.x, y + s * d.y
        pts.append((x, y))
    return tuple(merge_vertices(pts, closed=True))


def _reflect(vs: Vertices, k: int) -> Vertices:
    # mirror image across the line through edge k; it touches along that edge
    n = len(vs)
    (px, py), (qx, qy) = vs[k], vs[(k + 1) % n]
    dx, dy = qx - px, qy - py
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    out = []
    for x, y in vs:
        wx, wy = x - px, y - py
        t = wx * ux + wy * uy
        out.append((px + 2.0 * t * ux - wx, py + 2.0 * t * uy - wy))
    return tuple(out)


def _shift(vs: Vertices, dx: float, dy: float) -> Vertices:
    return tuple((x + dx, y + dy) for x, y in vs)


def _convex(rng: Lcg) -> Vertices:
    # counterclockwise hull of a few random points
    pts = sorted((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(7))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 1e-12:
                    break
                out.pop()
            out.append(p)
        return out

    return tuple(half(pts)[:-1] + half(reversed(pts))[:-1])


def _bbox(vs: Vertices) -> tuple[float, float, float, float]:
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    return min(xs), min(ys), max(xs), max(ys)


def _poking(rng: Lcg, a: Vertices, margin: float) -> Vertices:
    """A triangle outside a's bounding box whose apex lies `margin` past one
    side of that box, level with a random point of the box."""
    x0, y0, x1, y1 = _bbox(a)
    side = _pick(rng, 4)
    f = rng.uniform(0.0, 1.0) if _pick(rng, 2) else 0.0
    if side == 0:  # east
        y = y0 + f * (y1 - y0) if f else max(a)[1]
        apex, far = (x1 + margin, y), (1.0, 0.0)
    elif side == 1:  # west
        y = y0 + f * (y1 - y0) if f else min(a)[1]
        apex, far = (x0 - margin, y), (-1.0, 0.0)
    elif side == 2:  # north
        x = x0 + f * (x1 - x0) if f else max(a, key=lambda v: v[1])[0]
        apex, far = (x, y1 + margin), (0.0, 1.0)
    else:  # south
        x = x0 + f * (x1 - x0) if f else min(a, key=lambda v: v[1])[0]
        apex, far = (x, y0 - margin), (0.0, -1.0)
    ax, ay = apex
    fx, fy = far
    # the two far corners sit one unit out, spread across the poking direction
    b = ((ax + fx + fy, ay + fy - fx), (ax + fx - fy, ay + fy + fx), apex)
    return b if _signed_area(b) > 0.0 else tuple(reversed(b))


def _sliver(rng: Lcg, gap: float) -> tuple[Vertices, Vertices]:
    """A rectangle, and inside it a sliver triangle that lies within 1e-7
    of one side and `gap` from it: evidence of overlap only in a thin strip
    along one side of the rectangle's bounding box."""
    x0, y0 = rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 0.0)
    x1, y1 = x0 + rng.uniform(0.5, 2.0), y0 + rng.uniform(0.5, 2.0)
    rect = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    s, w = 1e-4, 1e-7
    along = rng.uniform(0.1, 0.9)
    side = _pick(rng, 4)
    if side == 0:  # west
        x, y = x0 + gap, y0 + along * (y1 - y0)
        tri = ((x, y), (x + w, y + s / 2.0), (x, y + s))
    elif side == 1:  # east
        x, y = x1 - gap, y0 + along * (y1 - y0)
        tri = ((x, y), (x, y + s), (x - w, y + s / 2.0))
    elif side == 2:  # north
        x, y = x0 + along * (x1 - x0), y1 - gap
        tri = ((x, y), (x + s / 2.0, y - w), (x + s, y))
    else:  # south
        x, y = x0 + along * (x1 - x0), y0 + gap
        tri = ((x, y), (x + s, y), (x + s / 2.0, y + w))
    return rect, tri


def _signed_area(vs: Vertices) -> float:
    n = len(vs)
    return 0.5 * sum(
        vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1] for i in range(n)
    )


def _random_chain(rng: Lcg) -> Vertices:
    """Random vertex lists, most of them self-intersecting, some lattice
    walks that run back along themselves."""
    if _pick(rng, 2):
        n = 4 + _pick(rng, 5)
        return tuple((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n))
    x = y = 0.0
    pts = [(x, y)]
    for _ in range(3 + _pick(rng, 6)):
        d = LATTICE_DIRECTIONS[_pick(rng, 6)]
        s = 0.5 * (1 + _pick(rng, 3))
        x, y = x + s * d.x, y + s * d.y
        pts.append((x, y))
    return tuple(merge_vertices(pts, closed=True))


def corpus() -> tuple[list[tuple], list[Vertices]]:
    """(pairs, chains): each pair is (vertices_a, vertices_b), or
    ("build: <error>", None) when the geometry builder refused; chains are
    further vertex lists for PolyChain alone."""
    rng = Lcg(20240505)
    bases = json.loads(BASES.read_text())
    pairs: list[tuple] = []
    _perturbed(
        rng, bases["embedded"],
        lambda L1, L2, a: embedded_geometry(L1, L2, 1.0, a)[:2], pairs,
    )
    _perturbed(
        rng, bases["kissing"], lambda L1, L2, a: kissing_geometry(L1, L2, a)[:2], pairs
    )
    # lattice hexagons: random placements touch, overlap or sit apart
    for _ in range(300):
        pairs.append((_lattice_hexagon(rng, 0.5), _lattice_hexagon(rng, 0.5)))
    # mirror images across an edge touch along it, also after a lattice slide
    for _ in range(300):
        a = _lattice_hexagon(rng, 0.5)
        k = _pick(rng, len(a))
        b = _reflect(a, k)
        slide = _pick(rng, 5) - 2
        (px, py), (qx, qy) = a[k], a[(k + 1) % len(a)]
        norm = math.hypot(qx - px, qy - py)
        b = _shift(b, 0.5 * slide * (qx - px) / norm, 0.5 * slide * (qy - py) / norm)
        pairs.append((a, tuple(reversed(b))))
    # coincident and nested cells that share boundary
    for k in range(150):
        a = _lattice_hexagon(rng, 0.5)
        n = len(a)
        r = _pick(rng, n)
        if k % 3 == 0:
            b = a[r:] + a[:r]  # the same cell, another start vertex
        elif k % 3 == 1:
            b = tuple(reversed(a))  # the same cell, other orientation
        else:
            # a triangle on alternate corners, or on three consecutive ones
            b = (a + a)[r : r + n : 2] if n == 6 else (a + a)[r : r + 3]
        pairs.append((a, b))
    # touching partners pushed off the lattice by a small offset
    for _ in range(300):
        a = _lattice_hexagon(rng, 0.5)
        b = tuple(reversed(_reflect(a, _pick(rng, len(a)))))
        size = _log_uniform(rng, -12.0, -1.0)
        turn = rng.uniform(0.0, 2.0 * math.pi)
        pairs.append((a, _shift(b, size * math.cos(turn), size * math.sin(turn))))
    # a vertex just outside the other cell's bounding box
    for k in range(100):
        a = _lattice_hexagon(rng, 0.5) if k % 2 else _convex(rng)
        margin = (0.5 if k % 4 < 2 else 2.0) * GEOM_TOL
        pairs.append((a, _poking(rng, a, margin)))
    # a sliver nested along one side of a rectangle
    for k in range(80):
        pairs.append(_sliver(rng, (0.5 if k % 2 else 2.0) * GEOM_TOL))
    # generic convex cells, shifted
    for _ in range(150):
        a = _convex(rng)
        b = _shift(_convex(rng), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        pairs.append((a, b))
    chains = [_random_chain(rng) for _ in range(400)]
    return pairs, chains


# ---------------------------------------------------------------- outcomes


def _chain(vs: Vertices) -> PolyChain:
    return PolyChain(tuple(PlanePoint(x, y) for x, y in vs), closed=True)


def chain_outcome(vs: Vertices) -> str:
    try:
        _chain(vs)
    except ValueError as exc:
        return str(exc)
    return "ok"


def pair_outcome(a, b) -> str:
    if b is None:
        return a  # the builder's error
    try:
        total, joint = double_bubble_perimeter(_chain(a), _chain(b))
    except ValueError as exc:
        return "!" + str(exc)
    return total.hex() + " " + joint.hex()


def outcomes(pairs: list[tuple], chains: list[Vertices]) -> dict:
    every_chain = [c for pair in pairs if pair[1] is not None for c in pair] + chains
    return {
        "pairs": [pair_outcome(a, b) for a, b in pairs],
        "chains": [chain_outcome(c) for c in every_chain],
    }


# ---------------------------------------------------------------- independent overlap witness


def _strictly_inside(x: float, y: float, vs: Vertices, margin: float) -> bool:
    # winding number by signed upward/downward crossings, and clear of
    # every edge by more than margin
    n = len(vs)
    wind = 0
    for i in range(n):
        (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        t = ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        if math.hypot(x - ax - t * dx, y - ay - t * dy) <= margin:
            return False
        side = dx * (y - ay) - dy * (x - ax)
        if ay <= y < by and side > 0.0:
            wind += 1
        elif by <= y < ay and side < 0.0:
            wind -= 1
    return wind != 0


def grid_finds_common_interior(a: Vertices, b: Vertices) -> bool:
    ax0, ay0, ax1, ay1 = _bbox(a)
    bx0, by0, bx1, by1 = _bbox(b)
    x0, y0, x1, y1 = max(ax0, bx0), max(ay0, by0), min(ax1, bx1), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return False
    margin, steps = 1e-7, 80
    for i in range(steps):
        x = x0 + (x1 - x0) * (i + 0.5) / steps
        for j in range(steps):
            y = y0 + (y1 - y0) * (j + 0.37) / steps
            if _strictly_inside(x, y, a, margin) and _strictly_inside(x, y, b, margin):
                return True
    return False


# ---------------------------------------------------------------- test


def test_frozen_bases_are_still_the_minimizers():
    bases = json.loads(BASES.read_text())
    assert [len(bases["embedded"]), len(bases["kissing"])] == [700, 500]
    for name, minimum in (("embedded", minimize_rho1), ("kissing", kissing_minimum)):
        for row in bases[name]:
            alpha, L1, L2 = map(float.fromhex, row)
            sol = minimum(alpha)
            assert math.isclose(sol.L1, L1, rel_tol=1e-12), (name, alpha)
            assert math.isclose(sol.L2, L2, rel_tol=1e-12), (name, alpha)


def _folds_back(vs: Vertices) -> bool:
    # two consecutive edges of closed chain vs on one line, opposite ways
    n = len(vs)
    for k in range(n):
        (ax, ay), (bx, by), (cx, cy) = vs[k - 1], vs[k], vs[(k + 1) % n]
        ex, ey, fx, fy = bx - ax, by - ay, cx - bx, cy - by
        scale = math.hypot(ex, ey) * math.hypot(fx, fy)
        if abs(ex * fy - ey * fx) <= 1e-12 * scale and ex * fx + ey * fy < 0.0:
            return True
    return False


def test_metric_core_outcomes_are_frozen():
    frozen = json.loads(FIXTURE.read_text())
    pairs, chains = corpus()
    got = outcomes(pairs, chains)
    assert len(got["pairs"]) == len(frozen["pairs"]) >= 2000
    assert got["chains"] == frozen["chains"]
    every_chain = [c for pair in pairs if pair[1] is not None for c in pair] + chains
    folded = [k for k, vs in enumerate(every_chain) if _folds_back(vs)]
    assert len(folded) == 115 and folded[0] >= len(every_chain) - len(chains)
    for k in folded:
        assert frozen["chains"][k] == "closed chain is not simple", every_chain[k]
    for k, (new, old) in enumerate(zip(got["pairs"], frozen["pairs"])):
        if new == old:
            continue
        a, b = pairs[k]
        assert new == OVERLAP and b is not None and grid_finds_common_interior(a, b), (
            f"pair {k}: {old!r} became {new!r}"
        )


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(outcomes(*corpus()), indent=0) + "\n")
