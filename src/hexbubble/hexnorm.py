"""Metric core for the hexagonal norm.

The norm is D(x, y) = max(|x| + |y|/sqrt(3), 2|y|/sqrt(3)).  Its unit ball
is the regular hexagon with vertices (1, 0), (1/2, sqrt(3)/2), ...,
(1/2, -sqrt(3)/2), so the six directions at multiples of 60 degrees have
D-length equal to Euclidean length.  Every polygon the solver modules
produce has edges only along those directions.

Chain lengths are edge sums of D over consecutive vertex differences; the
double-bubble perimeter of two polygons counts their shared boundary once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

SQRT3 = math.sqrt(3.0)

# Shared-edge / collinearity tolerance, in plane units.  Every configuration
# handled here is O(1) scale, so an absolute tolerance is appropriate.
GEOM_TOL = 1e-9

# Consecutive vertices closer than this (per coordinate) are one vertex.
DEDUP_TOL = 1e-12


class PlanePoint(NamedTuple):
    x: float
    y: float


# Unit vectors at 0, 60, ..., 300 degrees: the vertices of the unit ball.
LATTICE_DIRECTIONS: tuple[PlanePoint, ...] = (
    PlanePoint(1.0, 0.0),
    PlanePoint(0.5, SQRT3 / 2.0),
    PlanePoint(-0.5, SQRT3 / 2.0),
    PlanePoint(-1.0, 0.0),
    PlanePoint(-0.5, -SQRT3 / 2.0),
    PlanePoint(0.5, -SQRT3 / 2.0),
)


def hex_norm(p: Sequence[float]) -> float:
    """D(p) = max(|x| + |y|/sqrt(3), 2|y|/sqrt(3))."""
    x, y = p
    ay = abs(y) / SQRT3
    return max(abs(x) + ay, 2.0 * ay)


def sextant(p: Sequence[float]) -> int:
    """Index in 1..6 of the closed 60-degree sector containing p.

    Sector k spans polar angles [(k-1)*60, k*60] degrees.  The test uses
    the three sign functionals y, y - sqrt(3)x, y + sqrt(3)x only, so no
    angles are computed; a point on a shared bounding ray belongs to both
    closed sectors and the smaller index is returned, which keeps geodesic
    construction deterministic.
    """
    x, y = p
    if x == 0.0 and y == 0.0:
        raise ValueError("sector undefined at the origin")
    rise = y - SQRT3 * x
    fall = y + SQRT3 * x
    if y >= 0.0:
        if rise <= 0.0:
            return 1
        if fall >= 0.0:
            return 2
        return 3
    if fall <= 0.0:
        if rise >= 0.0:
            return 4
        return 5
    return 6


@dataclass(frozen=True)
class PolyChain:
    """Ordered vertex chain; closed chains must be simple polygons.

    A single-vertex open chain is allowed: it is the degenerate geodesic
    from a point to itself (length 0).  Closed chains need three or more
    vertices, no repeated closing vertex, and no self-intersection.
    """

    vertices: tuple[PlanePoint, ...]
    closed: bool = False

    def __post_init__(self) -> None:
        vs = tuple(PlanePoint(float(v[0]), float(v[1])) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        for v in vs:
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise ValueError("non-finite vertex")
        if self.closed:
            if len(vs) < 3:
                raise ValueError("closed chain needs at least 3 vertices")
        elif len(vs) < 1:
            raise ValueError("chain needs at least 1 vertex")
        n = len(vs)
        count = n if self.closed else n - 1
        for i in range(count):
            a, b = vs[i], vs[(i + 1) % n]
            if abs(a.x - b.x) <= DEDUP_TOL and abs(a.y - b.y) <= DEDUP_TOL:
                raise ValueError("consecutive vertices coincide")
        if self.closed and _has_self_intersection(vs):
            raise ValueError("closed chain is not simple")

    def edges(self) -> Iterator[tuple[PlanePoint, PlanePoint]]:
        vs = self.vertices
        n = len(vs)
        count = n if self.closed else n - 1
        for i in range(count):
            yield vs[i], vs[(i + 1) % n]


def merge_vertices(points: Iterable[Sequence[float]], closed: bool) -> list[PlanePoint]:
    """Points as vertices, consecutive near-duplicates merged.

    For closed chains a repeated final vertex is dropped.  Degenerate side
    lengths (boundary cases of the solvers) thus collapse cleanly.
    """
    pts: list[PlanePoint] = []
    for p in points:
        q = PlanePoint(float(p[0]), float(p[1]))
        if pts and abs(pts[-1].x - q.x) <= DEDUP_TOL and abs(pts[-1].y - q.y) <= DEDUP_TOL:
            continue
        pts.append(q)
    if closed and len(pts) > 1:
        first, last = pts[0], pts[-1]
        if abs(first.x - last.x) <= DEDUP_TOL and abs(first.y - last.y) <= DEDUP_TOL:
            pts.pop()
    return pts


def make_chain(points: Iterable[Sequence[float]], closed: bool) -> PolyChain:
    """Build a chain through merge_vertices(points, closed)."""
    return PolyChain(tuple(merge_vertices(points, closed)), closed)


def anchored_pair(
    a: Sequence[PlanePoint], b: Sequence[PlanePoint]
) -> tuple[PolyChain, PolyChain]:
    """Closed chains through two merged vertex lists (see merge_vertices),
    shifted together so that chain A's leftmost-lowest vertex is the origin."""
    ox, oy = min(a)  # PlanePoint orders by (x, y)
    return (
        PolyChain(tuple(PlanePoint(v.x - ox, v.y - oy) for v in a), closed=True),
        PolyChain(tuple(PlanePoint(v.x - ox, v.y - oy) for v in b), closed=True),
    )


def geodesic_path(p: Sequence[float], q: Sequence[float]) -> PolyChain:
    """Shortest path from p to q using the lattice directions.

    Decomposes q - p = a*u_k + b*u_{k+1} with a, b >= 0 over the two
    unit-ball vertices bounding the sector of q - p, and travels the u_k
    leg first.  The D-length a + b equals hex_norm(q - p); a vanishing leg
    gives a single segment, and p = q gives the one-point chain.
    """
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    dx, dy = qx - px, qy - py
    if hex_norm((dx, dy)) <= DEDUP_TOL:
        return PolyChain((PlanePoint(px, py),), closed=False)
    k = sextant((dx, dy))
    u = LATTICE_DIRECTIONS[k - 1]
    w = LATTICE_DIRECTIONS[k % 6]
    det = u.x * w.y - u.y * w.x
    a = (dx * w.y - dy * w.x) / det
    b = (u.x * dy - u.y * dx) / det
    pts = [PlanePoint(px, py)]
    if a > DEDUP_TOL and b > DEDUP_TOL:
        pts.append(PlanePoint(px + a * u.x, py + a * u.y))
    pts.append(PlanePoint(qx, qy))
    return PolyChain(tuple(pts), closed=False)


def polyline_length(chain: PolyChain) -> float:
    """Total D-length of the chain; closed chains include the closing edge."""
    return math.fsum(
        hex_norm((b.x - a.x, b.y - a.y)) for a, b in chain.edges()
    )


def polygon_area(chain: PolyChain) -> float:
    """Enclosed (shoelace) area of a closed chain, orientation-independent."""
    if not chain.closed:
        raise ValueError("area requires a closed chain")
    vs = chain.vertices
    n = len(vs)
    s = math.fsum(
        vs[i].x * vs[(i + 1) % n].y - vs[(i + 1) % n].x * vs[i].y
        for i in range(n)
    )
    return abs(s) / 2.0


@dataclass(frozen=True)
class HexRegion:
    """Intersection of six half-planes bounded by lattice-direction lines.

    rise = y - sqrt(3)x is constant on 60-degree lines, fall = y + sqrt(3)x
    on 120-degree lines, flat = y on horizontal lines; the region is
    {rise_lo <= rise <= rise_hi, fall_lo <= fall <= fall_hi,
    flat_lo <= flat <= flat_hi}.  Between three and six of the bounding
    lines contribute sides of positive length.
    """

    rise_lo: float
    rise_hi: float
    fall_lo: float
    fall_hi: float
    flat_lo: float
    flat_hi: float

    def __post_init__(self) -> None:
        pairs = (
            (self.rise_lo, self.rise_hi),
            (self.fall_lo, self.fall_hi),
            (self.flat_lo, self.flat_hi),
        )
        for lo, hi in pairs:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi + GEOM_TOL:
                raise ValueError("empty or unbounded hexagon region")

    def corner_points(self) -> tuple[PlanePoint, ...]:
        """The six support-line intersections, counterclockwise from east.

        Coincident corners repeat when a side degenerates to length zero.
        """
        rl, rh = self.rise_lo, self.rise_hi
        fl, fh = self.fall_lo, self.fall_hi
        yl, yh = self.flat_lo, self.flat_hi
        return (
            PlanePoint((fh - rl) / (2.0 * SQRT3), (rl + fh) / 2.0),
            PlanePoint((fh - yh) / SQRT3, yh),
            PlanePoint((yh - rh) / SQRT3, yh),
            PlanePoint((fl - rh) / (2.0 * SQRT3), (rh + fl) / 2.0),
            PlanePoint((fl - yl) / SQRT3, yl),
            PlanePoint((yl - rl) / SQRT3, yl),
        )

    def boundary(self) -> PolyChain:
        return make_chain(self.corner_points(), closed=True)

    def contains(self, p: Sequence[float], tol: float = GEOM_TOL) -> bool:
        x, y = p
        rise = y - SQRT3 * x
        fall = y + SQRT3 * x
        return (
            self.rise_lo - tol <= rise <= self.rise_hi + tol
            and self.fall_lo - tol <= fall <= self.fall_hi + tol
            and self.flat_lo - tol <= y <= self.flat_hi + tol
        )


def circumscribing_hexagon(chain: PolyChain) -> HexRegion:
    """Smallest HexRegion containing the chain's vertices.

    Each of the six support lines touches the vertex set, so for a convex
    input the region's D-perimeter never exceeds the input's.
    """
    vs = chain.vertices
    if len(vs) < 3:
        raise ValueError("need at least 3 vertices")
    rises = [v.y - SQRT3 * v.x for v in vs]
    falls = [v.y + SQRT3 * v.x for v in vs]
    flats = [v.y for v in vs]
    return HexRegion(
        min(rises), max(rises),
        min(falls), max(falls),
        min(flats), max(flats),
    )


def double_bubble_perimeter(a: PolyChain, b: PolyChain) -> tuple[float, float]:
    """(total, joint) perimeter of two closed chains with disjoint interiors.

    joint is the length of boundary the two chains share; it is counted
    once in total.  Shared edges must lie along lattice directions (every
    valid configuration satisfies this); a collinear overlap in any other
    direction is out of contract and raises.  Overlapping interiors raise.
    """
    if not (a.closed and b.closed):
        raise ValueError("both chains must be closed")
    if _interiors_overlap(a, b):
        raise ValueError("interiors overlap")
    joint = 0.0
    for pa, pb in a.edges():
        for qa, qb in b.edges():
            shared = _edge_overlap(pa, pb, qa, qb)
            if shared is None:
                continue
            ux, uy, lo, hi = shared
            if _lattice_axis(ux, uy) is None:
                raise ValueError("shared edge is not along a lattice direction")
            # on lattice axes the D-length of an edge equals its Euclidean length
            joint += hi - lo
    total = polyline_length(a) + polyline_length(b) - joint
    return total, joint


# ---------------------------------------------------------------------------
# segment predicates


def _orient(a: PlanePoint, b: PlanePoint, c: PlanePoint) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _point_segment_dist(p: PlanePoint, a: PlanePoint, b: PlanePoint) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    px, py = p.x - a.x, p.y - a.y
    d2 = ax * ax + ay * ay
    if d2 == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * ax + py * ay) / d2))
    return math.hypot(px - t * ax, py - t * ay)


def _segments_cross(a: PlanePoint, b: PlanePoint, c: PlanePoint, d: PlanePoint) -> bool:
    # proper crossing only: each segment strictly straddles the other's line
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    eps = GEOM_TOL
    return (
        ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps))
        and ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps))
    )


def _has_self_intersection(vs: tuple[PlanePoint, ...]) -> bool:
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue
            c, d = vs[j], vs[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                return True
            if _edge_overlap(a, b, c, d) is not None:
                return True
    return False


def point_in_polygon(p: Sequence[float], poly: PolyChain) -> bool:
    """True iff p lies strictly inside poly (boundary points excluded)."""
    pt = PlanePoint(float(p[0]), float(p[1]))
    for a, b in poly.edges():
        if _point_segment_dist(pt, a, b) <= GEOM_TOL:
            return False
    inside = False
    for a, b in poly.edges():
        if (a.y > pt.y) != (b.y > pt.y):
            xi = a.x + (pt.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if xi > pt.x:
                inside = not inside
    return inside


def _interiors_overlap(a: PolyChain, b: PolyChain) -> bool:
    for pa, pb in a.edges():
        for qa, qb in b.edges():
            if _segments_cross(pa, pb, qa, qb):
                return True
    for v in a.vertices:
        if point_in_polygon(v, b):
            return True
    for v in b.vertices:
        if point_in_polygon(v, a):
            return True
    return False


def _lattice_axis(ux: float, uy: float) -> int | None:
    # index in 0..2 of the lattice axis (0, 60, 120 degrees) parallel to
    # the unit vector (ux, uy), or None
    for idx in range(3):
        d = LATTICE_DIRECTIONS[idx]
        if abs(ux * d.y - uy * d.x) <= GEOM_TOL:
            return idx
    return None


def _edge_overlap(
    p1: PlanePoint, p2: PlanePoint, q1: PlanePoint, q2: PlanePoint
) -> tuple[float, float, float, float] | None:
    """(ux, uy, lo, hi): the unit direction of p1->p2 and the stretch of it,
    as distances from p1, that segment q1q2 runs along within GEOM_TOL;
    None when that stretch is GEOM_TOL or shorter.  Any direction counts."""
    ux, uy = p2.x - p1.x, p2.y - p1.y
    vx, vy = q2.x - q1.x, q2.y - q1.y
    lu = math.hypot(ux, uy)
    lv = math.hypot(vx, vy)
    if lu == 0.0 or lv == 0.0:
        return None
    ux, uy = ux / lu, uy / lu
    if abs(ux * vy - uy * vx) > GEOM_TOL * lv:
        return None  # not parallel
    off = (q1.x - p1.x) * uy - (q1.y - p1.y) * ux
    if abs(off) > GEOM_TOL:
        return None  # parallel but not collinear
    t1 = (q1.x - p1.x) * ux + (q1.y - p1.y) * uy
    t2 = (q2.x - p1.x) * ux + (q2.y - p1.y) * uy
    lo = max(0.0, min(t1, t2))
    hi = min(lu, max(t1, t2))
    if hi - lo <= GEOM_TOL:
        return None
    return ux, uy, lo, hi
