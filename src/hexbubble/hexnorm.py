"""Metric core for the hexagonal norm.

The norm is D(x, y) = max(|x| + |y|/sqrt(3), 2|y|/sqrt(3)).  Its unit ball
is the regular hexagon with vertices (1, 0), (1/2, sqrt(3)/2), ...,
(1/2, -sqrt(3)/2), so the six directions at multiples of 60 degrees have
D-length equal to Euclidean length.  Every polygon the solver modules
produce has edges only along those directions.

Chain lengths are edge sums of D over consecutive vertex differences; the
double-bubble perimeter of two polygons counts their shared boundary once.
It is defined only for cells with disjoint interiors, and
double_bubble_perimeter raises "interiors overlap" when an edge of one
cell properly crosses an edge of the other, when a vertex or an edge
midpoint of one lies strictly inside the other, or when the two share a
stretch of boundary with both interiors on the same side of it
(coincident or nested cells).  Each test is sound: none fires on cells
whose interiors are disjoint.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

SQRT3 = math.sqrt(3.0)

# Shared-edge / collinearity tolerance, in plane units, absolute: suited to
# O(1) cells.  The inner cell at ratios below ~1e-14 is not one: rounding of
# the O(1) coordinates at its ends tilts its short edges by more than this.
GEOM_TOL = 1e-9

# Consecutive vertices closer than this (per coordinate) are one vertex.
DEDUP_TOL = 1e-12

# A chain's edges as flat float rows; see "edge predicates" below.
_EdgeRows = tuple[tuple[float, ...], ...]


class PlanePoint(NamedTuple):
    x: float
    y: float


# the rules by which PolyChain's certificate proves a closed chain simple
CONVEX = "convex"
NOTCHED = "notched"


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
    construction deterministic.  The origin and non-finite points have no
    sector and raise ValueError.
    """
    x, y = p
    if x == 0.0 and y == 0.0:
        raise ValueError("sector undefined at the origin")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("sector undefined at a non-finite point")
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


def _edge_data(chain: "PolyChain") -> None:
    # the one rows pass, in chain order (a closed chain's closing edge last):
    # one float row per edge (see "edge predicates" below), the edges'
    # D-lengths (hex_norm, inlined) as polyline_length sums them, and the box
    vs = chain._pairs
    rows = []
    norms = []
    ax, ay = vs[0]
    x0 = x1 = ax
    y0 = y1 = ay
    for bx, by in vs[1:] + vs[:1] if chain.closed else vs[1:]:
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        rows.append((
            ax, ay, bx, by, ex, ey, ex * ex + ey * ey,
            length, ex / length, ey / length, GEOM_TOL * length,
        ))
        h = abs(ey) / SQRT3
        d = abs(ex) + h
        norms.append(d if d >= 2.0 * h else 2.0 * h)
        if bx < x0:
            x0 = bx
        elif bx > x1:
            x1 = bx
        if by < y0:
            y0 = by
        elif by > y1:
            y1 = by
        ax, ay = bx, by
    data = chain.__dict__
    data["_rows"] = tuple(rows)
    data["_length"] = math.fsum(norms)
    data["_box"] = (x0, x1, y0, y1)


def _plane_points(chain: "PolyChain") -> None:
    # the vertices as PlanePoints, made from the stored pairs; tuple.__new__
    # skips PlanePoint.__new__
    point = tuple.__new__
    chain.__dict__["vertices"] = tuple([point(PlanePoint, p) for p in chain._pairs])


class _Built:
    """A PolyChain attribute built on first read: build(chain) stores it, with
    any attribute built in the same pass, in the chain's own __dict__, where
    later reads find them before this non-data descriptor.  It is
    functools.cached_property without the lock that Python 3.11 takes."""

    def __init__(self, build) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, chain: "PolyChain", owner: Optional[type] = None):
        if chain is None:
            return self
        self.build(chain)
        return chain.__dict__[self.name]


class PolyChain:
    """Ordered vertex chain; closed chains must be simple polygons.

    Vertices may be any iterable of float pairs.  A single-vertex open
    chain is the degenerate geodesic from a point to itself (length 0).
    Closed chains need three or more vertices, no repeated closing vertex,
    and no self-overlap: no two edges cross or share a stretch, as
    _self_overlaps decides, so a chain that folds back along itself, two
    consecutive edges on one line running opposite ways, is not simple.

    One pass over the vertices converts and checks each, keeps it as a
    plain (x, y) float pair in _pairs and applies the certificate's convex
    rule (see "edge predicates" below).  It notes each side shorter than
    8 GEOM_TOL, which the rule passes only when _isolated finds it between
    two long sides, with a left turn of sine >= 1/4 across it, in a chain
    with no right turn; only a chain with one right turn takes a second
    pass, _notched's hull test.  A closed chain the certificate accepts
    skips the O(n^2) _self_overlaps scan, and records which rule it passed
    in `certified`: CONVEX or NOTCHED (convex but for one notch), or None
    when it declined or the chain is open.

    Two things are built on first read, so a chain that is only measured
    builds no PlanePoint: `vertices`, a tuple of PlanePoints with the same
    floats as _pairs, and the edge data that the metric reads, the rows,
    the D-length and the vertex box, in one pass over the edges.

    A plain frozen class, not a dataclass: assigning or deleting an
    attribute raises dataclasses.FrozenInstanceError, and equality, hash
    and repr are a dataclass's over (vertices, closed).
    """

    __match_args__ = ("vertices", "closed")
    certified = None  # set by __post_init__ when a rule passes

    # built on first read
    vertices = _Built(_plane_points)
    _rows = _Built(_edge_data)
    _length = _Built(_edge_data)
    _box = _Built(_edge_data)

    def __init__(self, vertices: Iterable[Sequence[float]], closed: bool = False) -> None:
        data = self.__dict__
        data["vertices"] = vertices
        data["closed"] = closed
        self.__post_init__()

    def __post_init__(self) -> None:
        data = self.__dict__
        given = tuple(data.pop("vertices"))  # any iterable of pairs, read once
        closed = self.closed
        n = len(given)
        certify = closed and n >= 3  # so far every coordinate within +/-64, and the rule holds
        if certify:  # a closed chain's walk starts on its closing edge
            a, b = given[-2], given[-1]
            ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
        else:  # an open chain's first vertex has no predecessor
            ax = ay = bx = by = math.inf
        fx, fy = bx - ax, by - ay
        fsq = fx * fx + fy * fy
        side = 64.0 * GEOM_TOL * GEOM_TOL  # (8 GEOM_TOL)^2
        r = -1  # the one vertex whose turn is not left with sine >= 1/4
        passes = 0  # edges whose direction passes angle 0
        short = ()  # k for each side pts[k-1] -> pts[k] shorter than 8 GEOM_TOL
        coincide = False  # reported after the non-finite and count errors
        pts: list[tuple[float, float]] = []
        append = pts.append
        for v in given:
            x, y = float(v[0]), float(v[1])
            if not (-64.0 <= x <= 64.0 and -64.0 <= y <= 64.0):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError("non-finite vertex")
                certify = False
            ex, ey = x - bx, y - by
            sq = ex * ex + ey * ey
            if sq < side:  # a coinciding pair is shorter still
                short += (len(pts),)
                if abs(ex) <= DEDUP_TOL and abs(ey) <= DEDUP_TOL:
                    coincide = True
            c = fx * ey - fy * ex  # the turn at (bx, by)
            if not (c > 0.0 and 16.0 * c * c >= fsq * sq):
                # a second such turn, a left one, or a right one of sine at
                # most 2 GEOM_TOL (side / 16 = (2 GEOM_TOL)^2) declines
                if c >= 0.0 or r >= 0 or 16.0 * c * c <= side * fsq * sq:
                    certify = False
                r = len(pts) - 1 if pts else n - 1
            if fy < 0.0 <= ey:
                passes += 1
            append((x, y))
            fx, fy, fsq, bx, by = ex, ey, sq, x, y
        if closed:
            if n < 3:
                raise ValueError("closed chain needs at least 3 vertices")
        elif not n:
            raise ValueError("chain needs at least 1 vertex")
        if coincide:
            raise ValueError("consecutive vertices coincide")
        data["_pairs"] = tuple(pts)
        if closed:
            if certify and short:
                certify = r < 0 and _isolated(pts, short)
            if certify:
                certify = _notched(pts, r) if r >= 0 else CONVEX if passes == 1 else None
            if certify:
                data["certified"] = certify
            elif _self_overlaps(self._rows):
                raise ValueError("closed chain is not simple")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # equality and hash read _pairs, which compare and hash as the PlanePoints do
    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return (self._pairs, self.closed) == (other._pairs, other.closed)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._pairs, self.closed))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(vertices={self.vertices!r}, closed={self.closed!r})"

    def edges(self) -> Iterator[tuple[PlanePoint, PlanePoint]]:
        vs = self.vertices
        return zip(vs, vs[1:] + vs[:1] if self.closed else vs[1:])


def merge_vertices(points: Iterable[Sequence[float]], closed: bool) -> list[tuple[float, float]]:
    """Points as float pairs, consecutive near-duplicates merged.

    For closed chains a repeated final vertex is dropped.  Degenerate side
    lengths (boundary cases of the solvers) thus collapse cleanly.
    """
    pts: list[tuple[float, float]] = []
    px = py = math.inf  # the last point kept; the first point has none
    for p in points:
        x, y = float(p[0]), float(p[1])
        if not (abs(px - x) <= DEDUP_TOL and abs(py - y) <= DEDUP_TOL):
            pts.append((x, y))
            px, py = x, y
    if closed and len(pts) > 1:
        (fx, fy), (lx, ly) = pts[0], pts[-1]
        if abs(fx - lx) <= DEDUP_TOL and abs(fy - ly) <= DEDUP_TOL:
            pts.pop()
    return pts


def make_chain(points: Iterable[Sequence[float]], closed: bool) -> PolyChain:
    """Build a chain through merge_vertices(points, closed)."""
    return PolyChain(tuple(merge_vertices(points, closed)), closed)


def geodesic_path(p: Sequence[float], q: Sequence[float]) -> PolyChain:
    """Shortest path from p to q using the lattice directions.

    Decomposes q - p = a*u_k + b*u_{k+1} with a, b >= 0 over the two
    unit-ball vertices bounding the sector of q - p, and travels the u_k
    leg first.  The D-length a + b equals hex_norm(q - p); a vanishing leg
    gives a single segment, and p = q gives the one-point chain.

    Nothing in the package calls it; the tests and demo_metric do.
    """
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    dx, dy = qx - px, qy - py
    if hex_norm((dx, dy)) <= DEDUP_TOL:
        return PolyChain(((px, py),), closed=False)
    k = sextant((dx, dy))
    u = LATTICE_DIRECTIONS[k - 1]
    w = LATTICE_DIRECTIONS[k % 6]
    det = u.x * w.y - u.y * w.x
    a = (dx * w.y - dy * w.x) / det
    b = (u.x * dy - u.y * dx) / det
    pts = [(px, py)]
    if a > DEDUP_TOL and b > DEDUP_TOL:
        pts.append((px + a * u.x, py + a * u.y))
    pts.append((qx, qy))
    return PolyChain(tuple(pts), closed=False)


def polyline_length(chain: PolyChain) -> float:
    """Total D-length of the chain; closed chains include the closing edge."""
    return chain._length


def polygon_area(chain: PolyChain) -> float:
    """Enclosed (shoelace) area of a closed chain, orientation-independent."""
    if not chain.closed:
        raise ValueError("area requires a closed chain")
    s = math.fsum([ax * by - bx * ay for ax, ay, bx, by, _, _, _, _, _, _, _ in chain._rows])
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

    def contains(self, p: Sequence[float]) -> bool:
        x, y = p
        rise = y - SQRT3 * x
        fall = y + SQRT3 * x
        return (
            self.rise_lo - GEOM_TOL <= rise <= self.rise_hi + GEOM_TOL
            and self.fall_lo - GEOM_TOL <= fall <= self.fall_hi + GEOM_TOL
            and self.flat_lo - GEOM_TOL <= y <= self.flat_hi + GEOM_TOL
        )


def circumscribing_hexagon(chain: PolyChain) -> HexRegion:
    """Smallest HexRegion containing the chain's vertices.

    Each of the six support lines touches the vertex set, so for a convex
    input the region's D-perimeter never exceeds the input's.

    Nothing in the package calls it; the tests and demo_metric do.
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
    once in total.  The interiors count as overlapping, and raise
    "interiors overlap", when

    - an edge of one chain properly crosses an edge of the other;
    - a vertex or an edge midpoint of one chain lies strictly inside the
      other (farther than GEOM_TOL from its boundary); or
    - the chains share a stretch of boundary along which both interiors
      lie on the same side (their edges run the same way once both chains
      are read counterclockwise), as coincident or nested cells do.

    Shared edges must lie along lattice directions (every valid
    configuration satisfies this); a shared stretch in any other direction
    is out of contract and raises, after the overlap tests.
    """
    if not (a.closed and b.closed):
        raise ValueError("both chains must be closed")
    ra, rb = a._rows, b._rows
    crossed, stretches = _contacts(ra, rb)
    if crossed or _any_point_inside(ra, b) or _any_point_inside(rb, a):
        raise ValueError("interiors overlap")
    joint = 0.0
    if stretches:
        # a certified chain is counterclockwise
        turn = (
            1.0 if a.certified and b.certified
            else _orientation(ra) * _orientation(rb)
        )
        off_lattice = False
        for i, j, lo, hi in stretches:
            ux, uy = ra[i][8], ra[i][9]  # unit vector of a's edge i
            fx, fy = rb[j][4], rb[j][5]  # vector of b's edge j
            if (ux * fx + uy * fy) * turn > 0.0:
                raise ValueError("interiors overlap")  # both interiors on one side
            if not _on_lattice_axis(ux, uy):
                off_lattice = True
            # on lattice axes the D-length of an edge equals its Euclidean length
            joint += hi - lo
        if off_lattice:
            raise ValueError("shared edge is not along a lattice direction")
    total = polyline_length(a) + polyline_length(b) - joint
    return total, joint


def shared_segments(a: PolyChain, b: PolyChain) -> list[tuple[PlanePoint, PlanePoint]]:
    """Boundary stretches the chains share, as segments of a's edges.  Unlike
    double_bubble_perimeter this tests no interiors and allows any direction."""
    rows = a._rows
    segs = []
    for i, _, lo, hi in _contacts(rows, b._rows)[1]:
        x, y, _, _, _, _, _, _, ux, uy, _ = rows[i]
        segs.append((PlanePoint(x + lo * ux, y + lo * uy), PlanePoint(x + hi * ux, y + hi * uy)))
    return segs


def point_in_polygon(p: Sequence[float], poly: PolyChain) -> bool:
    """True iff finite p lies strictly inside closed chain poly (boundary excluded)."""
    if not poly.closed:
        raise ValueError("point_in_polygon requires a closed chain")
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("point_in_polygon needs a finite point")
    return _strictly_inside(x, y, poly._rows)


# ---------------------------------------------------------------------------
# edge predicates over flat edge rows
#
# A chain's rows, built by PolyChain on first read, hold per edge from
# (ax, ay) to (bx, by) the floats (ax, ay, bx, by, ex, ey, sq, length, ux,
# uy, tol): the edge vector e = b - a, sq = ex*ex + ey*ey, length =
# hypot(ex, ey), the unit vector u = e/length and tol = GEOM_TOL*length.
# The same pass sums the edges' D-lengths (polyline_length, exactly
# rounded by fsum, so in any order) and takes the vertices' box.  The
# loops below unpack rows in place of calling a helper per edge pair.
#
# Three tests skip work by bounding boxes.  Each skip is exact, since a
# skipped pair or point could not have passed the test it skips:
#
# - _contacts skips edge i of p and edge j of q when i's box misses j's
#   box padded by GEOM_TOL * (2 + j's length).  A proper crossing needs no
#   pad: its determinants lie beyond +/-GEOM_TOL, so the segments really
#   meet.  A stretch needs j's start within GEOM_TOL of i's line (off) and
#   j tilted from it by at most GEOM_TOL (cross <= j's tol), so some point
#   of j lies within GEOM_TOL * (1 + j's length) of a point of i; the
#   second GEOM_TOL covers the rounding of off, cross and t.
# - _strictly_inside skips the distance to an edge, not the ray crossing,
#   when the point lies outside the edge's box widened by 2 GEOM_TOL: it is
#   then more than 2 GEOM_TOL from the edge.  The margin beyond GEOM_TOL
#   keeps the rounding of px - ax from flipping a decision at GEOM_TOL.
# - _any_point_inside skips points outside the whole chain's box widened
#   by GEOM_TOL (see its docstring).
#
# "Rounding" here is a few ulp of the coordinates, far below GEOM_TOL for
# coordinates well under GEOM_TOL / 2**-52 (about 4.5e6); solver cells are
# O(1).  Horizontal edges have boxes of zero height, so no pad may be 0.
#
# Two tests read what PolyChain recorded from its certificate (below),
# which passes only chains with coordinates within +/-64:
#
# - double_bubble_perimeter skips _orientation when both chains are
#   certified, since each is then counterclockwise.  A convex chain turns
#   left at every vertex and winds once.  A notched chain is its convex
#   hull less the triangle p r q; for each hull edge e but the chord, the
#   triangle of e and r lies in the chain, as r sees the hull vertices in
#   counterclockwise order.  Twice the area of a chain of width w is then
#   at least GEOM_TOL * w / 12: a convex chain has at most 24 edges, its
#   longest edge is not a short side (those lie between long ones), and
#   some vertex stands 2 GEOM_TOL off that edge's line (see below: only
#   the far end of a short neighbour may stand lower, and a certified
#   chain with a short side has four or more sides); and r lies
#   GEOM_TOL * (8 + |e|) inside each hull edge line.  _orientation's sum,
#   twice the area, rounds by under 1e-11 w + 1e-13 w^2 within +/-64, so
#   it stays positive.
# - _inside_convex tests a point against a CONVEX chain by the height of
#   the point above each edge line, c / length with c = ex * (py - ay) -
#   ey * (px - ax), and exits at the first height of at most 0.75 GEOM_TOL.
#   In exact arithmetic a point inside a convex polygon is as far from
#   its boundary as from the nearest edge line, so _strictly_inside's
#   answer is "every height exceeds GEOM_TOL", and the ray crossing agrees
#   with it, as the point is then at least GEOM_TOL from every crossing.
#   The points tested lie in the chain's box widened by GEOM_TOL, within
#   +/-65, so a height and _strictly_inside's distance each round by under
#   1e-12.  That holds for a short side too: its c rounds by a few ulp of
#   130 times its length, the length it is divided by, and its distance is
#   taken only for points within 2 GEOM_TOL of its box.  Only a height
#   within a quarter GEOM_TOL of GEOM_TOL, where the two might round to
#   different sides, defers to _strictly_inside.  A point behind a notch
#   is inside the chain but off a notch edge's line, so NOTCHED chains take
#   _strictly_inside.
#
# The certificate answers "simple" in O(n), and only where _self_overlaps
# would find nothing; otherwise it declines.  It needs every coordinate
# within +/-64, every side at least s = 8 GEOM_TOL long but the short ones
# the convex rule's clause passes, and one of two rules:
#
# - Convex: every turn is left with sine at least 1/4 (turns of 14.5 to
#   165.5 degrees), and the edge directions wind once.  With every turn in
#   (0, pi) the direction passes angle 0 once per winding, at the edges
#   whose y goes from < 0 to >= 0, so counting those needs no atan2.
#   Short-side clause: a side shorter than s (and not coinciding, so
#   longer than DEDUP_TOL) passes when both of its neighbours are at least
#   s long and the turn across it, from the side before it to the side
#   after it, is also left with sine at least 1/4.  The turns at its two
#   ends pass the rule as every turn does.  The nested inner cell's
#   horizontal sides, about 1.86 alpha, take this clause for alpha from
#   about 5.4e-13 to 4.3e-9.
# - One notch: one turn fails that, a right turn at vertex r between p and
#   q.  The hull, the chain without r (the chord p -> q in place of the two
#   notch edges), passes the convex rule, and r lies farther than
#   GEOM_TOL * (8 + |e|) inside the line of each hull edge e.  The turn at
#   r has sine above 2 GEOM_TOL, so the notch is no spike whose two edges
#   run within GEOM_TOL of each other.  Every side is at least s long: a
#   chain with a right turn never takes the short-side clause.
#
# PolyChain's one pass takes every side and turn, the last vertex's too,
# as its walk starts on the closing edge; each rule is over all of them,
# so the order changes no answer.  A chain with exactly one failing turn,
# a right one, then takes _notched's hull pass.
#
# Why _self_overlaps then finds nothing: _contacts(rows, rows) reports no
# crossing, and no stretch between two different edges.  The determinants
# of _contacts are products of two coordinate differences, below 2**15 in
# size, so they round by about 2**15 * 2**-51 (1.5e-11); its other
# expressions and the certificate's relative tests round by less, and
# every step below has that slack.  That is why the range is +/-64, not
# 4.5e6.  A chain whose turns all lie in (0, pi) and add up to 2 pi is a
# convex polygon: every vertex lies left of every edge line, and along the
# chain a vertex's height above edge k's line rises, then falls.  So the
# vertices off edge k are at least s * sin(turn) >= 2 GEOM_TOL above its
# line (the lowest are those next to k's ends).  A short side changes that
# in one place.  When k's neighbour is short, the neighbour's far end may
# lie lower; but the vertex after it ends a long side that leaves k's
# direction by the turn across the short side, so it stands at least s/4 =
# 2 GEOM_TOL above k's line, and the vertices beyond it stand higher until
# the heights fall towards k's other end.  When k itself is short, its
# neighbours are long and the turns at its ends pass the rule, so the
# vertices next to its ends stand 2 GEOM_TOL above its line, as for a long
# side.  So every vertex off edge k but the far end of a short neighbour is
# 2 GEOM_TOL above k's line.  Edges i and j, i first:
#
# - Adjacent: they do not cross, since at their shared vertex one
#   determinant is exactly 0 (a zero difference, or fx*fy - fy*fx), and
#   they are not parallel: the turn between them has sine at least 1/4, or
#   above 2 GEOM_TOL at a notch, so |cross| > j's tol.  The cross product
#   and that sine are taken from the same coordinate differences, and both
#   round by a few ulp relative to |i| |j|, far below the margin.
# - Convex, not adjacent: they do not cross, since i's ends lie on j's
#   left (d1 and d2 are not negative beyond rounding), and they share no
#   stretch, since j's start is 2 GEOM_TOL from i's line (|off| >
#   GEOM_TOL).  With a short side the one exception is j = i + 2 around the
#   chain, with i + 1 short, whose start is the short side's far end: j
#   leaves i's direction by the turn across i + 1, so |cross| >= |j| / 4 >
#   j's tol, and they are not parallel.  (The far end of a short i - 1
#   starts i - 1 itself, which is adjacent to i.)
# - Notch, two hull edges: as in the convex case.
# - Notch edge N against a hull edge k not adjacent to it: N's ends lie
#   left of k's line, the hull vertex (p or q) by 2 GEOM_TOL and r by
#   more, so they do not cross, and when k comes first N's start is off
#   k's line.  When N comes first, a stretch needs k's start c within
#   GEOM_TOL of N's line, at position t along it.  If t falls on N, c is
#   within GEOM_TOL of N, all of whose points are 2 GEOM_TOL above k's
#   line.  If t falls beyond N's hull vertex, c is within GEOM_TOL of a
#   point outside the chord's line, as N runs from that vertex into the
#   hull; but c, a hull vertex other than p and q, is 2 GEOM_TOL inside
#   that line.  If t falls beyond r, the point of k that projects onto r is
#   within GEOM_TOL * (1 + |k|) of r, since k starts within GEOM_TOL of
#   N's line and tilts from it by at most GEOM_TOL; but r is
#   GEOM_TOL * (8 + |k|) inside k's line.  That last case is why the depth
#   grows with |k|: with r only 8 GEOM_TOL inside, a notch edge 10 long
#   can run within GEOM_TOL of a hull edge 20 long, which _self_overlaps
#   takes for a shared stretch.


def _contacts(rp: _EdgeRows, rq: _EdgeRows) -> tuple[bool, list[tuple[int, int, float, float]]]:
    """(crossed, stretches) over every edge i of edge rows rp and edge j of
    edge rows rq.

    crossed: some i and j properly cross, each one's endpoints lying
    strictly on opposite sides of the other's line, by more than GEOM_TOL
    in the orientation determinant; an edge never crosses itself or an
    edge it shares a vertex with.  stretches: (i, j, lo, hi) for each i
    and j along one line within GEOM_TOL for longer than GEOM_TOL, in any
    direction, [lo, hi] being that stretch as distances along i, in the
    order of i, then j."""
    eps, neg = GEOM_TOL, -GEOM_TOL
    crossed = False
    stretches = []
    # q's edge boxes, padded by GEOM_TOL * (2 + length)
    boxes = []
    for j, (cx, cy, dx, dy, _, _, _, flen, _, _, _) in enumerate(rq):
        pad = GEOM_TOL * (2.0 + flen)
        x0, x1 = (cx, dx) if cx <= dx else (dx, cx)
        y0, y1 = (cy, dy) if cy <= dy else (dy, cy)
        boxes.append((j, x0 - pad, x1 + pad, y0 - pad, y1 + pad))
    for i, (ax, ay, bx, by, ex, ey, _, length, ux, uy, _) in enumerate(rp):
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        for j, jx0, jx1, jy0, jy1 in boxes:
            if jx0 > x1 or jx1 < x0 or jy0 > y1 or jy1 < y0:
                continue  # too far apart to cross or share a stretch
            cx, cy, dx, dy, fx, fy, _, _, _, _, ftol = rq[j]
            d1 = fx * (ay - cy) - fy * (ax - cx)
            d2 = fx * (by - cy) - fy * (bx - cx)
            if (d1 > eps and d2 < neg) or (d1 < neg and d2 > eps):
                d3 = ex * (cy - ay) - ey * (cx - ax)
                d4 = ex * (dy - ay) - ey * (dx - ax)
                if (d3 > eps and d4 < neg) or (d3 < neg and d4 > eps):
                    crossed = True
            cross = ux * fy - uy * fx
            if cross > ftol or cross < -ftol:
                continue  # not parallel
            wx, wy = cx - ax, cy - ay
            off = wx * uy - wy * ux
            if off > eps or off < neg:
                continue  # parallel but not collinear
            t1 = wx * ux + wy * uy
            t2 = (dx - ax) * ux + (dy - ay) * uy
            lo = max(0.0, min(t1, t2))
            hi = min(length, max(t1, t2))
            if hi - lo <= eps:
                continue  # they meet in a point at most
            stretches.append((i, j, lo, hi))
    return crossed, stretches


def _self_overlaps(rows: _EdgeRows) -> bool:
    """True iff two edges i < j of a closed chain properly cross or share a
    stretch, by _contacts(rows, rows).  Adjacent edges never cross, and
    share a stretch only where the chain folds back along itself; a
    straight continuation meets its neighbour in a point."""
    crossed, stretches = _contacts(rows, rows)
    return crossed or any(i < j for i, j, _, _ in stretches)


def _isolated(pts: list[tuple[float, float]], short: tuple[int, ...]) -> bool:
    """True iff in closed chain pts each side pts[k-1] -> pts[k], k in short,
    lies between two sides at least 8 GEOM_TOL long, and the turn across it,
    from the side before it to the side after it, is left with sine >= 1/4
    (the convex rule's short-side clause above)."""
    side = 64.0 * GEOM_TOL * GEOM_TOL  # (8 GEOM_TOL)^2
    n = len(pts)
    for k in short:
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[k - 2], pts[k - 1], pts[k], pts[k + 1 - n]
        fx, fy, ex, ey = bx - ax, by - ay, dx - cx, dy - cy
        fsq, sq = fx * fx + fy * fy, ex * ex + ey * ey
        c = fx * ey - fy * ex
        if not (fsq >= side and sq >= side and c > 0.0 and 16.0 * c * c >= fsq * sq):
            return False
    return True


def _notched(pts: list[tuple[float, float]], r: int) -> Optional[str]:
    """NOTCHED only if closed chain pts, with coordinates within +/-64 and
    every turn but the right turn at vertex r passing the convex rule above,
    passes the one-notch rule's hull test; None declines."""
    if len(pts) < 4:
        return None
    # one notch, a right turn at r: the hull, the chain without r, runs from
    # q around to p and closes with the chord p -> q; its turns other than
    # at p and q are the chain's own
    hull = pts[r + 1:] + pts[:r]
    (ax, ay), (px, py), (qx, qy), (bx, by) = hull[-2], hull[-1], hull[0], hull[1]
    cx, cy = qx - px, qy - py
    csq = cx * cx + cy * cy
    fx, fy, ex, ey = px - ax, py - ay, bx - qx, by - qy
    c1, c2 = fx * cy - fy * cx, cx * ey - cy * ex
    if not (
        csq >= 64.0 * GEOM_TOL * GEOM_TOL  # (8 GEOM_TOL)^2
        and c1 > 0.0 and 16.0 * c1 * c1 >= (fx * fx + fy * fy) * csq
        and c2 > 0.0 and 16.0 * c2 * c2 >= csq * (ex * ex + ey * ey)
    ):
        return None
    rx, ry = pts[r]
    tol2 = GEOM_TOL * GEOM_TOL
    passes = 0
    ax, ay = px, py
    for bx, by in hull:
        ex, ey = bx - ax, by - ay
        if fy < 0.0 <= ey:
            passes += 1
        # r's depth d = c/|e|; d^2 > GEOM_TOL^2 * 2 * (64 + |e|^2) gives
        # d > GEOM_TOL * (8 + |e|), as (8 + |e|)^2 <= 2 * (64 + |e|^2)
        sq = ex * ex + ey * ey
        c = ex * (ry - ay) - ey * (rx - ax)
        if not (c > 0.0 and c * c > tol2 * (128.0 + 2.0 * sq) * sq):
            return None
        fy, ax, ay = ey, bx, by
    return NOTCHED if passes == 1 else None


def _strictly_inside(px: float, py: float, rows: _EdgeRows) -> bool:
    """True iff (px, py) is farther than GEOM_TOL from every edge and a ray
    from it toward +x crosses the chain an odd number of times."""
    inside = False
    pad, neg = 2.0 * GEOM_TOL, -2.0 * GEOM_TOL
    for ax, ay, bx, by, ex, ey, sq, _, _, _, _ in rows:
        qx, qy = px - ax, py - ay
        # distance to the edge only within its box widened by 2 GEOM_TOL
        # (qx - ex and qy - ey stand for px - bx and py - by)
        if not (
            (qx > pad and qx - ex > pad) or (qx < neg and qx - ex < neg)
            or (qy > pad and qy - ey > pad) or (qy < neg and qy - ey < neg)
        ):
            t = (qx * ex + qy * ey) / sq
            if not t < 1.0:  # t = max(0.0, min(1.0, t))
                t = 1.0
            elif t <= 0.0:
                t = 0.0
            if math.hypot(qx - t * ex, qy - t * ey) <= GEOM_TOL:
                return False
        if (ay > py) != (by > py) and ax + (py - ay) * ex / ey > px:
            inside = not inside
    return inside


def _inside_convex(px: float, py: float, rows: _EdgeRows) -> bool:
    """_strictly_inside(px, py, rows) for a chain certified CONVEX, by the
    half-planes of its edges; a height above an edge line within a quarter
    GEOM_TOL of GEOM_TOL defers to _strictly_inside (see "edge predicates")."""
    near = False
    for ax, ay, _, _, ex, ey, _, _, _, _, tol in rows:
        c = ex * (py - ay) - ey * (px - ax)  # the height above the line, times length
        if c <= 1.25 * tol:
            if c <= 0.75 * tol:
                return False
            near = True
    return _strictly_inside(px, py, rows) if near else True


def _any_point_inside(rp: _EdgeRows, q: PolyChain) -> bool:
    """True iff a vertex or an edge midpoint of closed chain rp lies strictly
    inside closed chain q.  Points outside q's bounding box widened by
    GEOM_TOL are skipped, which is exact: such a point is more than
    GEOM_TOL from every edge of q, and a horizontal ray from it meets q
    either nowhere or at every edge that crosses its level, and a closed
    chain crosses any level an even number of times."""
    rq = q._rows
    inside = _inside_convex if q.certified is CONVEX else _strictly_inside
    x0, x1, y0, y1 = q._box
    x0, x1, y0, y1 = x0 - GEOM_TOL, x1 + GEOM_TOL, y0 - GEOM_TOL, y1 + GEOM_TOL
    for ax, ay, bx, by, _, _, _, _, _, _, _ in rp:
        if x0 <= ax <= x1 and y0 <= ay <= y1 and inside(ax, ay, rq):
            return True
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        if x0 <= mx <= x1 and y0 <= my <= y1 and inside(mx, my, rq):
            return True
    return False


def _orientation(rows: _EdgeRows) -> float:
    # +1.0 for a counterclockwise closed chain, -1.0 for a clockwise one: the
    # sign of the shoelace sum taken about the first vertex, which keeps the
    # products small for small cells far from the origin
    x0, y0 = rows[0][0], rows[0][1]
    s = 0.0
    for ax, ay, bx, by, _, _, _, _, _, _, _ in rows:
        s += (ax - x0) * (by - y0) - (bx - x0) * (ay - y0)
    return 1.0 if s > 0.0 else -1.0


def _on_lattice_axis(ux: float, uy: float) -> bool:
    # the unit vector (ux, uy) is parallel to the 0, 60 or 120 degree axis:
    # its cross product with (1, 0), (1/2, sqrt(3)/2) or (-1/2, sqrt(3)/2)
    # is within GEOM_TOL of 0
    h, v = ux * (SQRT3 / 2.0), 0.5 * uy
    return abs(uy) <= GEOM_TOL or abs(h - v) <= GEOM_TOL or abs(h + v) <= GEOM_TOL
