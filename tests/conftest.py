"""Shared helpers for the test suite."""

import math
import os
import sys
from pathlib import Path

import hexbubble
from hexbubble.hexnorm import PolyChain, make_chain
from hexbubble.oracle import Lcg

SQRT3 = math.sqrt(3.0)


def unit_ball_hexagon(dx: float = 0.0, dy: float = 0.0) -> PolyChain:
    """Regular hexagon with vertices on the unit circle (side 1), shifted."""
    pts = [
        (1.0 + dx, 0.0 + dy),
        (0.5 + dx, SQRT3 / 2.0 + dy),
        (-0.5 + dx, SQRT3 / 2.0 + dy),
        (-1.0 + dx, 0.0 + dy),
        (-0.5 + dx, -SQRT3 / 2.0 + dy),
        (0.5 + dx, -SQRT3 / 2.0 + dy),
    ]
    return make_chain(pts, closed=True)


def random_convex_polygon(rng: Lcg, max_points: int = 12) -> PolyChain:
    """Counterclockwise convex hull of a handful of random points."""
    n = 5 + rng.next_u64() % (max_points - 4)
    pts = sorted((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 1e-12:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return make_chain(hull, closed=True)


def golden_min_1d(f, a: float, b: float, iters: int = 200):
    """Plain golden-section minimum of a unimodal f on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def answer(call):
    """call(), or None where it raises ValueError."""
    try:
        return call()
    except ValueError:
        return None


def finite_floats(st):
    """Hypothesis strategy over every finite double, with log-uniform
    magnitudes up to the largest; st is hypothesis.strategies."""
    big = sys.float_info.max
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-10.0, max_value=308.25).map(lambda e: min(big, 10.0**e)),
    )


def child_env() -> dict:
    """The environment with the hexbubble under test first on PYTHONPATH."""
    src_dir = Path(hexbubble.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p
    )
    return env
