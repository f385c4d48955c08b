"""50-digit references for the transition ratio, the P3 minimizer and the
nested (rho1 and rho2) minimizers.

The references come from the closed forms alone, solved with mpmath's
`findroot`; nothing here calls the solver to build them.  Near alpha0
(above the 1/8 handoff) the embedded value is the rho1 convex minimum and
the kissing value is the P3 minimum, so

    g(alpha) = min_L [sqrt(8 sqrt(3) + 3 L^2) + L/2 + 4 sqrt(3) alpha / (3 L)]
             - min_L [sqrt(7/3) (sqrt(3 L^2 + 4 sqrt(3)) + sqrt(3 L^2 + 4 sqrt(3) alpha)) - 3 L].

The degree-8 route and the grid oracle check the same quantities in
double precision in test_kissing.py and test_acceptance.py, whether or
not mpmath is installed.
"""

import math

import pytest

from hexbubble.embedded import minimize_rho1, rho2_minimum
from hexbubble.kissing import p3_minimizer
from hexbubble.oracle import Lcg
from hexbubble.solver import find_alpha0

mp = pytest.importorskip("mpmath")

DIGITS = 50


def _rho1_min(alpha):
    s3 = mp.sqrt(3)
    c = 4 * s3 * alpha / 3
    L = mp.findroot(lambda L: 3 * L / mp.sqrt(8 * s3 + 3 * L * L) + mp.mpf(1) / 2 - c / L**2, mp.sqrt(c))
    return mp.sqrt(8 * s3 + 3 * L * L) + L / 2 + c / L


def _nested_root(a, c):
    # stationary point of sqrt(a + 3 L^2) + L/2 + c/L, solved in z = L/sqrt(c):
    # z stays near sqrt(2) however small c is, where a start at L = sqrt(c)
    # leaves findroot off by up to 1e176 ulp at the tiniest ratios
    rc = mp.sqrt(c)
    z = mp.findroot(
        lambda z: 3 * rc * z / mp.sqrt(a + 3 * c * z * z) + mp.mpf(1) / 2 - 1 / z**2,
        mp.mpf("1.2"),
    )
    return rc * z


def _p3_root(alpha):
    s3 = mp.sqrt(3)
    w = mp.sqrt(mp.mpf(7) / 3)
    return mp.findroot(
        lambda L: 3 * w * L * (1 / mp.sqrt(4 * s3 + 3 * L * L) + 1 / mp.sqrt(4 * s3 * alpha + 3 * L * L)) - 3,
        mp.sqrt(12 * s3 / 19),
    )


def _p3_min(alpha):
    s3 = mp.sqrt(3)
    w = mp.sqrt(mp.mpf(7) / 3)
    L = _p3_root(alpha)
    return w * (mp.sqrt(3 * L * L + 4 * s3) + mp.sqrt(3 * L * L + 4 * s3 * alpha)) - 3 * L


def test_find_alpha0_lands_on_the_50_digit_root():
    with mp.workdps(DIGITS):
        alpha0 = mp.findroot(lambda a: _rho1_min(a) - _p3_min(a), mp.mpf("0.15"))
        assert abs(alpha0 - mp.mpf("0.152457211433471419015546700016683880096")) <= mp.mpf("1e-38")
        # the double nearest the root lies within half an ulp of it
        nearest = float(alpha0)
        assert abs(mp.mpf(nearest) - alpha0) <= mp.mpf(math.ulp(nearest)) / 2
        rng = Lcg(6)
        # g decreases at lo = 0.001, 0.01 and 0.03, below the 1/8 handoff
        brackets = [(0.1, 0.3), (0.001, 0.3), (0.01, 0.3), (0.03, 0.3)] + [
            (rng.uniform(0.10, 0.15), rng.uniform(0.155, 0.30)) for _ in range(32)
        ]
        for lo, hi in brackets:
            assert find_alpha0(lo, hi) == nearest, (lo, hi)
    assert "%.12g" % find_alpha0() == "0.152457211433"


def test_p3_minimizer_within_4_ulp_of_the_50_digit_root():
    ratios = [0.125 + 0.875 * k / 300 for k in range(301)]
    with mp.workdps(DIGITS):
        for alpha in ratios:
            L, _ = p3_minimizer(alpha)
            assert abs(mp.mpf(L) - _p3_root(mp.mpf(alpha))) <= 4 * math.ulp(L), alpha


def test_p3_minimizer_below_the_handoff_against_the_50_digit_root():
    # kissing_minimum serves the unequal candidate below 1/8, but P3's
    # closed form answers there too; 9.02 ulp is the worst the Newton route
    # it replaced reached on these draws, its rounding noise in dP3/dL
    rng = Lcg(14)
    ratios = [10.0 ** rng.uniform(-300.0, math.log10(0.125)) for _ in range(300)]
    with mp.workdps(DIGITS):
        for alpha in ratios:
            L, _ = p3_minimizer(alpha)
            assert abs(mp.mpf(L) - _p3_root(mp.mpf(alpha))) <= 9.02 * math.ulp(L), alpha


def test_nested_minimizers_within_2_ulp_of_the_50_digit_root():
    rng = Lcg(12)
    ratios = [10.0 ** (-300.0 * rng.uniform()) for _ in range(300)]  # log-uniform in [1e-300, 1]
    ratios += [1.0 - rng.uniform() for _ in range(300)]  # uniform in (0, 1]
    ratios += [0.125, 2.0 / 3.0, find_alpha0(), 1.0]
    # the interior rho2 branch, uniform in (2/3, 1]
    betas = [1.0 - rng.uniform() / 3.0 for _ in range(300)] + [1.0]
    with mp.workdps(DIGITS):
        s3 = mp.sqrt(3)
        for alpha in ratios:
            L = minimize_rho1(alpha)[0]
            root = _nested_root(8 * s3, 4 * s3 * mp.mpf(alpha) / 3)
            assert abs(mp.mpf(L) - root) <= 2 * math.ulp(L), alpha
        for beta in betas:
            L = rho2_minimum(beta)[0]
            root = _nested_root(8 * s3 * mp.mpf(beta), 4 * s3 / 3)
            assert abs(mp.mpf(L) - root) <= 2 * math.ulp(L), beta
