"""The value path against its written formulas, and the minima's records.

Each case's minimum has a value routine and a record routine:
rho1_minimizer (L1*, value) and minimize_rho1 (L1*, L2*, value) for the
nested pair, kissing.kissing_value and kissing_minimum (L1, L2, value,
branch) for the glued pair; solver.embedded_value and solver.kissing_value
read the value routines.  All of them hoist their constants to module
level, and the records are built with tuple.__new__.  The reference route
below writes every expression out in full, with no constant hoisted and
min() where the modules use a conditional.  Values, records and the
written route must agree bit for bit, a value routine must raise what its
record routine raises, and the records must keep the NamedTuple contract.
"""

import math
import pickle

import pytest

from hexbubble import kissing, solver
from hexbubble.embedded import EmbeddedSolution, minimize_rho1, rho1_minimizer
from hexbubble.kissing import (
    BRANCH_EQUAL,
    BRANCH_UNEQUAL,
    KissingSolution,
    kissing_minimum,
)
from hexbubble.singlebubble import (
    REGIME_FOUR,
    REGIME_SIX,
    SingleBubbleSolution,
    check_alpha,
    solve_fixed_side,
)

SQRT3 = math.sqrt(3.0)

# ---------------------------------------------------------------- reference route


def _cubic_min_written(a, c, hi):
    # embedded._cubic_min with its two min() calls
    b = 0.5 + 3.0 * c / a
    s = math.sqrt(9.0 * c / a)
    disc = 0.25 * s * s - b * b * b / 27.0
    if disc < 0.0:
        r = math.sqrt(b / 3.0)
        y = 2.0 * r * math.cos(math.acos(min(1.0, s / (2.0 * r * r * r))) / 3.0)
    else:
        u = (0.5 * s + math.sqrt(disc)) ** (1.0 / 3.0)
        y = u + b / (3.0 * u)
    z = 1.0 / y
    z -= ((s * z + b) * z * z - 1.0) / ((3.0 * s * z + 2.0 * b) * z)
    x = min(math.sqrt(c / (s * z + 0.5)), hi)
    return x, math.sqrt(a + 3.0 * x * x) + 0.5 * x + c / x


def _rho1_minimum_written(alpha):
    c = 4.0 * SQRT3 * alpha / 3.0
    hi = min(math.sqrt(2.0 * c), math.sqrt(4.0 * SQRT3 / 3.0))
    L1, value = _cubic_min_written(8.0 * SQRT3, c, hi)
    return L1, math.sqrt(8.0 * SQRT3 + 3.0 * L1 * L1) / 3.0, value


def _p3_written(alpha):
    e = 1.0 - alpha
    if e == 0.0:
        t = 1.0
    else:
        h = 9261.0 * 9.0 / 28.0 * alpha * e
        e3 = e * e * e
        u = (e3 + h + math.sqrt(h * (2.0 * e3 + h))) ** (1.0 / 3.0)
        mu = (u + e * e / u + e) / 21.0
        m = math.sqrt(alpha + mu * mu)
        if alpha > mu:
            k = alpha * (e + 2.0 * mu) / (m * (m + alpha - mu))
        else:
            k = (m + mu - alpha) / m
        q = m + mu
        t = 2.0 * q / (k + math.sqrt(k * k + 4.0 * q))
    x = t * math.sqrt(12.0 * SQRT3 / (7.0 + 2.0 * t * (7.0 - t)))
    p = 7.0 * x * x
    volume_term = 28.0 * SQRT3 / 3.0
    return x, math.sqrt(p + volume_term) + math.sqrt(p + volume_term * alpha) - 3.0 * x


def _kissing_minimum_written(alpha):
    if alpha < 0.125 * (1.0 - 1e-12):
        perimeter = 2.0 * 3.0 ** 0.25 * (math.sqrt(2.0) + math.sqrt(alpha))
        L1 = math.sqrt(4.0 * SQRT3 / 18.0)
        L2 = math.sqrt(4.0 * SQRT3 * alpha * 4.0 / 9.0)
        return L1, L2, perimeter, BRANCH_UNEQUAL
    L, perimeter = _p3_written(alpha)
    return L, L, perimeter, BRANCH_EQUAL


def _hex(values):
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _assert_value_path_matches(alpha):
    # the records against the written route, and each value routine against
    # the written value, so against its record's field too
    L1, L2, value = _rho1_minimum_written(alpha)
    assert _hex(minimize_rho1(alpha)) == _hex((L1, L2, value))
    assert _hex(rho1_minimizer(alpha)) == _hex((L1, value))
    assert solver.embedded_value(alpha).hex() == value.hex()
    glued = _kissing_minimum_written(alpha)
    assert _hex(kissing_minimum(alpha)) == _hex(glued)
    assert kissing.kissing_value(alpha).hex() == glued[2].hex()
    assert solver.kissing_value(alpha).hex() == glued[2].hex()


def _with_neighbours(*alphas):
    # each ratio and the doubles next to it that are still ratios
    out = []
    for alpha in alphas:
        for x in (math.nextafter(alpha, 0.0), alpha, math.nextafter(alpha, 2.0)):
            if x <= 1.0:
                out.append(x)
    return out


_HANDOFF_EDGE = 0.125 * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "alpha",
    [
        5e-324,
        1e-300,
        1e-17,
        0.15245721143346874,
        # the handoffs: the glued case's _UNEQUAL_BELOW edge, 1/8, alpha0,
        # rho2's 2/3 and the top ratio
        *_with_neighbours(_HANDOFF_EDGE, 0.125, solver.ALPHA0, 2.0 / 3.0, 1.0),
    ],
)
def test_value_path_matches_the_written_formulas_at_the_edges(alpha):
    _assert_value_path_matches(alpha)


def test_value_path_matches_the_written_formulas_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    log_uniform = st.floats(min_value=math.log10(5e-324), max_value=0.0).map(
        lambda e: max(5e-324, 10.0 ** e)
    )
    uniform = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(st.one_of(log_uniform, uniform))
    def check(alpha):
        _assert_value_path_matches(alpha)

    check()


# (value routine, the record routine whose errors it shares)
_VALUE_ROUTINES = {
    "rho1_minimizer": (rho1_minimizer, minimize_rho1),
    "solver.embedded_value": (solver.embedded_value, minimize_rho1),
    "kissing.kissing_value": (kissing.kissing_value, kissing_minimum),
    "solver.kissing_value": (solver.kissing_value, kissing_minimum),
}


@pytest.mark.parametrize("which", list(_VALUE_ROUTINES))
@pytest.mark.parametrize(
    "alpha",
    [0.0, -0.0, -1.0, math.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf, True],
    ids=repr,
)
def test_value_routines_raise_what_their_records_raise(which, alpha):
    value_routine, record_routine = _VALUE_ROUTINES[which]
    with pytest.raises(ValueError) as expected:
        record_routine(alpha)
    with pytest.raises(ValueError) as info:
        value_routine(alpha)
    assert type(info.value) is ValueError
    assert str(info.value) == str(expected.value)


class _Ratio(float):
    """A float subclass: check_alpha's first test does not take it."""


@pytest.mark.parametrize(
    "alpha, error",
    [
        (0.5, None),
        (5e-324, None),
        (1.0, None),
        (1, None),
        (_Ratio(0.5), None),
        (True, (ValueError, "volume ratio must be a real number, not bool")),
        (False, (ValueError, "volume ratio must be a real number, not bool")),
        (0, (ValueError, "volume ratio must lie in (0, 1]")),
        (2, (ValueError, "volume ratio must lie in (0, 1]")),
        (_Ratio(2.0), (ValueError, "volume ratio must lie in (0, 1]")),
        (_Ratio(math.nan), (ValueError, "volume ratio must lie in (0, 1]")),
        (math.nan, (ValueError, "volume ratio must lie in (0, 1]")),
        (math.inf, (ValueError, "volume ratio must lie in (0, 1]")),
        (-math.inf, (ValueError, "volume ratio must lie in (0, 1]")),
        (0.0, (ValueError, "volume ratio must lie in (0, 1]")),
        (-0.0, (ValueError, "volume ratio must lie in (0, 1]")),
        (-0.1, (ValueError, "volume ratio must lie in (0, 1]")),
        (math.nextafter(1.0, 2.0), (ValueError, "volume ratio must lie in (0, 1]")),
        ("x", (TypeError, "must be real number, not str")),
        (None, (TypeError, "must be real number, not NoneType")),
    ],
    ids=repr,
)
def test_check_alpha_table(alpha, error):
    # a float in (0, 1] returns at the first test; everything else keeps
    # the full checks' exception type and text
    if error is None:
        assert check_alpha(alpha) is None
        return
    kind, text = error
    with pytest.raises(kind) as info:
        check_alpha(alpha)
    assert type(info.value) is kind and str(info.value) == text


# ---------------------------------------------------------------- record contract


def _single_bubble_written(L, V):
    if 3.0 * SQRT3 * L * L < 16.0 * V:
        t = math.sqrt((3.0 * L * L + 4.0 * SQRT3 * V) / 21.0)
        x1 = 2.0 * t - L
        return L, V, REGIME_SIX, (x1, t, t, t, x1), 7.0 * t - L
    s = math.sqrt((3.0 * L * L - 4.0 * SQRT3 * V) / 3.0)
    return L, V, REGIME_FOUR, (0.0, L - s, s, L - s, 0.0), 3.0 * L - s


# (record, its class, the field values from the written formulas)
_RECORDS = {
    "embedded": (
        lambda: minimize_rho1(0.05), EmbeddedSolution, lambda: _rho1_minimum_written(0.05)
    ),
    "kissing-unequal": (
        lambda: kissing_minimum(0.05), KissingSolution, lambda: _kissing_minimum_written(0.05)
    ),
    "kissing-equal": (
        lambda: kissing_minimum(0.5), KissingSolution, lambda: _kissing_minimum_written(0.5)
    ),
    "single-six": (
        lambda: solve_fixed_side(1.0, 1.0), SingleBubbleSolution,
        lambda: _single_bubble_written(1.0, 1.0),
    ),
    "single-four": (
        lambda: solve_fixed_side(1.6, 0.5), SingleBubbleSolution,
        lambda: _single_bubble_written(1.6, 0.5),
    ),
}

_FIELDS = {
    EmbeddedSolution: ("L1", "L2", "perimeter"),
    KissingSolution: ("L1", "L2", "perimeter", "branch"),
    SingleBubbleSolution: ("L", "V", "regime", "sides", "perimeter"),
}


def _assert_record_contract(record, cls, values):
    # the contract of a record built by cls's own __new__, field by field
    names = _FIELDS[cls]
    expected = dict(zip(names, values))
    assert type(record) is cls and isinstance(record, cls) and isinstance(record, tuple)
    assert cls._fields == names
    assert record._asdict() == expected
    assert tuple(getattr(record, name) for name in names) == tuple(values)
    by_keyword = cls(**expected)
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert repr(record) == repr(by_keyword)
    first = names[0]
    replaced = record._replace(**{first: -1.0})
    assert type(replaced) is cls and replaced[0] == -1.0 and replaced[1:] == record[1:]
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is cls and copied == record


@pytest.mark.parametrize("which", list(_RECORDS))
def test_minima_records_keep_the_namedtuple_contract(which):
    build, cls, written = _RECORDS[which]
    _assert_record_contract(build(), cls, written())


@pytest.mark.parametrize("which", list(_RECORDS))
def test_record_contract_catches_a_dropped_or_swapped_field(which):
    # the same records built by tuple.__new__ with one field dropped, or the
    # first and last fields swapped, must fail the contract check
    _, cls, written = _RECORDS[which]
    values = tuple(written())
    dropped = tuple.__new__(cls, values[:-1])
    swapped = tuple.__new__(cls, (values[-1], *values[1:-1], values[0]))
    for bad in (dropped, swapped):
        with pytest.raises(AssertionError):
            _assert_record_contract(bad, cls, values)
