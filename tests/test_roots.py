"""Root finding: the located-and-replayed bisection against plain bisection."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame.efficiency import (
    InfoTheoretic,
    PacketSuccess,
    check_op_condition,
    leader_coefficient,
    solve_beta_star,
)
from powergame.roots import MAX_STEPS, REL_TOL, bisect, expand_bracket


def _plain_bisect(fn, lo, hi):
    """Plain bisection, the loop ``roots.bisect`` ran before it located the
    crossing first; kept here as the oracle its result must equal bit for bit."""
    if lo == hi:
        return lo
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * hi:
            break
    return 0.5 * (lo + hi)


def _counted(fn):
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    return counted, calls


def _g(model, coeff):
    # the characteristic equation as PacketSuccess._root builds it; InfoTheoretic's
    # root is a closed form, but the equation still serves as a test function
    def g(x):
        return x * (1.0 - coeff * x) * model.dlog(x) - 1.0

    return g


def _h(model, k, n):
    # the single-crossing function as efficiency.check_op_condition builds it for
    # PacketSuccess
    def h(x):
        return model.curvature_ratio(x) - 2.0 * (k - 1) / (n - (k - 1) * x)

    return h


def _coefficient(kind, beta, gap, k):
    """Interference coefficient of one kind, `gap` in (0, 1) from its limit."""
    if kind == "selfish":
        return 0.0
    if kind == "load":  # (k-1)/n as a share of the one-shot limit 1/beta_star
        return (1.0 - gap) / beta
    if kind == "load_limit":  # (k-1)/n just below 1/beta_star
        return (1.0 - gap ** 8) / beta
    # the leader's coefficient as 1 - (k-2)*beta_star/n falls towards 0
    return leader_coefficient(k, (k - 2) * beta / (1.0 - gap ** 4), beta)


MODELS = st.one_of(
    st.integers(2, 200).map(PacketSuccess),
    st.floats(-11.9, 2.0).map(lambda e: InfoTheoretic.from_c(10.0 ** e)),
)
COEFFICIENT_KINDS = ("selfish", "load", "load_limit", "leader_limit")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(model=MODELS, kind=st.sampled_from(COEFFICIENT_KINDS), gap=st.floats(1e-3, 0.999),
       k=st.integers(3, 200))
def test_bisect_equals_plain_bisection_on_the_characteristic_equation(model, kind, gap, k):
    g = _g(model, _coefficient(kind, solve_beta_star(model), gap, k))
    bracket = expand_bracket(g)
    assert bisect(g, *bracket) == _plain_bisect(g, *bracket)


@pytest.mark.parametrize("c", [1.9e-12, 2.5e-12, 3.6e-12])
def test_bisect_equals_plain_bisection_near_the_bracket_floor(c):
    # beta_star = c, about 39 halvings below 1
    g = _g(InfoTheoretic.from_c(c), 0.0)
    lo, hi = expand_bracket(g)
    assert lo < c <= hi == 2.0 * lo
    assert bisect(g, lo, hi) == _plain_bisect(g, lo, hi)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model=MODELS, k=st.integers(2, 200), n=st.integers(1, 256))
def test_single_crossing_bracket_equals_plain_bisection(model, k, n):
    # h(0) raises and h(n/(k-1)) divides by zero: neither end may be evaluated
    h = _h(model, k, n)
    x0 = bisect(h, 0.0, n / (k - 1))
    assert x0 == _plain_bisect(h, 0.0, n / (k - 1))
    if isinstance(model, PacketSuccess):  # InfoTheoretic's crossing is a closed form
        assert check_op_condition(model, k, n) == (True, x0)


def _sample_equations(count):
    rng = np.random.default_rng(2024)
    for i in range(count):
        model = (PacketSuccess(int(rng.integers(2, 200))) if i % 2 else
                 InfoTheoretic.from_c(10.0 ** rng.uniform(-11.0, 2.0)))
        coeff = _coefficient(COEFFICIENT_KINDS[i // 2 % 4], solve_beta_star(model),
                             rng.uniform(1e-3, 0.999), int(rng.integers(3, 200)))
        yield _g(model, coeff)


def test_bisect_takes_a_third_of_the_evaluations():
    located, plain = [], []
    for g in _sample_equations(400):
        bracket = expand_bracket(g)
        fn, calls = _counted(g)
        oracle, oracle_calls = _counted(g)
        assert bisect(fn, *bracket) == _plain_bisect(oracle, *bracket)
        located.append(len(calls))
        plain.append(len(oracle_calls))
    assert statistics.median(located) <= 20 < 45 <= statistics.median(plain)
    assert all(a <= b for a, b in zip(located, plain))


def test_fn_is_never_evaluated_at_the_bracket_ends():
    lo, hi = 0.25, 4.0

    def fn(x):
        if x in (lo, hi):
            raise ValueError(f"evaluated at the end {x}")
        return math.log(1.5 / x)

    assert bisect(fn, lo, hi) == _plain_bisect(fn, lo, hi)


@pytest.mark.parametrize("fn", [
    lambda x: math.inf if x < 1.3 else -math.inf,
    lambda x: math.inf if x < 1.3 else 1.3 - x,
    lambda x: (1.3 - x) * 1e300 * 1e300,  # infinite but near 1.3
    lambda x: 1.3 - x if x < 1.5 else math.nan,
])
def test_infinite_or_nan_values_fall_back_to_the_midpoint(fn):
    assert bisect(fn, 0.5, 3.0) == _plain_bisect(fn, 0.5, 3.0)


@pytest.mark.parametrize("fn, lo, hi", [
    (lambda x: -1.0, 0.0, 2.0),  # halves towards 0 for all MAX_STEPS steps
    (lambda x: 1.0, -2.0, -1.0),  # a negative bracket: hi - lo > REL_TOL * hi always
    (lambda x: x + 1.5, -2.0, -1.0),
    (lambda x: 1e-300 - x, 0.0, 1.0),
])
def test_bisect_equals_plain_bisection_when_no_stop_test_fires(fn, lo, hi):
    assert bisect(fn, lo, hi) == _plain_bisect(fn, lo, hi)


def _flicker(root, width):
    # the sign of a hash inside +-width of the root, so it flips from float to float
    def fn(x):
        if abs(x - root) <= width:
            return 1.0 if hash(x) % 3 else -1.0
        return root - x

    return fn


@pytest.mark.parametrize("fn, lo, hi", [
    (_flicker(1.7, 1e-9), 1.0, 2.0),
    (_flicker(1.7, 1e-13), 1.0, 2.0),
    (_flicker(3e-12, 1e-12), 0.0, 1.0),
    (lambda x: 1.0, 1.0, 2.0),  # no crossing at all
    (lambda x: -1.0, 0.0, 2.0),  # never positive: halves down towards 0 without end
    (lambda x: math.nan, 1.0, 2.0),
])
def test_bisect_is_bounded_on_a_bad_fn(fn, lo, hi):
    counted, calls = _counted(fn)
    x = bisect(counted, lo, hi)
    assert lo <= x <= hi
    assert len(calls) <= 2 * MAX_STEPS  # the locate loop and the replay loop
    assert all(lo < c < hi for c in calls)
