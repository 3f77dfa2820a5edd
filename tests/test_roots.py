"""Root finding: bisect and the estimate-checked replay against plain bisection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame import efficiency
from powergame.efficiency import (
    InfoTheoretic,
    PacketSuccess,
    solve_beta_star,
)
from powergame.roots import MAX_STEPS, REL_TOL, bisect, bisect_near, expand_bracket


def _plain_bisect(fn, lo, hi):
    """Plain bisection written out apart from the library: the oracle
    ``roots.bisect`` and ``roots.bisect_near`` must equal bit for bit."""
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


def _dlog(model, x):
    # f'(x)/f(x) in closed form, finite where f underflows
    if isinstance(model, PacketSuccess):
        e = np.exp(-x)
        return float(model.m * e / (1.0 - e))
    return model.c / (x * x)


def _curvature_ratio(model, x):
    # f''(x)/f'(x) in closed form
    if isinstance(model, PacketSuccess):
        e = np.exp(-x)
        return float((model.m * e - 1.0) / (1.0 - e))
    return (model.c - 2.0 * x) / (x * x)


def _g(model, coeff):
    # the characteristic equation as PacketSuccess._root builds it; InfoTheoretic's
    # root is a closed form, but the equation still serves as a test function
    def g(x):
        return x * (1.0 - coeff * x) * _dlog(model, x) - 1.0

    return g


def _h(model, k, n):
    # the single-crossing function h = f''/f' - 2(k-1)/(n-(k-1)x)
    def h(x):
        return _curvature_ratio(model, x) - 2.0 * (k - 1) / (n - (k - 1) * x)

    return h


def _coefficient(kind, beta, gap, k):
    """Interference coefficient of one kind, `gap` in (0, 1) from its limit."""
    if kind == "selfish":
        return 0.0
    if kind == "load":  # (k-1)/n as a share of the one-shot limit 1/beta_star
        return (1.0 - gap) / beta
    if kind == "load_limit":  # (k-1)/n just below 1/beta_star
        return (1.0 - gap ** 8) / beta
    # the leader's coefficient as 1 - (k-2)*beta_star/n falls towards 0: leader_coefficient's
    # formula written out, since that function takes integer sizes and this n is real
    n = (k - 2) * beta / (1.0 - gap ** 4)
    return (k - 1) * beta / n**2 / (1.0 - (k - 2) * beta / n)


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
    assert bisect(h, 0.0, n / (k - 1)) == _plain_bisect(h, 0.0, n / (k - 1))


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
    assert len(calls) <= MAX_STEPS
    assert all(lo < c < hi for c in calls)


def _numpy_g(m, coeff):
    # the characteristic equation with numpy's exp, written out apart from the library's
    def g(x):
        e = float(np.exp(-x))
        return x * (1.0 - coeff * x) * (m * e / (1.0 - e) if e < 1.0 else math.inf) - 1.0

    return g


LARGE_M = (10**6, 2**53 + 1, 10**100, 10**300, 10**308)


def _coefficient_for_root(model, x):
    # the coefficient that places the root of g at x (below beta_star)
    return (1.0 - 1.0 / (x * _dlog(model, x))) / x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.one_of(st.integers(2, 200), st.sampled_from(LARGE_M), st.just(2)),
       kind=st.sampled_from(COEFFICIENT_KINDS + ("root_below_1/16",)),
       gap=st.floats(1e-3, 0.999), k=st.integers(3, 200), warm=st.booleans())
def test_packet_root_is_plain_bisection_on_the_expanded_bracket(m, kind, gap, k, warm):
    # the production path: Newton's estimate, the checked replay, the beta_star memo,
    # and plain bisection where g is flat along steps of the rounded e**-x (m = 2)
    model = PacketSuccess(m)
    if kind == "root_below_1/16":
        coeff = _coefficient_for_root(model, 0.0625 * gap ** 2)
    else:
        coeff = _coefficient(kind, solve_beta_star(model), gap, k)
    if not warm:
        efficiency._packet_beta_star.cache_clear()
    g = _numpy_g(m, coeff)
    assert model._root(coeff) == _plain_bisect(g, *expand_bracket(g))


@pytest.mark.parametrize("m", [2, 3, 10, 100, 10**100])
def test_packet_roots_next_to_a_power_of_two_take_the_expanded_bracket(m, monkeypatch):
    # coeff places the root of g at x, within 3 ulps of 2**j: the band holds 2**j
    model = PacketSuccess(m)
    beta = solve_beta_star(model)
    expanded = []
    monkeypatch.setattr(efficiency, "expand_bracket",
                        lambda fn: expanded.append(fn) or expand_bracket(fn))
    cases = 0
    for j in range(-8, math.floor(math.log2(beta)) + 1):
        for i in range(-3, 4):
            x = 2.0 ** j * (1.0 + i * 2.0 ** -52)
            if x > beta:
                continue
            coeff = _coefficient_for_root(model, x)
            g = _numpy_g(m, coeff)
            assert model._root(coeff) == _plain_bisect(g, *expand_bracket(g)), (j, i)
            cases += 1
    assert cases and len(expanded) == cases


def _flickering(root, width, seed):
    # a crossing at root whose sign is hashed within width ulps of it
    def fn(x):
        if abs(x - root) <= width * math.ulp(root):
            return 1.0 if hash((x, seed)) % 2 else -1.0
        return root - x

    return fn


@pytest.mark.parametrize("root", [1.37, 3.0e-5, 611.2, 1.0 + 2.0 ** -40, 2.0 ** 90 * 1.5])
def test_bisect_near_is_bisect_on_the_expanded_bracket_or_none(root):
    ulp = math.ulp(root)
    near = [root + i * ulp for i in range(-6, 7)]
    off = [root + i * ulp for i in range(-48, 49, 3)]
    wrong = [root + 1e6 * ulp, root - 1e6 * ulp, 2.0 * root, 0.5 * root, 1.0, 0.0, -root,
             math.inf, -math.inf, math.nan]
    for seed in range(6):
        fn = _flickering(root, 3, seed)
        want = _plain_bisect(fn, *expand_bracket(fn))
        assert all(bisect_near(fn, x) == want for x in near), seed
        assert all(bisect_near(fn, x) in (want, None) for x in off), seed
        assert all(bisect_near(fn, x) is None for x in wrong), seed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(exponent=st.floats(-6.0, math.log10(0.0625)))
def test_flat_stepped_packet_roots_take_bisects_search(exponent):
    # m = 2 at x < 1/16: x (1 - A x) rises along each step of the rounded e**-x, wider
    # than the band, and g's signs can flicker across a step; the root is still the
    # one plain bisection returns on the expanded bracket
    model, x = PacketSuccess(2), 10.0 ** exponent
    coeff = _coefficient_for_root(model, x)
    g = _numpy_g(2, coeff)
    assert model._root(coeff) == _plain_bisect(g, *expand_bracket(g))
