"""Efficiency families and the characteristic SINR solvers."""

import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from powergame.efficiency import (
    CharacteristicSinrs,
    InfoTheoretic,
    PacketSuccess,
    UniquenessRiskWarning,
    check_op_condition,
    equal_action_utility,
    leader_coefficient,
    solve_all,
    solve_beta_star,
    solve_gamma_star,
    solve_gamma_tilde,
)
from powergame.errors import NoNashEquilibriumError
from powergame.roots import bisect

# independent oracle: beta_star of PacketSuccess(m) is the root of e^x = m*x + 1
BETA_STAR_PKT = {
    2: 1.2564312086261697,
    10: 3.6149504270875306,
    100: 6.474600379589358,
}


def _oracle_beta_star_pkt(m: int) -> float:
    # plain bisection on e^x - m*x - 1, nothing shared with the library solver
    lo, hi = 1e-9, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) - m * mid - 1.0 > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _residual(model, x: float, coeff: float) -> float:
    # x*(1 - coeff*x)*f'(x) - f(x); zero in the limit at the boundary root x = 0
    if x == 0.0:
        return 0.0
    return x * (1.0 - coeff * x) * model.deriv(x) - model.value(x)


def _assert_derivs_match_finite_differences(model, x):
    # step sizes balance truncation against roundoff per derivative order
    h1, h2 = 6e-6 * x, 2e-4 * x
    fd1 = (model.value(x + h1) - model.value(x - h1)) / (2 * h1)
    fd2 = (model.value(x + h2) - 2 * model.value(x) + model.value(x - h2)) / h2**2
    np.testing.assert_allclose(model.deriv(x), fd1, rtol=1e-6, atol=1e-10)
    np.testing.assert_allclose(model.deriv(x, order=2), fd2, rtol=1e-4, atol=1e-7)


def test_packet_success_derivs_match_finite_differences():
    rng = np.random.default_rng(3)
    _assert_derivs_match_finite_differences(PacketSuccess(7),
                                            rng.uniform(0.2, 6.0, size=40))


def test_info_theoretic_derivs_match_finite_differences():
    rng = np.random.default_rng(4)
    _assert_derivs_match_finite_differences(InfoTheoretic.from_c(0.8),
                                            rng.uniform(0.2, 6.0, size=40))


def test_dlog_and_curvature_agree_with_raw_ratios():
    x = np.linspace(0.3, 5.0, 25)
    for model in (PacketSuccess(3), InfoTheoretic(1.2)):
        np.testing.assert_allclose(model.dlog(x), model.deriv(x) / model.value(x),
                                   rtol=1e-12)
        np.testing.assert_allclose(model.curvature_ratio(x),
                                   model.deriv(x, 2) / model.deriv(x, 1),
                                   rtol=1e-11)


def test_dlog_survives_value_underflow():
    # f underflows to 0 at tiny SINR with large m, but f'/f stays finite
    model = PacketSuccess(100)
    x = 1e-12
    assert model.value(x) == 0.0
    assert np.isfinite(model.dlog(x)) and model.dlog(x) > 0.0


def test_zero_sinr_gives_zero_efficiency():
    assert PacketSuccess(2).value(0.0) == 0.0
    assert InfoTheoretic(1.0).value(0.0) == 0.0


def test_scalar_in_scalar_out_array_in_array_out():
    model = PacketSuccess(2)
    assert isinstance(model.value(1.0), float)
    assert isinstance(model.value(np.array([1.0, 2.0])), np.ndarray)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PacketSuccess(0)
    with pytest.raises(ValueError):
        PacketSuccess(2).deriv(0.0)
    with pytest.raises(ValueError):
        InfoTheoretic(-1.0)
    with pytest.raises(ValueError):
        InfoTheoretic.from_c(0.0)
    with pytest.raises(ValueError):
        PacketSuccess(2).value(-0.5)


def test_from_c_round_trip():
    model = InfoTheoretic.from_c(0.5)
    assert math.isclose(model.c, 0.5, rel_tol=1e-15)
    assert math.isclose(model.rate, math.log2(1.5), rel_tol=1e-15)


def test_beta_star_matches_independent_bisection_oracle():
    for m, frozen in BETA_STAR_PKT.items():
        live = _oracle_beta_star_pkt(m)
        assert abs(live - frozen) < 1e-9
        assert abs(solve_beta_star(PacketSuccess(m)) - live) < 1e-10


def test_beta_star_m1_has_no_positive_root():
    # m = 1 efficiency is concave-like: marginal never beats average
    assert solve_beta_star(PacketSuccess(1)) == 0.0
    with pytest.raises(NoNashEquilibriumError):
        solve_all(PacketSuccess(1), 2, 2)


def test_root_residuals_vanish_for_packet_family():
    for m in (1, 2, 10, 100):
        model = PacketSuccess(m)
        for k, n in ((2, 2), (3, 24)):
            b = solve_beta_star(model)
            with pytest.warns(UniquenessRiskWarning) if m == 1 else _nullcontext():
                gt = solve_gamma_tilde(model, k, n)
            gs = solve_gamma_star(model, k, n, b)
            assert abs(_residual(model, b, 0.0)) < 1e-12
            assert abs(_residual(model, gt, (k - 1) / n)) < 1e-12
            if b > 0.0:
                assert abs(_residual(model, gs, leader_coefficient(k, n, b))) < 1e-12


def _nullcontext():
    import contextlib

    return contextlib.nullcontext()


def test_exponential_family_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(60):
        c = 10.0 ** rng.uniform(-1, 1)
        k = int(rng.integers(1, 11))
        n = int(rng.integers(1, 17))
        if k >= 3 and (k - 2) * c >= n:
            continue
        model = InfoTheoretic.from_c(c)
        b = solve_beta_star(model)
        np.testing.assert_allclose(b, c, rtol=1e-10)
        np.testing.assert_allclose(solve_gamma_tilde(model, k, n),
                                   c / (1.0 + c * (k - 1) / n), rtol=1e-10)
        a = leader_coefficient(k, n, b)
        np.testing.assert_allclose(solve_gamma_star(model, k, n, b),
                                   c / (1.0 + c * a), rtol=1e-10)


def test_characteristic_sinr_ordering():
    # cooperative < leader < selfish wherever the one-shot equilibrium exists
    for model in (PacketSuccess(2), PacketSuccess(10), InfoTheoretic(1.0)):
        for k, n in ((2, 2), (2, 5), (3, 8), (5, 24)):
            if (k - 1) * solve_beta_star(model) >= n:
                continue
            s = solve_all(model, k, n)
            assert 0.0 < s.gamma_tilde < s.gamma_star < s.beta_star
    s = solve_all(PacketSuccess(2), 1, 1)
    assert s.gamma_tilde == s.beta_star == s.gamma_star


def test_leader_coefficient_infeasibility_raises():
    b = solve_beta_star(PacketSuccess(10))  # about 3.615
    with pytest.raises(NoNashEquilibriumError):
        leader_coefficient(4, 7, b)  # (k-2)*b = 7.23 >= n


def test_equal_action_utility_peaks_at_gamma_tilde():
    for model, k, n in ((PacketSuccess(2), 2, 2), (InfoTheoretic(1.0), 3, 6)):
        gt = solve_gamma_tilde(model, k, n)
        xs = np.linspace(1e-6, n / (k - 1) * (1 - 1e-6), 4000)
        assert equal_action_utility(model, gt, k, n) >= equal_action_utility(
            model, xs, k, n).max() - 1e-12


def test_single_crossing_scan_finds_the_crossing():
    ok, x0 = check_op_condition(PacketSuccess(2), 2, 2)
    assert ok and x0 is not None and x0 > 0.0
    model = PacketSuccess(2)
    h = model.curvature_ratio(x0) - 2.0 / (2.0 - x0)
    assert abs(h) < 1e-9


def test_single_crossing_scan_vacuous_below_two_players():
    assert check_op_condition(PacketSuccess(2), 1, 4) == (True, None)


def _scan_op_condition(model, k: int, n: int, points: int = 100_000):
    """Uniform sign scan of h = f''/f' - 2(k-1)/(n-(k-1)x) on (0, n/(k-1)).

    The numeric check the library ran on every solve before the per-family
    sign argument replaced it; kept here as the oracle for that argument.
    """
    if k < 2:
        return True, None
    upper = n / (k - 1)
    xs = np.linspace(0.0, upper, points + 2)[1:-1]
    h = model.curvature_ratio(xs) - 2.0 * (k - 1) / (n - (k - 1) * xs)
    signs = np.sign(h)
    keep = signs != 0.0
    signs, xs = signs[keep], xs[keep]
    if signs.size < 2:
        return False, None
    flips = np.nonzero(np.diff(signs))[0]
    downward = flips[(signs[flips] > 0) & (signs[flips + 1] < 0)]
    if flips.size != 1 or downward.size != 1:
        return False, None
    i = int(downward[0])

    def h_scalar(x: float) -> float:
        return model.curvature_ratio(x) - 2.0 * (k - 1) / (n - (k - 1) * x)

    return True, bisect(h_scalar, float(xs[i]), float(xs[i + 1]))


MODELS = st.one_of(
    st.integers(1, 100).map(PacketSuccess),
    st.floats(-1.0, 1.0).map(lambda e: InfoTheoretic.from_c(10.0 ** e)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(model=MODELS, k=st.integers(1, 12), n=st.integers(1, 64))
def test_single_crossing_argument_matches_the_scan(model, k, n):
    ok, x0 = check_op_condition(model, k, n)
    ok_scan, x0_scan = _scan_op_condition(model, k, n)
    assert ok == ok_scan
    if x0_scan is None:
        assert x0 is None
    else:
        assert abs(x0 - x0_scan) <= n / (k - 1) / 100_001  # the scan's grid step


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(model=MODELS, k=st.integers(1, 12), n=st.integers(1, 64))
def test_sinr_ordering_wherever_the_one_shot_equilibrium_exists(model, k, n):
    beta = solve_beta_star(model)  # not positive for PacketSuccess(1)
    assume(beta > 0.0 and (k - 1) * beta < n)
    s = solve_all(model, k, n)
    assert 0.0 < s.gamma_tilde <= s.gamma_star <= s.beta_star


def test_scalar_ratio_path_is_bitwise_the_array_path():
    xs = 10.0 ** np.random.default_rng(5).uniform(-6.0, 3.0, size=20_000)
    # 1e-170 and 5e-324: exp(-x) rounds to 1 and x * x underflows to 0
    xs = np.concatenate([xs, [1e-170, 5e-324]])
    for model in (PacketSuccess(2), PacketSuccess(100), InfoTheoretic(1.3)):
        for method in (model.dlog, model.curvature_ratio):
            with np.errstate(divide="ignore"):
                scalar = np.array([method(float(x)) for x in xs])
                assert scalar.tobytes() == method(xs).tobytes()
            for x in xs[:200]:  # 0-d arrays still take the array path
                assert method(float(x)) == method(np.asarray(x))
    assert isinstance(PacketSuccess(3).dlog(1.0), float)


def test_scalar_ratio_path_rejects_nonpositive_sinr():
    for model in (PacketSuccess(2), InfoTheoretic(1.0)):
        for method in (model.dlog, model.curvature_ratio):
            for x in (0.0, -0.0, -1.0, np.float64(-0.5)):
                with pytest.raises(ValueError):
                    method(x)


def test_uniqueness_warning_when_condition_fails():
    # m = 1 keeps the curvature ratio at -1, so h never crosses zero
    with pytest.warns(UniquenessRiskWarning):
        solve_gamma_tilde(PacketSuccess(1), 2, 2)


def test_characteristic_sinrs_validation():
    with pytest.raises(ValueError):
        CharacteristicSinrs(beta_star=1.0, gamma_star=1.0, gamma_tilde=1.5, k=2, n=2)
    with pytest.raises(ValueError):
        CharacteristicSinrs(beta_star=1.0, gamma_star=0.0, gamma_tilde=0.5, k=2, n=2)
    with pytest.raises(ValueError):
        # gamma_tilde must stay below n/(k-1)
        CharacteristicSinrs(beta_star=5.0, gamma_star=4.0, gamma_tilde=4.5, k=2, n=4)


def _sinr_functions(model):
    """Every function of the SINR, as (name, one-argument callable)."""
    return [
        ("value", model.value),
        ("deriv1", model.deriv),
        ("deriv2", lambda x: model.deriv(x, order=2)),
        ("dlog", model.dlog),
        ("curvature_ratio", model.curvature_ratio),
        ("equal_action_utility", lambda x: equal_action_utility(model, x, 3, 16)),
    ]


def test_float_path_is_bitwise_the_0d_array_path():
    # a float is evaluated as itself, a 0-d array through the array kernel;
    # before the float path existed, floats went through the 0-d array
    xs = 10.0 ** np.random.default_rng(8).uniform(-6.0, 3.0, size=20_000)
    # 1e-170 and 5e-324: x * x underflows (the float path falls back);
    # 1e-17 and 2**-60: exp(-x) rounds to 1; 800: exp(-x) underflows
    xs = np.concatenate([xs, [1e-170, 5e-324, 1e-17, 2.0**-60, 1e-120, 800.0]])
    for model, points in ((PacketSuccess(3), xs), (InfoTheoretic(1.3), xs),
                          (PacketSuccess(50), xs[-2_000:])):
        for name, fn in _sinr_functions(model):
            with np.errstate(all="ignore"):
                floats = np.array([fn(float(x)) for x in points])
                arrays = np.array([fn(np.asarray(x)) for x in points])
                assert floats.tobytes() == arrays.tobytes(), (model, name)
                assert fn(np.float64(points[7])) == floats[7]
                assert isinstance(fn(np.float64(points[7])), float)
    for model in (PacketSuccess(3), InfoTheoretic(1.3)):
        assert model.value(0.0) == model.value(np.asarray(0.0)) == 0.0


def test_signed_zero_sinr_is_zero_sinr():
    # -0.0 passes the x >= 0 domain; exp(-c/-0.0) once gave inf, an efficiency above 1
    for model in (PacketSuccess(2), InfoTheoretic(1.0), InfoTheoretic(0.3)):
        for zero in (-0.0, np.float64(-0.0), np.asarray(-0.0)):
            got = model.value(zero)
            assert got == model.value(0.0) == 0.0 and not math.copysign(1.0, got) < 0.0
        got = model.value(np.array([-0.0, 0.0, 0.5]))
        assert got.tobytes() == model.value(np.array([0.0, 0.0, 0.5])).tobytes()


def test_nan_sinr_is_outside_every_domain():
    for model in (PacketSuccess(3), InfoTheoretic(1.0)):
        for name, fn in _sinr_functions(model):
            for x in (math.nan, np.float64(math.nan), np.array([1.0, math.nan])):
                with pytest.raises(ValueError, match="SINR must be"):
                    fn(x)


def test_solve_gamma_tilde_bisects_only_its_root(monkeypatch):
    # the single-crossing decision is a sign argument: no bisection on h, and
    # InfoTheoretic's root and crossing are closed forms: no bisection at all
    from powergame import efficiency

    calls = []

    def counting_bisect(fn, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return bisect(fn, lo, hi, *args, **kwargs)

    monkeypatch.setattr(efficiency, "bisect", counting_bisect)
    for model, bisections in ((PacketSuccess(10), 1), (InfoTheoretic(1.0), 0)):
        calls.clear()
        x = solve_gamma_tilde(model, 5, 16)
        assert len(calls) == bisections
        calls.clear()
        assert solve_gamma_tilde(model, 5, 16) == x
        assert len(calls) == bisections
        calls.clear()
        ok, x0 = check_op_condition(model, 5, 16)
        assert ok and x0 is not None and len(calls) == bisections



def test_solve_all_for_one_player_bisects_beta_star_once(monkeypatch):
    from powergame import efficiency

    calls = []

    def counting_bisect(fn, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return bisect(fn, lo, hi, *args, **kwargs)

    monkeypatch.setattr(efficiency, "bisect", counting_bisect)
    sinrs = solve_all(PacketSuccess(10), 1, 128)
    assert len(calls) == 1
    assert sinrs.gamma_tilde == sinrs.gamma_star == sinrs.beta_star == solve_beta_star(
        PacketSuccess(10))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-6, 1e6))
@example(4.3660699274850945)  # the next float up rounds to the same rate
def test_info_theoretic_equality_and_hash_read_c(c):
    a, b = InfoTheoretic.from_c(c), InfoTheoretic.from_c(math.nextafter(c, math.inf))
    assert a != b and len({a, b}) == 2 and solve_beta_star(a) != solve_beta_star(b)
    same = InfoTheoretic.from_c(c)
    assert same == a and hash(same) == hash(a)


def _closed_root(c, coeff):
    # InfoTheoretic's characteristic root: c (1 - coeff x) = x
    return c / (1.0 + coeff * c) if coeff * c < math.inf else 1.0 / coeff


def _closed_crossing(c, k, n):
    # InfoTheoretic's h = 0 with its denominators cleared: c n = x (2n + (k-1) c)
    return n / (k - 1 + 2.0 * n / c)


def _assert_near_exact(x, exact):
    # within 2 ulps of the exact rational value: no overflow, underflow or cancellation
    assert 0.0 < x < math.inf
    assert abs(Fraction(x) - exact) <= 2 * Fraction(math.ulp(x))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exponent=st.floats(math.log10(2.2e-16), 300.0), k=st.integers(1, 200),
       n=st.integers(1, 256))
@example(exponent=300.0, k=2, n=1)  # the leader's coeff c = c**2/n**2 overflows
@example(exponent=160.0, k=2, n=256)
@example(exponent=math.log10(2.2e-16), k=200, n=1)  # c = 2**-52
@example(exponent=math.log10(1.7e308), k=2, n=256)
def test_info_theoretic_sinrs_and_crossing_are_closed_forms(exponent, k, n):
    from powergame import efficiency

    model = InfoTheoretic.from_c(10.0 ** exponent)
    c = model.c
    tilde = (k - 1) / n
    refuse = AssertionError("a numeric search ran on InfoTheoretic")
    with mock.patch.object(efficiency, "bisect", side_effect=refuse), \
            mock.patch.object(efficiency, "expand_bracket", side_effect=refuse):
        beta = solve_beta_star(model)
        gamma_tilde = solve_gamma_tilde(model, k, n)
        ok, x0 = check_op_condition(model, k, n)
        leader_feasible = k <= 2 or (k - 2) * c < n
        if leader_feasible:
            lead = leader_coefficient(k, n, c)
            gamma_star = solve_gamma_star(model, k, n, c)
        if (k - 1) * c < n:  # the one-shot equilibrium exists
            sinrs = solve_all(model, k, n)
    assert beta == c
    assert gamma_tilde == _closed_root(c, tilde)
    _assert_near_exact(gamma_tilde, Fraction(c) / (1 + Fraction(tilde) * Fraction(c)))
    assert ok and x0 == (_closed_crossing(c, k, n) if k >= 2 else None)
    if k >= 2:
        _assert_near_exact(x0, Fraction(c) * n / (2 * n + (k - 1) * Fraction(c)))
    if leader_feasible:
        assert gamma_star == _closed_root(c, lead)
        _assert_near_exact(gamma_star, Fraction(c) / (1 + Fraction(lead) * Fraction(c)))
    if (k - 1) * c < n:
        assert sinrs == CharacteristicSinrs(c, gamma_star, gamma_tilde, k, n)


def test_packet_success_m1_answers_zero_without_evaluating_g(monkeypatch):
    from powergame import efficiency

    model = PacketSuccess(1)
    # g < 0 throughout, as x e^-x/(1 - e^-x) = x/expm1(x) < 1; the float g from
    # dlog rounds above 0 near x = 1e-9, where 1 - e^-x cancels
    xs = np.geomspace(1e-12, 50.0, 400)
    for coeff in (0.0, 0.25, 4.0):
        assert np.all(xs * (1.0 - coeff * xs) / np.expm1(xs) < 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("g was evaluated")

    for name in ("bisect", "expand_bracket"):
        monkeypatch.setattr(efficiency, name, refuse)
    monkeypatch.setattr(PacketSuccess, "dlog", refuse)
    assert solve_beta_star(model) == 0.0
    with pytest.warns(UniquenessRiskWarning):
        assert solve_gamma_tilde(model, 3, 8) == 0.0
    assert solve_gamma_star(model, 3, 8, 0.0) == 0.0


@pytest.mark.parametrize("rate", [1e-17, 2000.0, math.inf, math.nan, 0.0, -1.0])
def test_info_theoretic_needs_a_positive_finite_c(rate):
    with pytest.raises(ValueError, match=r"c = 2\*\*rate - 1 must be positive and finite, got c = "):
        InfoTheoretic(rate)


@given(st.floats(1e-300, 1e300))
@example(1e-12)
@example(2.0 ** -52)
@example(1e-300)
@example(1e300)
@settings(max_examples=300, deadline=None)
def test_from_c_keeps_c_exactly(c):
    model = InfoTheoretic.from_c(c)
    assert model.c == c and pickle.loads(pickle.dumps(model)).c == c
    # its rate is log2(1 + c) to within a few ulps: 2**rate - 1 comes back to c
    assert 0.0 < model.rate < 1000.0
    assert math.isclose(math.expm1(model.rate * math.log(2.0)), c, rel_tol=1e-12)
    assert solve_beta_star(model) == c


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
def test_from_c_needs_a_positive_finite_c(c):
    with pytest.raises(ValueError, match="c must be positive and finite, got c = "):
        InfoTheoretic.from_c(c)
