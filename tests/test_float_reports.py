"""The closed-form reports in Python floats are bitwise their numpy formulation.

``ne_profile``, ``op_profile``, ``se_profiles`` and ``rg_bounds`` compute in
floats what they once computed in numpy arrays and scalars, and
PacketSuccess's root function writes ``dlog`` out in floats.  The numpy
formulations are kept here as the oracles: every float, typed error and
message must match.
"""

from math import ceil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame import efficiency
from powergame.efficiency import InfoTheoretic, PacketSuccess, _require_one_shot, solve_all
from powergame.errors import NoFiniteT0Error, PowerGameError, SaturatedRegimeError
from powergame.repeated import RgBounds, rg_bounds
from powergame.static_game import (
    ChannelState,
    NetworkConfig,
    PowerProfile,
    UtilityProfile,
    _equal_action,
    _leader_margin,
    ne_action,
    ne_profile,
    op_profile,
    se_profiles,
)

# ------------------------------------------------------------ the oracles


def _value(model, x):
    """The efficiency as the decorator's float path evaluated it through numpy."""
    if isinstance(model, PacketSuccess):
        return float((1.0 - np.exp(-x)) ** model.m)
    with np.errstate(divide="ignore"):
        return float(np.exp(-model.c / (x + 0.0)))


def _phi(model, x, k, n):
    return _value(model, x) / x * (1.0 - (k - 1) * x / n)


def _actions_to_profile(cfg, ch, actions, label):
    p = actions / np.asarray(ch.gains2)
    over = p > np.asarray(cfg.p_max)
    if np.any(over):
        i = int(np.argmax(over))
        raise SaturatedRegimeError(
            f"{label} power {p[i]} exceeds cap {cfg.p_max[i]} for player {i + 1}"
        )
    return PowerProfile(tuple(p))


def _ne_profile(cfg, ch, beta_star):
    return _actions_to_profile(cfg, ch, np.full(cfg.k, ne_action(cfg, beta_star)), "equilibrium")


def _op_profile(cfg, ch, gamma_tilde):
    return _actions_to_profile(cfg, ch, np.full(cfg.k, _equal_action(cfg, gamma_tilde)),
                               "operating-point")


def _se_profiles(model, cfg, ch, beta_star, gamma_star, leader):
    bn, gn, d = _leader_margin(cfg.k, cfg.n, beta_star, gamma_star)
    a_leader = cfg.sigma2 * gamma_star * (1.0 + bn) / (cfg.n * d)
    a_follow = cfg.sigma2 * beta_star * (1.0 + gn) / (cfg.n * d)
    actions = np.full(cfg.k, a_follow)
    actions[leader] = a_leader
    profile = _actions_to_profile(cfg, ch, actions, "leader-follower")
    g2 = np.asarray(ch.gains2)
    rates = np.asarray(cfg.rates)
    scale = rates * g2 / cfg.sigma2 * cfg.n * d
    u = scale * _value(model, beta_star) / (beta_star * (1.0 + gn))
    u[leader] = scale[leader] * _value(model, gamma_star) / (gamma_star * (1.0 + bn))
    return profile, UtilityProfile(tuple(u))


def _bound_terms(model, k, n, beta_star, gamma_tilde):
    _require_one_shot(k, n, beta_star)
    return (_value(model, beta_star), _phi(model, beta_star, k, n),
            _phi(model, gamma_tilde, k, n))


def _punish_interference(cfg, i):
    return sum(cfg.p_max[j] * cfg.eta_min[j] for j in range(cfg.k) if j != i) + cfg.sigma2


def _delta_gain(model, k, n, beta_star, gamma_tilde):
    if gamma_tilde == beta_star:
        return 0.0
    _, phi_ne, phi_op = _bound_terms(model, k, n, beta_star, gamma_tilde)
    d = phi_op - phi_ne
    if d < -1e-12 * phi_ne:
        raise PowerGameError("cooperative utility fell below equilibrium utility")
    return max(d, 0.0)


def _t0_bound(cfg, model, beta_star, gamma_tilde):
    k, n = cfg.k, cfg.n
    if k < 2:
        return 1
    f_ne, phi_ne, phi_op = _bound_terms(model, k, n, beta_star, gamma_tilde)
    ratios = []
    for i in range(k):
        numerator = cfg.eta_max[i] * (f_ne / beta_star) - cfg.eta_min[i] * phi_op
        denominator = cfg.eta_min[i] * phi_ne - cfg.eta_max[i] * f_ne / (
            beta_star * _punish_interference(cfg, i))
        if denominator <= 0.0:
            raise NoFiniteT0Error(
                "full-power punishment too weak for player "
                f"{i + 1}: eta_min*phi(beta_star) <= eta_max*f(beta_star)/"
                f"(beta_star*(sum_j P_j_max*eta_j_min + sigma2)) = {-denominator + cfg.eta_min[i] * phi_ne}"
            )
        ratios.append(numerator / denominator)
    return max([1, *map(ceil, ratios)])


def _lambda_bound(cfg, model, beta_star, gamma_tilde):
    delta = _delta_gain(model, cfg.k, cfg.n, beta_star, gamma_tilde)
    if delta == 0.0:
        return 0.0
    f_ne = _value(model, beta_star)
    out = 1.0
    for lo, hi in zip(cfg.eta_min, cfg.eta_max):
        out = min(out, lo * delta / (lo * delta + hi * ((cfg.k - 1) * f_ne - delta)))
    return out


def _rg_bounds(cfg, model, beta_star, gamma_tilde):
    return RgBounds(t0=_t0_bound(cfg, model, beta_star, gamma_tilde),
                    lambda_max=_lambda_bound(cfg, model, beta_star, gamma_tilde),
                    delta=_delta_gain(model, cfg.k, cfg.n, beta_star, gamma_tilde))


# ------------------------------------------------------------- the checks


def _outcome(call):
    """repr of the result (exact for every float), or the typed error and its message."""
    try:
        return repr(call())
    except PowerGameError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _games(draw):
    if draw(st.booleans()):
        model = PacketSuccess(draw(st.integers(2, 150)))
    else:
        model = InfoTheoretic(draw(st.floats(0.05, 5.0)))
    k = draw(st.integers(1, 8))
    bs = solve_all(model, 1, 1).beta_star
    # n past (k - 2) beta_star, where a leader-follower game exists
    s = solve_all(model, k, draw(st.integers(1, 64)) if k == 1 else
                  max(int((k - 2) * bs) + 1, int((k - 1) * bs / draw(st.floats(0.02, 1.2)))))
    per_player = st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    eta_min = [10.0 ** e for e in draw(per_player)]
    eta_max = [lo * (1.0 + 4.0 * u) for lo, u in
               zip(eta_min, draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))]
    cfg = NetworkConfig(
        k=k, n=s.n, sigma2=10.0 ** draw(st.floats(-6.0, 0.0)),
        rates=tuple(10.0 ** e for e in draw(per_player)),
        # wide enough that some players sit over their cap
        p_max=tuple(10.0 ** (1.5 * e) for e in draw(per_player)),
        eta_min=tuple(eta_min), eta_max=tuple(eta_max))
    ch = ChannelState(tuple(lo + (hi - lo) * u for lo, hi, u in zip(
        eta_min, eta_max, draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))))
    return model, cfg, ch, s, draw(st.integers(0, k - 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_games())
def test_reports_are_bitwise_the_numpy_formulation(game):
    model, cfg, ch, s, leader = game
    b, gt, gs = s.beta_star, s.gamma_tilde, s.gamma_star
    pairs = [
        (lambda: ne_profile(cfg, ch, b), lambda: _ne_profile(cfg, ch, b)),
        (lambda: op_profile(cfg, ch, gt), lambda: _op_profile(cfg, ch, gt)),
        (lambda: se_profiles(model, cfg, ch, b, gs, leader),
         lambda: _se_profiles(model, cfg, ch, b, gs, leader)),
        (lambda: rg_bounds(cfg, model, b, gt), lambda: _rg_bounds(cfg, model, b, gt)),
    ]
    for new, oracle in pairs:
        assert _outcome(new) == _outcome(oracle)


def _root_function(model, coeff):
    """The g that PacketSuccess._root hands to the root search, ``bisect_near`` or the
    expanded bracket's (beta_star memo cold)."""
    seen = []
    near, expand = efficiency.bisect_near, efficiency.expand_bracket
    efficiency.bisect_near = lambda g, x: seen.append(g) or 1.0
    efficiency.expand_bracket = lambda g: seen.append(g) or (1.0, 1.0)
    efficiency._packet_beta_star.cache_clear()
    try:
        model._root(coeff)
    finally:
        efficiency.bisect_near, efficiency.expand_bracket = near, expand
        efficiency._packet_beta_star.cache_clear()
    return seen[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 200), coeff=st.floats(0.0, 1e3),
       xs=st.lists(st.floats(0.0, 1e3, exclude_min=True), min_size=1, max_size=20))
def test_packet_root_function_is_bitwise_the_dlog_expression(m, coeff, xs):
    model = PacketSuccess(m)
    g = _root_function(model, coeff)
    # below 2**-54, exp(-x) rounds to 1: f'/f divides by zero, and is inf
    for x in [*xs, 1e-17, 2.0**-60, 5e-324, 800.0, 1.0 / coeff if coeff else 1.0]:
        with np.errstate(all="ignore"):
            e = np.exp(-x)  # f'/f in closed form
            want = x * (1.0 - coeff * x) * float(m * e / (1.0 - e)) - 1.0
        assert repr(g(x)) == repr(want), x
