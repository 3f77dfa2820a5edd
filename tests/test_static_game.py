"""One-shot game: profiles, utilities, equilibrium structure."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame.efficiency import (
    InfoTheoretic,
    PacketSuccess,
    leader_coefficient,
    solve_all,
    solve_gamma_star,
    solve_gamma_tilde,
)
from powergame.errors import NoNashEquilibriumError, SaturatedRegimeError
from powergame.experiments import fig1_region
from powergame.static_game import (
    ChannelState,
    NetworkConfig,
    PowerProfile,
    UtilityProfile,
    _received,
    _stage_payoffs,
    ne_action,
    ne_profile,
    op_profile,
    pareto_dominates,
    public_signal,
    reconstruct_public_signal,
    sample_utility_region,
    se_profiles,
    sinr_all,
    utility,
)


def social_welfare(u: UtilityProfile) -> float:
    """The sum of the players' utilities."""
    return float(sum(u.u))


def weighted_welfare(u: UtilityProfile, weights) -> float:
    """The weighted sum of the players' utilities: one nonnegative weight per player."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("welfare weights must be nonnegative")
    if w.shape != (len(u.u),):
        raise ValueError("one weight per player required")
    return float((w * np.asarray(u.u)).sum())


def _random_instance(rng, k_lo=2, k_hi=6):
    # non-saturated instance with a guaranteed one-shot equilibrium
    if rng.random() < 0.5:
        model = PacketSuccess(int(rng.integers(2, 11)))
    else:
        model = InfoTheoretic.from_c(float(rng.uniform(0.2, 2.0)))
    k = int(rng.integers(k_lo, k_hi + 1))
    while True:
        n = int(rng.integers(1, 65))
        try:
            sinrs = solve_all(model, k, n)
        except NoNashEquilibriumError:
            continue  # leader structure infeasible at this (k, n)
        if (k - 1) * sinrs.beta_star < 0.95 * n:
            break
    cfg = NetworkConfig(k=k, n=n, sigma2=float(rng.uniform(1e-3, 1.0)),
                        rates=tuple(rng.uniform(0.5, 2.0, k)),
                        p_max=1e9, eta_min=1e-3, eta_max=1e3)
    ch = ChannelState(tuple(rng.uniform(0.1, 10.0, k)))
    return model, cfg, ch, sinrs


def test_config_broadcasts_scalars_and_validates():
    cfg = NetworkConfig(k=3, n=4, sigma2=0.1, rates=1.0, p_max=2.0,
                        eta_min=0.5, eta_max=1.5)
    assert cfg.rates == (1.0, 1.0, 1.0)
    assert cfg.p_max == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        NetworkConfig(k=2, n=1, sigma2=0.0, rates=1.0, p_max=1.0,
                      eta_min=1.0, eta_max=1.0)
    with pytest.raises(ValueError):
        NetworkConfig(k=2, n=1, sigma2=1.0, rates=1.0, p_max=1.0,
                      eta_min=2.0, eta_max=1.0)
    with pytest.raises(ValueError):
        NetworkConfig(k=2, n=1, sigma2=1.0, rates=(1.0, 1.0, 1.0), p_max=1.0,
                      eta_min=1.0, eta_max=1.0)


def test_config_fields_must_be_finite():
    base = dict(k=2, n=1, sigma2=1.0, rates=1.0, p_max=1.0, eta_min=1.0, eta_max=2.0)
    for name in ("sigma2", "rates", "p_max", "eta_min"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                NetworkConfig(**dict(base, **{name: bad}))
    with pytest.raises(ValueError, match="NaN"):
        NetworkConfig(**dict(base, eta_max=(2.0, math.nan)))
    assert NetworkConfig(**dict(base, eta_max=math.inf)).eta_max == (math.inf,) * 2
    with pytest.raises(ValueError):
        ChannelState((1.0, math.nan))



@pytest.mark.parametrize("k, n, message", [
    (0, 1, "k must be a positive integer"),
    (2.5, 1, "k must be a positive integer"),
    (2, 0, "spreading factor n must be a positive integer"),
    (3, 0, "spreading factor n must be a positive integer"),
])
def test_config_needs_positive_integer_sizes(k, n, message):
    # the config and every solver that takes the sizes reject them alike
    model = PacketSuccess(4)
    for build in (
            lambda: NetworkConfig(k=k, n=n, sigma2=1.0, rates=1.0, p_max=1.0, eta_min=1.0,
                                  eta_max=2.0),
            lambda: solve_all(model, k, n),
            lambda: solve_gamma_tilde(model, k, n),
            lambda: solve_gamma_star(model, k, n, 2.0),
            lambda: leader_coefficient(k, n, 2.0)):
        with pytest.raises(ValueError, match=message):
            build()


def test_integral_float_sizes_are_stored_as_integers():
    cfg = NetworkConfig.uniform(k=2.0, n=16.0, sigma2=1.0, rate=1.0, p_max=1.0,
                                eta_min=1.0, eta_max=2.0)
    assert (cfg.k, cfg.n) == (2, 16) and type(cfg.k) is int and type(cfg.n) is int
    assert cfg.rates == (1.0, 1.0)
    assert cfg == NetworkConfig.uniform(k=2, n=16, sigma2=1.0, rate=1.0, p_max=1.0,
                                        eta_min=1.0, eta_max=2.0)
    for size in (math.inf, math.nan):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            NetworkConfig.uniform(k=size, n=16, sigma2=1.0, rate=1.0, p_max=1.0,
                                  eta_min=1.0, eta_max=2.0)
        with pytest.raises(ValueError, match="spreading factor n must be"):
            NetworkConfig.uniform(k=2, n=size, sigma2=1.0, rate=1.0, p_max=1.0,
                                  eta_min=1.0, eta_max=2.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        ChannelState((1.0, 0.0))
    with pytest.raises(ValueError):
        PowerProfile((0.5, -0.1))


def test_sinr_matches_direct_formula():
    rng = np.random.default_rng(21)
    cfg = NetworkConfig(k=4, n=8, sigma2=0.3, rates=1.0, p_max=10.0,
                        eta_min=0.1, eta_max=10.0)
    ch = ChannelState(tuple(rng.uniform(0.2, 3.0, 4)))
    prof = PowerProfile(tuple(rng.uniform(0.01, 5.0, 4)))
    x = sinr_all(cfg, ch, prof)
    for i in range(4):
        a = [prof.p[j] * ch.gains2[j] for j in range(4)]
        direct = cfg.n * a[i] / (sum(a) - a[i] + cfg.sigma2)
        np.testing.assert_allclose(x[i], direct, rtol=1e-12)


def test_zero_power_yields_zero_utility():
    cfg = NetworkConfig(k=2, n=1, sigma2=1.0, rates=1.0, p_max=10.0,
                        eta_min=1.0, eta_max=1.0)
    ch = ChannelState((1.0, 1.0))
    u = utility(PacketSuccess(2), cfg, ch, PowerProfile((0.0, 1.0)))
    assert u.u[0] == 0.0 and u.u[1] > 0.0


def test_equilibrium_profile_equalises_sinr_at_beta_star():
    rng = np.random.default_rng(22)
    for _ in range(20):
        model, cfg, ch, sinrs = _random_instance(rng)
        prof = ne_profile(cfg, ch, sinrs.beta_star)
        np.testing.assert_allclose(sinr_all(cfg, ch, prof), sinrs.beta_star,
                                   rtol=1e-12)
        actions = np.asarray(prof.p) * np.asarray(ch.gains2)
        np.testing.assert_allclose(actions, actions[0], rtol=1e-12)


def test_equilibrium_is_a_grid_best_response():
    rng = np.random.default_rng(23)
    model, cfg, ch, sinrs = _random_instance(rng, k_lo=3, k_hi=3)
    prof = ne_profile(cfg, ch, sinrs.beta_star)
    u_eq = np.asarray(utility(model, cfg, ch, prof).u)
    a = np.asarray(prof.p) * np.asarray(ch.gains2)
    for i in range(cfg.k):
        interference = a.sum() - a[i] + cfg.sigma2
        grid = np.linspace(1e-9, 10.0 * prof.p[i], 4001)
        x = cfg.n * grid * ch.gains2[i] / interference
        u = cfg.rates[i] * model.value(x) / grid
        assert u.max() <= u_eq[i] * (1.0 + 1e-9)


def test_operating_point_equalises_sinr_at_gamma_tilde():
    rng = np.random.default_rng(24)
    for _ in range(20):
        model, cfg, ch, sinrs = _random_instance(rng)
        prof = op_profile(cfg, ch, sinrs.gamma_tilde)
        np.testing.assert_allclose(sinr_all(cfg, ch, prof), sinrs.gamma_tilde,
                                   rtol=1e-12)


def test_cooperation_beats_equilibrium_for_everyone():
    rng = np.random.default_rng(25)
    for _ in range(20):
        model, cfg, ch, sinrs = _random_instance(rng)
        u_ne = utility(model, cfg, ch, ne_profile(cfg, ch, sinrs.beta_star))
        u_op = utility(model, cfg, ch, op_profile(cfg, ch, sinrs.gamma_tilde))
        assert pareto_dominates(u_op, u_ne)


def test_leader_follower_profile_structure():
    rng = np.random.default_rng(26)
    for _ in range(20):
        model, cfg, ch, sinrs = _random_instance(rng)
        leader = int(rng.integers(cfg.k))
        prof, u_closed = se_profiles(model, cfg, ch, sinrs.beta_star,
                                     sinrs.gamma_star, leader)
        x = sinr_all(cfg, ch, prof)
        np.testing.assert_allclose(x[leader], sinrs.gamma_star, rtol=1e-12)
        followers = [i for i in range(cfg.k) if i != leader]
        np.testing.assert_allclose(x[followers], sinrs.beta_star, rtol=1e-12)
        # closed-form utilities agree with direct evaluation on the profile
        u_direct = utility(model, cfg, ch, prof)
        np.testing.assert_allclose(u_closed.u, u_direct.u, rtol=1e-11)


def test_leader_follower_improves_on_equilibrium_for_everyone():
    rng = np.random.default_rng(27)
    for _ in range(20):
        model, cfg, ch, sinrs = _random_instance(rng)
        u_ne = np.asarray(utility(model, cfg, ch,
                                  ne_profile(cfg, ch, sinrs.beta_star)).u)
        _, u_se = se_profiles(model, cfg, ch, sinrs.beta_star,
                              sinrs.gamma_star, leader=0)
        assert np.all(np.asarray(u_se.u) >= u_ne * (1.0 - 1e-12))


def test_follower_earns_more_than_leader_with_equal_gains():
    # hierarchy favours the follower: it free-rides on the leader's restraint
    model = PacketSuccess(2)
    sinrs = solve_all(model, 2, 2)
    cfg = NetworkConfig(k=2, n=2, sigma2=1e-3, rates=1.0, p_max=1.0,
                        eta_min=1.0, eta_max=1.0)
    ch = ChannelState((1.0, 1.0))
    _, u = se_profiles(model, cfg, ch, sinrs.beta_star, sinrs.gamma_star, 0)
    assert u.u[1] > u.u[0]


def test_saturation_error_names_the_player():
    model = PacketSuccess(2)
    sinrs = solve_all(model, 2, 2)
    cfg = NetworkConfig(k=2, n=2, sigma2=1.0, rates=1.0, p_max=(10.0, 1e-6),
                        eta_min=1.0, eta_max=1.0)
    ch = ChannelState((1.0, 1.0))
    with pytest.raises(SaturatedRegimeError, match="player 2"):
        ne_profile(cfg, ch, sinrs.beta_star)


def test_equilibrium_existence_guard():
    model = PacketSuccess(10)  # beta_star about 3.615
    beta = solve_all(model, 1, 1).beta_star
    cfg = NetworkConfig(k=4, n=8, sigma2=1.0, rates=1.0, p_max=10.0,
                        eta_min=1.0, eta_max=1.0)
    with pytest.raises(NoNashEquilibriumError, match="2 <= K < N/beta_star"):
        ne_action(cfg, beta)  # (k-1)*beta = 10.8 >= 8


def test_equilibrium_powers_do_not_depend_on_rates():
    model = PacketSuccess(2)
    sinrs = solve_all(model, 2, 2)
    ch = ChannelState((1.0, 2.0))
    base = dict(k=2, n=2, sigma2=1e-2, p_max=10.0, eta_min=1.0, eta_max=2.0)
    p1 = ne_profile(NetworkConfig(rates=1.0, **base), ch, sinrs.beta_star)
    p2 = ne_profile(NetworkConfig(rates=(3.0, 0.5), **base), ch, sinrs.beta_star)
    assert p1.p == p2.p


def test_public_signal_reconstruction_identity():
    rng = np.random.default_rng(28)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 16))
        cfg = NetworkConfig(k=k, n=n, sigma2=float(rng.uniform(1e-3, 2.0)),
                            rates=1.0, p_max=1e6, eta_min=1e-3, eta_max=1e3)
        ch = ChannelState(tuple(rng.uniform(0.1, 5.0, k)))
        prof = PowerProfile(tuple(rng.uniform(0.01, 10.0, k)))
        omega = public_signal(cfg, ch, prof)
        x = sinr_all(cfg, ch, prof)
        for i in range(k):
            np.testing.assert_allclose(
                reconstruct_public_signal(prof.p[i], ch.gains2[i], float(x[i]), n),
                omega, rtol=1e-12)
    with pytest.raises(ValueError):
        reconstruct_public_signal(1.0, 1.0, 0.0, 1)


def test_welfare_helpers():
    u = UtilityProfile((1.0, 3.0))
    assert social_welfare(u) == 4.0
    assert weighted_welfare(u, (0.5, 0.5)) == 2.0
    with pytest.raises(ValueError):
        weighted_welfare(u, (-1.0, 2.0))
    with pytest.raises(ValueError):
        weighted_welfare(u, (1.0,))


def test_pareto_dominates_edges():
    a = UtilityProfile((1.0, 2.0))
    assert not pareto_dominates(a, a)
    assert pareto_dominates(UtilityProfile((1.0, 2.5)), a)
    assert not pareto_dominates(UtilityProfile((0.5, 3.0)), a)


def test_region_sampler_shape_and_normalisation():
    model = PacketSuccess(2)
    cfg = NetworkConfig(k=2, n=2, sigma2=1e-3, rates=1.0, p_max=1e-2,
                        eta_min=1.0, eta_max=1.0)
    ch = ChannelState((2.0, 0.5))
    powers, utils_norm = sample_utility_region(model, cfg, ch, points_per_axis=20)
    assert powers.shape == (400, 2) and utils_norm.shape == (400, 2)
    assert powers[0].tolist() == [0.0, 0.0]
    assert utils_norm[0].tolist() == [0.0, 0.0]  # zero power rows are zero
    # normalisation strips the own-gain factor: recompute one interior point
    i = 250
    prof = PowerProfile(tuple(powers[i]))
    u = np.asarray(utility(model, cfg, ch, prof).u)
    np.testing.assert_allclose(utils_norm[i], u / np.asarray(ch.gains2),
                               rtol=1e-12)


def test_region_csv_round_trip(tmp_path):
    model = PacketSuccess(2)
    cfg = NetworkConfig(k=2, n=2, sigma2=1e-3, rates=1.0, p_max=1e-2,
                        eta_min=1.0, eta_max=1.0)
    ch = ChannelState((1.0, 1.0))
    powers, utils_norm = sample_utility_region(model, cfg, ch, points_per_axis=10)
    path = tmp_path / "region.csv"
    fig1_region(region_path=str(path), points_path=str(tmp_path / "points.csv"),
                points_per_axis=10)  # fig1's defaults are the config above
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["p1", "p2", "u1_norm", "u2_norm"]
    assert len(rows) == 101
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    np.testing.assert_array_equal(got[:, :2], powers)
    np.testing.assert_array_equal(got[:, 2:], utils_norm)


def test_region_sampler_warns_about_combinatorial_grids():
    model = PacketSuccess(2)
    cfg = NetworkConfig(k=4, n=16, sigma2=1e-3, rates=1.0, p_max=1e-2,
                        eta_min=1.0, eta_max=1.0)
    ch = ChannelState((1.0,) * 4)
    with pytest.warns(UserWarning, match="combinatorial"):
        sample_utility_region(model, cfg, ch, points_per_axis=4)


def _extreme_profiles(rng, rows, k):
    """(gains2, powers), each (rows, k): zero powers of either sign and subnormal and huge
    actions among ordinary ones, every sum finite, so that the one-profile floats meet
    numpy's edges."""
    gains2 = 10.0 ** rng.uniform(-3, 3, size=(rows, k))
    powers = 10.0 ** rng.uniform(-4, 3, size=(rows, k))
    kind = rng.random((rows, k))
    powers[kind < 0.15] = 0.0  # zero power earns zero utility
    powers[kind < 0.05] = -0.0
    subnormal = (kind >= 0.15) & (kind < 0.3)
    powers[subnormal] = 10.0 ** rng.uniform(-322, -309, subnormal.sum()) / gains2[subnormal]
    huge = (kind >= 0.3) & (kind < 0.4)  # at most 12 * 1e305 in a sum, 64 * 1e305 in n * a
    powers[huge] = 10.0 ** rng.uniform(250, 305, huge.sum()) / gains2[huge]
    return gains2, powers


def _bits(values) -> bytes:
    """The bytes of each float: unlike ==, tells -0.0 from 0.0 and compares NaNs."""
    return np.asarray(values, dtype=float).tobytes()


def test_one_profile_total_is_numpys_sum():
    """The float total of one profile's actions has ``np.sum``'s bytes where the order
    of the additions shows: terms of like size rounding differently in another order,
    and negative zeros, which numpy sums to 0.0 from its 0.0 start."""
    rng = np.random.default_rng(7)
    for k in [*range(1, 21), 64, 127, 128, 129, 136, 257, 300]:
        ch = ChannelState((1.0,) * k)  # the actions are the powers, exactly
        for _ in range(300):
            a = rng.uniform(0.0, 1.0, k) * 10.0 ** rng.integers(0, 17, k)
            a[rng.random(k) < 0.2] = -0.0
            assert _bits(_received(ch, PowerProfile(tuple(a)))[1]) == _bits(np.sum(a)), (k, a)
        zeros = np.full(k, -0.0)
        assert _bits(_received(ch, PowerProfile(tuple(zeros)))[1]) == _bits(np.sum(zeros)) \
            == _bits(0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 12), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       pkt=st.booleans())
def test_stage_kernel_batch_is_bitwise_the_per_profile_functions(k, rows, seed, pkt):
    rng = np.random.default_rng(seed)
    model = PacketSuccess(int(rng.integers(1, 20))) if pkt else \
        InfoTheoretic.from_c(float(rng.uniform(0.1, 3.0)))
    cfg = NetworkConfig(k=k, n=int(rng.integers(1, 64)),
                        sigma2=float(10.0 ** rng.uniform(-4, 1)),
                        rates=tuple(rng.uniform(0.5, 2.0, k)), p_max=1e3,
                        eta_min=1e-3, eta_max=1e3)
    gains2, powers = _extreme_profiles(rng, rows, k)
    with np.errstate(over="ignore"):  # c/x and f/p past the float range are inf
        sinrs, utils, omega = _stage_payoffs(model, cfg, gains2, powers)
        assert sinrs.shape == utils.shape == (rows, k) and omega.shape == (rows,)
        for r in range(rows):
            ch, prof = ChannelState(tuple(gains2[r])), PowerProfile(tuple(powers[r]))
            got = sinr_all(cfg, ch, prof)
            assert type(got) is np.ndarray and _bits(sinrs[r]) == _bits(got)
            assert _bits(utils[r]) == _bits(utility(model, cfg, ch, prof).u)
            assert _bits(omega[r]) == _bits(public_signal(cfg, ch, prof))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_public_signal_is_bitwise_the_kernel(k, seed):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(k=k, n=int(rng.integers(1, 64)), sigma2=float(10.0 ** rng.uniform(-4, 1)),
                        rates=1.0, p_max=1e3, eta_min=1e-3, eta_max=1e3)
    gains2, powers = _extreme_profiles(rng, 1, k)
    ch, profile = ChannelState(tuple(gains2[0])), PowerProfile(tuple(powers[0]))
    got = public_signal(cfg, ch, profile)
    assert type(got) is float
    assert _bits(got) == _bits(_stage_payoffs(None, cfg, ch.gains2, profile.p)[2])


@pytest.mark.parametrize("model", [PacketSuccess(3), InfoTheoretic(1.0)])
def test_an_infinite_power_fails_as_the_kernel_does(model):
    cfg = NetworkConfig(k=3, n=8, sigma2=1e-3, rates=1.0, p_max=1e3, eta_min=1e-3, eta_max=1e3)
    ch, prof = ChannelState((1.0, 2.0, 0.5)), PowerProfile((0.1, math.inf, 0.2))
    with np.errstate(invalid="ignore"):  # inf - inf in the kernel's denominators
        sinrs = _stage_payoffs(None, cfg, ch.gains2, prof.p)[0]
        with pytest.raises(ValueError) as kernel:
            _stage_payoffs(model, cfg, ch.gains2, prof.p)
    assert np.isnan(sinrs[1]) and _bits(sinrs) == _bits(sinr_all(cfg, ch, prof))
    with pytest.raises(ValueError) as floats:
        utility(model, cfg, ch, prof)
    assert str(floats.value) == str(kernel.value) == "SINR must be nonnegative"


def test_a_profile_must_match_its_gains_and_players():
    cfg = NetworkConfig(k=2, n=8, sigma2=1e-3, rates=1.0, p_max=1e3, eta_min=1e-3, eta_max=1e3)
    ch = ChannelState((1.0, 2.0))
    for bad in (PowerProfile((0.1,)), PowerProfile((0.1, 0.2, 0.3))):
        for call in (lambda: sinr_all(cfg, ch, bad), lambda: public_signal(cfg, ch, bad),
                     lambda: utility(PacketSuccess(2), cfg, ch, bad)):
            with pytest.raises(ValueError, match="powers for"):
                call()
    three = NetworkConfig(k=3, n=8, sigma2=1e-3, rates=1.0, p_max=1e3, eta_min=1e-3, eta_max=1e3)
    with pytest.raises(ValueError, match="2 powers for k=3 players"):
        utility(PacketSuccess(2), three, ch, PowerProfile((0.1, 0.2)))
