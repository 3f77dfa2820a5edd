"""One-shot game: profiles, utilities, equilibrium structure."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame.efficiency import InfoTheoretic, PacketSuccess, solve_all
from powergame.errors import NoNashEquilibriumError, SaturatedRegimeError
from powergame.static_game import (
    ChannelState,
    NetworkConfig,
    PowerProfile,
    UtilityProfile,
    _stage_payoffs,
    ne_action,
    ne_profile,
    op_profile,
    pareto_dominates,
    public_signal,
    reconstruct_public_signal,
    region_to_csv,
    sample_utility_region,
    se_profiles,
    sinr_all,
    social_welfare,
    utility,
    weighted_welfare,
)


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
])
def test_config_needs_positive_integer_sizes(k, n, message):
    with pytest.raises(ValueError, match=message):
        NetworkConfig(k=k, n=n, sigma2=1.0, rates=1.0, p_max=1.0, eta_min=1.0, eta_max=2.0)


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
    region_to_csv(path, powers, utils_norm)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 9), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       pkt=st.booleans())
def test_stage_kernel_batch_is_bitwise_the_per_profile_functions(k, rows, seed, pkt):
    rng = np.random.default_rng(seed)
    model = PacketSuccess(int(rng.integers(1, 20))) if pkt else \
        InfoTheoretic.from_c(float(rng.uniform(0.1, 3.0)))
    cfg = NetworkConfig(k=k, n=int(rng.integers(1, 64)),
                        sigma2=float(10.0 ** rng.uniform(-4, 1)),
                        rates=tuple(rng.uniform(0.5, 2.0, k)), p_max=1e3,
                        eta_min=1e-3, eta_max=1e3)
    gains2 = 10.0 ** rng.uniform(-3, 3, size=(rows, k))
    powers = 10.0 ** rng.uniform(-4, 3, size=(rows, k))
    powers[rng.random((rows, k)) < 0.2] = 0.0  # zero power earns zero utility
    sinrs, utils, omega = _stage_payoffs(model, cfg, gains2, powers)
    assert sinrs.shape == utils.shape == (rows, k) and omega.shape == (rows,)
    for r in range(rows):
        ch, prof = ChannelState(tuple(gains2[r])), PowerProfile(tuple(powers[r]))
        assert sinrs[r].tobytes() == sinr_all(cfg, ch, prof).tobytes()
        assert tuple(utils[r]) == utility(model, cfg, ch, prof).u
        assert float(omega[r]) == public_signal(cfg, ch, prof)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_public_signal_is_bitwise_the_kernel(k, seed):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(k=k, n=int(rng.integers(1, 64)), sigma2=float(10.0 ** rng.uniform(-4, 1)),
                        rates=1.0, p_max=1e3, eta_min=1e-3, eta_max=1e3)
    ch = ChannelState(tuple(10.0 ** rng.uniform(-3, 3, k)))
    powers = 10.0 ** rng.uniform(-4, 3, k)
    powers[rng.random(k) < 0.2] = 0.0
    profile = PowerProfile(tuple(powers))
    got = public_signal(cfg, ch, profile)
    assert type(got) is float
    assert np.float64(got).tobytes() == _stage_payoffs(None, cfg, ch.gains2, profile.p)[2].tobytes()
