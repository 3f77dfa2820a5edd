"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``; the suite is configured with
``-s`` so each criterion reports a line like::

    [criterion 03] equilibrium self-consistency: PASS (50 instances, ...)
"""

import contextlib
import math
import time

import numpy as np
import pytest

from powergame.channel import ChannelProcess, ChannelMode, draw_block
from powergame.efficiency import (
    InfoTheoretic,
    PacketSuccess,
    UniquenessRiskWarning,
    leader_coefficient,
    solve_all,
    solve_beta_star,
    solve_gamma_star,
    solve_gamma_tilde,
)
from powergame.errors import NoFiniteT0Error, NoNashEquilibriumError
from powergame.experiments import (
    fig1_region,
    fig2_dynamics_vs_t,
    fig4_welfare_vs_load,
    fig5_frg_ratio_vs_t,
    fig5_t0_sweep,
)
from powergame.repeated import (
    DeviationScenario,
    DrgPlan,
    FrgPlan,
    averaged_utility_drg,
    averaged_utility_frg,
    drg_truncation_horizon,
    make_machines,
    rg_bounds,
    run_game,
)
from powergame.static_game import (
    ChannelState,
    NetworkConfig,
    PowerProfile,
    ne_profile,
    op_profile,
    public_signal,
    reconstruct_public_signal,
    se_profiles,
    sinr_all,
    utility,
)


class _ReportedFailure(AssertionError):
    pass


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    if not ok:
        raise _ReportedFailure(line)


@contextlib.contextmanager
def _guard(num: int, name: str):
    try:
        yield
    except _ReportedFailure:
        raise
    except BaseException as exc:  # still emit the criterion line on a crash
        print(f"[criterion {num:02d}] {name}: FAIL (error: {exc!r})")
        raise


def _random_model(rng):
    if rng.random() < 0.5:
        return PacketSuccess(int(rng.integers(2, 21)))
    return InfoTheoretic.from_c(10.0 ** rng.uniform(-1.0, 0.5))


def _static_instance(rng, k_lo=2, k_hi=10):
    """Random non-saturated instance whose one-shot equilibrium exists."""
    while True:
        model = _random_model(rng)
        k = int(rng.integers(k_lo, k_hi + 1))
        n = int(rng.integers(1, 17))
        beta = solve_beta_star(model)
        if beta <= 0.0 or (k - 1) * beta >= 0.95 * n:
            continue
        try:
            sinrs = solve_all(model, k, n)
        except NoNashEquilibriumError:
            continue
        cfg = NetworkConfig(
            k=k, n=n, sigma2=10.0 ** rng.uniform(-3.0, 0.0),
            rates=tuple(float(r) for r in rng.uniform(0.5, 2.0, k)),
            p_max=1e9, eta_min=1e-6, eta_max=1e9)
        ch = ChannelState(tuple(float(g) for g in rng.uniform(0.3, 3.0, k)))
        return model, cfg, ch, sinrs


def test_criterion_01_exponential_closed_forms():
    name = "closed-form solver oracle (exponential family)"
    with _guard(1, name):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        done = 0
        while done < 100:
            c = 10.0 ** rng.uniform(-1.0, 1.0)
            k = int(rng.integers(1, 11))
            n = int(rng.integers(1, 17))
            if (k - 2) * c >= 0.999 * n:
                continue
            model = InfoTheoretic.from_c(c)
            beta = solve_beta_star(model)
            tilde = solve_gamma_tilde(model, k, n)
            star = solve_gamma_star(model, k, n, beta)
            coeff = leader_coefficient(k, n, c)
            expect = (c, c / (1.0 + c * (k - 1) / n), c / (1.0 + c * coeff))
            for got, want in zip((beta, tilde, star), expect):
                worst = max(worst, abs(got - want) / want)
            done += 1
        elapsed = time.perf_counter() - start
        ok = worst < 1e-9 and elapsed < 1.0
        _report(1, name, ok,
                f"100 configs, max rel err {worst:.2e}, {elapsed:.3f} s")


def _bisect_exp_oracle(m: int) -> float:
    # independent route: e^x = m x + 1 bisected from scratch
    g = lambda x: math.exp(x) - m * x - 1.0
    lo, hi = 1e-9, 64.0
    assert g(lo) * g(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_02_packet_root_residuals():
    name = "root residuals and bisection oracle (packet family)"
    with _guard(2, name):
        worst = 0.0
        for m in (1, 2, 10, 100):
            model = PacketSuccess(m)
            beta = solve_beta_star(model)
            for k, n in ((2, 2), (3, 24)):
                with (pytest.warns(UniquenessRiskWarning) if m == 1
                      else contextlib.nullcontext()):
                    tilde = solve_gamma_tilde(model, k, n)
                star = solve_gamma_star(model, k, n, beta)
                for x, coeff in ((beta, 0.0),
                                 (tilde, (k - 1) / n),
                                 (star, leader_coefficient(k, n, beta))):
                    # x = 0 encodes "no positive root"; there the residual
                    # x(1-Ax)f'(x) - f(x) degenerates to -f(0) = 0 exactly
                    res = 0.0 if x == 0.0 else abs(
                        x * (1.0 - coeff * x) * model.deriv(x)
                        - model.value(x))
                    worst = max(worst, res)
        oracle_err = max(
            abs(solve_beta_star(PacketSuccess(2)) - _bisect_exp_oracle(2)),
            abs(solve_beta_star(PacketSuccess(10)) - _bisect_exp_oracle(10)),
            abs(solve_beta_star(PacketSuccess(2)) - 1.2564312),
            abs(solve_beta_star(PacketSuccess(10)) - 3.6150))
        ok = worst < 1e-12 and oracle_err < 1e-4
        _report(2, name, ok,
                f"max residual {worst:.2e}, oracle gap {oracle_err:.2e}")


def test_criterion_03_equilibrium_self_consistency():
    name = "equilibrium self-consistency"
    with _guard(3, name):
        rng = np.random.default_rng(103)
        sinr_err = spread = br_excess = 0.0
        for _ in range(50):
            model, cfg, ch, sinrs = _static_instance(rng)
            p_ne = ne_profile(cfg, ch, sinrs.beta_star)
            p_op = op_profile(cfg, ch, sinrs.gamma_tilde)
            s_ne = sinr_all(cfg, ch, p_ne)
            s_op = sinr_all(cfg, ch, p_op)
            sinr_err = max(sinr_err,
                           np.abs(s_ne / sinrs.beta_star - 1.0).max(),
                           np.abs(s_op / sinrs.gamma_tilde - 1.0).max())
            actions = np.asarray(p_op.p) * np.asarray(ch.gains2)
            spread = max(spread,
                         (actions.max() - actions.min()) / actions.mean())
            u_ne = np.asarray(utility(model, cfg, ch, p_ne).u)
            a_ne = np.asarray(p_ne.p) * np.asarray(ch.gains2)
            for i in range(cfg.k):
                interference = a_ne.sum() - a_ne[i] + cfg.sigma2
                grid = np.linspace(0.0, 4.0 * p_ne.p[i], 2001)[1:]
                s = cfg.n * grid * ch.gains2[i] / interference
                u = cfg.rates[i] * model.value(s) / grid
                br_excess = max(br_excess, float(u.max() / u_ne[i]) - 1.0)
        ok = sinr_err < 1e-9 and spread <= 1e-12 and br_excess <= 1e-9
        _report(3, name, ok,
                f"50 instances: SINR err {sinr_err:.1e}, action spread "
                f"{spread:.1e}, best-response excess {br_excess:.1e}")


def test_criterion_04_dominance_propositions():
    name = "cooperation dominance at desk scale"
    with _guard(4, name):
        rng = np.random.default_rng(104)
        violations = 0
        counts = {"pkt": 0, "exp": 0}
        for _ in range(500):
            model, cfg, ch, sinrs = _static_instance(rng)
            counts["pkt" if isinstance(model, PacketSuccess) else "exp"] += 1
            u_ne = np.asarray(
                utility(model, cfg, ch, ne_profile(cfg, ch, sinrs.beta_star)).u)
            u_op = np.asarray(
                utility(model, cfg, ch, op_profile(cfg, ch, sinrs.gamma_tilde)).u)
            leader = int(rng.integers(cfg.k))
            _, u_se = se_profiles(model, cfg, ch, sinrs.beta_star,
                                  sinrs.gamma_star, leader)
            u_se = np.asarray(u_se.u)
            slack = 1.0 - 1e-12
            if not np.all(u_op >= u_ne * slack):
                violations += 1
            if u_op[leader] < u_se[leader] * slack:
                violations += 1
            if cfg.k >= 3:
                followers = [i for i in range(cfg.k) if i != leader]
                if not np.all(u_op[followers] >= u_se[followers] * slack):
                    violations += 1
        ok = violations == 0 and min(counts.values()) > 0
        _report(4, name, ok,
                f"500 instances ({counts['pkt']} pkt / {counts['exp']} exp), "
                f"{violations} violations")


def test_criterion_05_public_signal_identity():
    name = "public-signal reconstruction identity"
    with _guard(5, name):
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            cfg = NetworkConfig.uniform(k, 1, 10.0 ** rng.uniform(-3.0, 0.0),
                                        1.0, 1e9, 1e-6, 1e9)
            ch = ChannelState(tuple(float(g) for g in rng.uniform(0.3, 3.0, k)))
            prof = PowerProfile(tuple(float(p) for p in rng.uniform(1e-3, 10.0, k)))
            omega = public_signal(cfg, ch, prof)
            sinrs = sinr_all(cfg, ch, prof)
            for i in range(k):
                recon = reconstruct_public_signal(prof.p[i], ch.gains2[i],
                                                  float(sinrs[i]), cfg.n)
                worst = max(worst, abs(recon / omega - 1.0))
        ok = worst < 1e-12
        _report(5, name, ok, f"1000 profiles, max rel err {worst:.1e}")


def _cooperation_instance(rng):
    """Random instance whose trigger plan is enforceable with margin."""
    while True:
        model = _random_model(rng)
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 17))
        beta = solve_beta_star(model)
        if beta <= 0.0 or (k - 1) * beta >= 0.95 * n:
            continue
        try:
            sinrs = solve_all(model, k, n)
        except NoNashEquilibriumError:
            continue
        sigma2 = 10.0 ** rng.uniform(-3.0, 0.0)
        eta_min = 10.0 ** rng.uniform(-0.7, 0.0)
        eta_max = eta_min * rng.uniform(1.0, 3.0)
        a_ne = sigma2 * sinrs.beta_star / (n - (k - 1) * sinrs.beta_star)
        a_op = sigma2 * sinrs.gamma_tilde / (n - (k - 1) * sinrs.gamma_tilde)
        p_max = max(a_ne, a_op) / eta_min * rng.uniform(5.0, 50.0)
        cfg = NetworkConfig(
            k=k, n=n, sigma2=sigma2,
            rates=tuple(float(r) for r in rng.uniform(0.5, 2.0, k)),
            p_max=p_max, eta_min=eta_min, eta_max=eta_max)
        try:
            bounds = rg_bounds(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
        except NoFiniteT0Error:
            continue
        if bounds.t0 > 30 or bounds.lambda_max < 0.05:
            continue
        ch = ChannelState(tuple(float(g) for g in
                                rng.uniform(eta_min, eta_max, k)))
        return model, cfg, sinrs, bounds, ch


def _max_gain(trace_dev, trace_ref, k, averager):
    gain = -np.inf
    for i in range(k):
        gain = max(gain, averager(trace_dev, i) - averager(trace_ref, i))
    return gain


def test_criterion_06_no_deviation_suite():
    name = "no-deviation suite at the horizon and discount bounds"
    with _guard(6, name):
        rng = np.random.default_rng(106)
        worst_frg = worst_drg = -np.inf
        for _ in range(100):
            model, cfg, sinrs, bounds, ch = _cooperation_instance(rng)
            args = (cfg, model, None, sinrs.beta_star, sinrs.gamma_tilde)

            # finite horizon: plan the bound's endgame plus a 5-stage window
            plan = FrgPlan(t_total=bounds.t0 + 5, t0=bounds.t0)
            channels = [ch] * plan.t_total
            conform = run_game(model, cfg, channels,
                               make_machines(cfg, model, plan, sinrs.beta_star,
                                             sinrs.gamma_tilde),
                               None, beta_star=sinrs.beta_star)
            for i in range(cfg.k):
                base = averaged_utility_frg(conform, i)
                for stage in range(1, 6):
                    scen = DeviationScenario(player=i, stage=stage,
                                             power="best_response",
                                             best_response_after=True)
                    trace = run_game(model, cfg, channels,
                                     make_machines(cfg, model, plan,
                                                   sinrs.beta_star,
                                                   sinrs.gamma_tilde),
                                     scen, beta_star=sinrs.beta_star)
                    gain = averaged_utility_frg(trace, i) - base
                    rel = gain / max(1.0, abs(base))
                    worst_frg = max(worst_frg, rel)

            # degenerate plan: the horizon is all endgame, deviate anyway
            plan0 = FrgPlan(t_total=bounds.t0, t0=bounds.t0)
            channels0 = [ch] * plan0.t_total
            ref = run_game(model, cfg, channels0,
                           make_machines(cfg, model, plan0, sinrs.beta_star,
                                         sinrs.gamma_tilde),
                           None, beta_star=sinrs.beta_star)
            scen = DeviationScenario(player=0, stage=1, power="max")
            dev = run_game(model, cfg, channels0,
                           make_machines(cfg, model, plan0, sinrs.beta_star,
                                         sinrs.gamma_tilde),
                           scen, beta_star=sinrs.beta_star)
            worst_frg = max(worst_frg,
                            (averaged_utility_frg(dev, 0)
                             - averaged_utility_frg(ref, 0))
                            / max(1.0, abs(averaged_utility_frg(ref, 0))))

            # random stopping: discount at 90% of the enforceability bound
            lam = 0.9 * bounds.lambda_max
            horizon = min(drg_truncation_horizon(lam, tail=1e-10), 1500)
            dplan = DrgPlan(lam)
            channels = [ch] * horizon
            conform = run_game(model, cfg, channels,
                               make_machines(cfg, model, dplan,
                                             sinrs.beta_star, sinrs.gamma_tilde),
                               None, beta_star=sinrs.beta_star)
            for i in range(cfg.k):
                scen = DeviationScenario(player=i, stage=1,
                                         power="best_response",
                                         best_response_after=True)
                trace = run_game(model, cfg, channels,
                                 make_machines(cfg, model, dplan,
                                               sinrs.beta_star,
                                               sinrs.gamma_tilde),
                                 scen, beta_star=sinrs.beta_star)
                base = averaged_utility_drg(conform, i, lam)
                dev = averaged_utility_drg(trace, i, lam)
                gain = dev.value - (base.value + base.tail_bound
                                    + dev.tail_bound)
                worst_drg = max(worst_drg, gain / max(1.0, abs(base.value)))

        # hand-checkable scenario: symmetric two-player exponential network
        model = InfoTheoretic.from_c(0.5)
        cfg = NetworkConfig.uniform(2, 1, 1.0, 1.0, 10.0, 1.0, 1.0)
        sinrs = solve_all(model, 2, 1)
        eq = rg_bounds(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
        lam_err = abs(eq.lambda_max - (2.0 * math.exp(-0.5) - 1.0))
        ok = (worst_frg <= 1e-9 and worst_drg <= 1e-9
              and eq.t0 == 1 and lam_err < 1e-6)
        _report(6, name, ok,
                f"100 instances: max deviation gain frg {worst_frg:.1e}, "
                f"drg {worst_drg:.1e}; symmetric scenario t0={eq.t0}, "
                f"lambda_max within {lam_err:.1e} of 2e^-1/2 - 1")


def test_criterion_07_two_player_region_study(tmp_path):
    name = "two-player region study replication"
    with _guard(7, name):
        start = time.perf_counter()
        res = fig1_region(region_path=str(tmp_path / "region.csv"),
                          points_path=str(tmp_path / "points.csv"))
        elapsed = time.perf_counter() - start
        ok = (res.op_within_one_cell and res.op_dominates_ne
              and res.convexity_ratio >= 0.98 and elapsed < 30.0)
        _report(7, name, ok,
                f"op within one cell: {res.op_within_one_cell}, dominates: "
                f"{res.op_dominates_ne}, convexity {res.convexity_ratio:.4f}, "
                f"{elapsed:.1f} s")


def test_criterion_08_cooperation_ratio_limit(tmp_path):
    name = "cooperation-ratio limit study replication"
    with _guard(8, name):
        start = time.perf_counter()
        res = fig5_frg_ratio_vs_t(csv_path=str(tmp_path / "fig5.csv"),
                                  replicas=1000, workers=4)
        elapsed = time.perf_counter() - start
        last = res.rows[-1]
        assert last.t == 100 * res.t0
        err = abs(last.ratio_mean - res.limit_ratio)
        tol = max(0.02 * res.limit_ratio, 3.0 * last.ratio_stderr)
        sweep = fig5_t0_sweep(csv_path=str(tmp_path / "sweep.csv"))
        ok = (err <= tol and elapsed < 120.0 and len(sweep.rows) == 11
              and sweep.implied_eta_min is not None)
        _report(8, name, ok,
                f"ratio {last.ratio_mean:.4f} vs limit {res.limit_ratio:.4f} "
                f"(err {err:.4f} <= {tol:.4f}), {elapsed:.1f} s; eta_min sweep: "
                f"any decade matches target horizon = {sweep.any_match}, "
                f"implied eta_min {sweep.implied_eta_min:.4g}")


def test_criterion_09_welfare_vs_load_shape(tmp_path):
    name = "welfare-vs-load study shape"
    with _guard(9, name):
        start = time.perf_counter()
        res = fig4_welfare_vs_load(csv_path=str(tmp_path / "fig4.csv"),
                                   workers=2)
        elapsed = time.perf_counter() - start
        rows10 = [r for r in res.rows if r.m == 10]
        nonneg = all(r.op_gain_mean >= -1e-12 and r.se_gain_mean >= -1e-12
                     for r in res.rows)
        tail_ok = True
        for m in (10, 100):
            tail = [r for r in res.rows if r.m == m][-5:]
            for a, b in zip(tail, tail[1:]):
                if b.op_gain_mean < a.op_gain_mean - 1e-12:
                    tail_ok = False
                if b.se_gain_mean < a.se_gain_mean - 3.0 * (
                        a.se_gain_stderr + b.se_gain_stderr):
                    tail_ok = False
        asym_err = abs(rows10[0].alpha_max - 0.2845)
        ok = nonneg and tail_ok and asym_err < 1e-3
        _report(9, name, ok,
                f"{len(res.rows)} load points, gains nonnegative: {nonneg}, "
                f"tail nondecreasing: {tail_ok}, asymptote err {asym_err:.2e}, "
                f"{elapsed:.1f} s")


def test_criterion_10_deterministic_reruns(tmp_path):
    name = "byte-identical experiment reruns"
    with _guard(10, name):
        pairs = []
        for tag, call in (
            ("fig1", lambda p: fig1_region(
                region_path=str(p / "region.csv"),
                points_path=str(p / "points.csv"),
                points_per_axis=60, hull_bins=12).region_path),
            ("fig2", lambda p: fig2_dynamics_vs_t(
                csv_path=str(p / "fig2.csv"), t_grid=(2, 10)).csv_path),
            ("fig4", lambda p: fig4_welfare_vs_load(
                csv_path=str(p / "fig4.csv"), n=16, m_values=(10,),
                k_grids={10: [2, 3]}, replicas=300).csv_path),
            ("fig5", lambda p: fig5_frg_ratio_vs_t(
                csv_path=str(p / "fig5.csv"), replicas=50,
                t_multiples=(1, 2, 5)).csv_path),
        ):
            d1, d2 = tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"
            d1.mkdir(), d2.mkdir()
            b1 = open(call(d1), "rb").read()
            b2 = open(call(d2), "rb").read()
            pairs.append((tag, b1 == b2))
        ok = all(same for _, same in pairs)
        _report(10, name, ok,
                ", ".join(f"{tag}: {'identical' if same else 'DIFFERS'}"
                          for tag, same in pairs))
