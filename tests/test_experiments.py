"""Experiment runners: CSV layout, frozen pins, determinism."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError

import powergame
from powergame.efficiency import (
    PacketSuccess,
    equal_action_utility,
    solve_all,
    solve_beta_star,
)
from powergame.errors import NoFiniteT0Error, NoNashEquilibriumError
from powergame.experiments import (
    DEFAULT_SEED,
    RUNNERS,
    _convexity_ratio,
    _hull_lattice_points,
    fig1_region,
    fig2_dynamics_vs_t,
    fig3_dynamics_vs_lambda,
    fig4_welfare_vs_load,
    fig5_frg_ratio_vs_t,
    fig5_t0_sweep,
    max_supported_players,
)
from powergame.repeated import (
    _lambda_edge,
    _t0_edge,
    _t0_floor_edge,
    _t0_ratios,
    lambda_bound,
    t0_bound,
)
from powergame.static_game import ChannelState, NetworkConfig, sample_utility_region

# hand-derived admissibility coefficients delta / ((k-1) f(b) - delta) for the
# m=2 sweep curves; the stopping-probability sweep's max ratio is coeff*(1-x)/x
LAMBDA_COEFF = {(2, 2): 0.2025525523031779,
                (4, 5): 0.08310097064562912,
                (10, 12): 0.03839441247258262}

# independently bisected horizon-sweep dynamics (dB, 3 decimals) at m=2,
# sigma2=1e-3, p_max=100, eta_min=1
FIG2_DB = {
    (2, 2): {2: 1.143, 10: 5.922, 50: 11.066},
    (4, 5): {2: 0.089, 10: 4.624, 50: 10.417},
    (10, 12): {2: None, 10: 0.174, 50: 5.028},  # None: no admissible spread
}

T0_SWEEP_PINS = {1e-2: None, 1e-1: None, 1e0: None, 1e1: None, 1e2: None,
                 1e3: None, 1e4: 9620, 1e5: 2708, 1e6: 2526, 1e7: 2509,
                 1e8: 2508}

FIG5_LIMIT = 7.021443244752927
FIG5_T0 = 44


def _read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_fig1_small_grid_marks_and_flags(tmp_path):
    res = fig1_region(region_path=str(tmp_path / "region.csv"),
                      points_path=str(tmp_path / "points.csv"),
                      points_per_axis=60, hull_bins=12)
    lines = _read_lines(res.region_path)
    assert lines[0].startswith("# experiment: fig1_region")
    assert lines[2] == "# seed: none"
    assert lines[4] == "p1,p2,u1_norm,u2_norm"
    assert len(lines) == 5 + 60 * 60

    kinds = [p.kind for p in res.points]
    assert kinds == ["ne", "se", "op", "welfare_max"]
    assert not any(p.saturated for p in res.points)
    assert res.op_dominates_ne and res.op_within_one_cell
    assert res.convexity_ratio > 0.9
    plines = _read_lines(res.points_path)
    assert plines[4] == "kind,p1,p2,u1_norm,u2_norm,saturated"
    assert len(plines) == 5 + 4


def _qhull_inside(occupied):
    """Bins that qhull places in the hull of the occupied bins, in bin-index coordinates.

    A bin off the hull lies at least 1/|edge| index units from it, so a
    barycentric tolerance of 1e-9 only keeps the bins on its edges in.
    """
    cells = np.argwhere(np.ones_like(occupied)).astype(float)
    return int((Delaunay(cells[occupied.ravel()]).find_simplex(cells, tol=1e-9) >= 0).sum())


def _occupancy_of(utils_norm, bins):
    """The occupied bins of the convexity ratio's histogram."""
    u1, u2 = utils_norm[:, 0], utils_norm[:, 1]
    span1 = u1.max() * (1 + 1e-9) or 1.0
    span2 = u2.max() * (1 + 1e-9) or 1.0
    return np.histogram2d(u1, u2, bins=bins, range=[[0.0, span1], [0.0, span2]])[0] > 0


def _flat(occupied):
    """Whether the occupied bins lie on one line (qhull cannot triangulate them)."""
    cells = np.argwhere(occupied)
    return np.linalg.matrix_rank(cells - cells[0]) < 2


@st.composite
def _occupancy(draw):
    bins = draw(st.integers(2, 40))
    cells = draw(st.sets(st.tuples(st.integers(0, bins - 1), st.integers(0, bins - 1)),
                         min_size=1, max_size=60))
    occupied = np.zeros((bins, bins), dtype=bool)
    occupied[tuple(np.array(sorted(cells)).T)] = True
    return occupied


@given(_occupancy())
@settings(max_examples=150, deadline=None)
def test_hull_lattice_count_matches_qhull_on_random_occupancy(occupied):
    assume(not _flat(occupied))
    assert _hull_lattice_points(occupied) == _qhull_inside(occupied)


@given(st.integers(1, 20), st.integers(1, 16), st.floats(0.2, 5.0), st.floats(0.2, 5.0),
       st.floats(0.2, 3.0), st.floats(1e-4, 1e-1), st.integers(4, 60), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_convexity_ratio_matches_qhull_on_sampled_regions(m, n, g1, g2, rate, sigma2,
                                                          points, bins):
    cfg = NetworkConfig(k=2, n=n, sigma2=sigma2, rates=(rate, 1.0), p_max=(1e-2, 1e-2),
                        eta_min=(g1, g2), eta_max=(g1, g2))
    _, utils_norm = sample_utility_region(PacketSuccess(m), cfg, ChannelState((g1, g2)),
                                          points)
    occupied = _occupancy_of(utils_norm, bins)
    assume(not _flat(occupied))
    assert _convexity_ratio(utils_norm, bins) == occupied.sum() / _qhull_inside(occupied)


def test_convexity_ratio_of_degenerate_occupancy():
    # one bin, or bins on one line: qhull refuses them; the count is exact
    one = np.zeros((5, 5), dtype=bool)
    one[2, 3] = True
    line = np.zeros((8, 8), dtype=bool)
    line[[0, 2, 3, 6], [0, 2, 3, 6]] = True  # the diagonal (0, 0)-(6, 6): 7 points
    column = np.zeros((8, 8), dtype=bool)
    column[4, [1, 7]] = True
    assert [_hull_lattice_points(o) for o in (one, line, column)] == [1, 7, 7]
    for occupied in (one, line, column):
        with pytest.raises(QhullError):
            _qhull_inside(occupied)

    assert _convexity_ratio(np.full((10, 2), 0.5), 24) == 1.0
    diagonal = np.repeat(np.linspace(0.0, 1.0, 24)[:, None], 2, axis=1)
    assert _convexity_ratio(diagonal, 24) == 1.0
    # 8 samples that land in bins 0, 3, 6, 10, 13, 17, 20 and 23 of the diagonal
    assert _convexity_ratio(diagonal[::3], 24) == 8 / 24


def test_convexity_ratio_does_not_depend_on_the_spans():
    # an L along both axes: 9 of the 15 bins of the triangle (0, 0), (4, 0), (0, 4)
    axis = np.linspace(0.0, 1.0, 5)
    corner = np.concatenate([np.column_stack([axis, 0 * axis]), np.column_stack([0 * axis, axis])])
    for scale in (1.0, 1e-6, 1e-12):
        assert _convexity_ratio(corner * [1.0, scale], 5) == 9 / 15
        assert _convexity_ratio(corner * [scale, 1.0], 5) == 9 / 15


def test_fig1_leaves_scipy_unimported(tmp_path):
    code = ("import sys\n"
            "from powergame.experiments import fig1_region\n"
            f"fig1_region(out_dir={str(tmp_path)!r}, points_per_axis=20, hull_bins=6)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(powergame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fig2_matches_the_closed_form_boundary(tmp_path):
    sigma2, p_max, eta_min = 1e-3, 100.0, 1.0
    t_grid = (2, 10, 50)
    res = fig2_dynamics_vs_t(csv_path=str(tmp_path / "fig2.csv"), t_grid=t_grid)
    assert len(res.rows) == 9
    model = PacketSuccess(2)
    by_curve = {}
    for row in res.rows:
        by_curve.setdefault((row.k, row.n), {})[row.x] = row
        # closed form: the bound ratio equals t at the admissibility edge
        sinrs = solve_all(model, row.k, row.n)
        f_b = model.value(sinrs.beta_star)
        dev = f_b / sinrs.beta_star
        q = f_b / (sinrs.beta_star
                   * ((row.k - 1) * p_max * eta_min + sigma2))
        phi_ne = equal_action_utility(model, sinrs.beta_star, row.k, row.n)
        phi_op = equal_action_utility(model, sinrs.gamma_tilde, row.k, row.n)
        edge = (row.x * phi_ne + phi_op) / (dev + row.x * q)
        if edge < 1.0:
            assert not row.admissible
            assert row.ratio_max == 1.0 and row.dynamics_db == 0.0
        else:
            assert row.admissible
            np.testing.assert_allclose(row.ratio_max, edge, rtol=1e-9)
            np.testing.assert_allclose(row.dynamics_db,
                                       10.0 * math.log10(row.ratio_max),
                                       rtol=1e-12)
    # frozen three-decimal pins and the curve ordering
    for (k, n), per_t in FIG2_DB.items():
        for t, db in per_t.items():
            row = by_curve[(k, n)][t]
            if db is None:
                assert not row.admissible
            else:
                assert round(row.dynamics_db, 3) == db
    for t in t_grid:
        assert by_curve[(2, 2)][t].dynamics_db >= by_curve[(4, 5)][t].dynamics_db
        assert by_curve[(4, 5)][t].dynamics_db >= by_curve[(10, 12)][t].dynamics_db


def test_fig3_matches_the_scale_free_closed_form(tmp_path):
    grid = (0.05, 0.15)
    res = fig3_dynamics_vs_lambda(csv_path=str(tmp_path / "fig3.csv"),
                                  lambda_grid=grid)
    assert len(res.rows) == 6
    for row in res.rows:
        edge = LAMBDA_COEFF[(row.k, row.n)] * (1.0 - row.x) / row.x
        if edge < 1.0:
            assert not row.admissible and row.ratio_max == 1.0
        else:
            assert row.admissible
            np.testing.assert_allclose(row.ratio_max, edge, rtol=1e-9)
    flags = {(r.k, r.n, r.x): r.admissible for r in res.rows}
    assert flags[(2, 2, 0.05)] and flags[(4, 5, 0.05)]
    assert not flags[(10, 12, 0.05)]
    assert flags[(2, 2, 0.15)]
    assert not flags[(4, 5, 0.15)] and not flags[(10, 12, 0.15)]


def _loaded_game(m, k, n):
    """PacketSuccess(m) on a (k, n) curve with a one-shot equilibrium."""
    model = PacketSuccess(m)
    assume((k - 1) * solve_beta_star(model) < n)
    return model, solve_all(model, k, n)


def _alike(k, n, sigma2, p_max, eta_min, ratio):
    return NetworkConfig.uniform(k=k, n=n, sigma2=sigma2, rate=1.0, p_max=p_max,
                                 eta_min=eta_min, eta_max=eta_min * ratio)


def _check_edge(edge, admissible):
    """Ratios just inside the edge pass; just outside (or 1, below it) fail."""
    if edge >= 1.0:
        assert admissible(max(edge * (1.0 - 1e-12), 1.0))
    assert not admissible(max(edge * (1.0 + 1e-9), 1.0))


CURVE = dict(m=st.integers(2, 20), k=st.integers(2, 12), n=st.integers(1, 128))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**CURVE, t=st.integers(1, 500), log_sigma2=st.floats(-5.0, 0.0),
       log_p_max=st.floats(-2.0, 3.0), log_eta_min=st.floats(-2.0, 2.0))
def test_fig2_edge_is_where_t0_bound_crosses_t(m, k, n, t, log_sigma2,
                                               log_p_max, log_eta_min):
    model, sinrs = _loaded_game(m, k, n)
    scale = (10.0 ** log_sigma2, 10.0 ** log_p_max, 10.0 ** log_eta_min)

    def admissible(ratio):
        cfg = _alike(k, n, *scale, ratio)
        try:
            return t0_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde) <= t
        except NoFiniteT0Error:
            return False

    edge = _t0_edge(_alike(k, n, *scale, 1.0), model, sinrs.beta_star,
                    sinrs.gamma_tilde, t)
    _check_edge(edge, admissible)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**CURVE, lam=st.floats(1e-3, 0.5), log_eta_min=st.floats(-2.0, 2.0))
def test_fig3_edge_is_where_lambda_bound_crosses_lambda(m, k, n, lam,
                                                        log_eta_min):
    model, sinrs = _loaded_game(m, k, n)

    def admissible(ratio):
        cfg = _alike(k, n, 1e-3, 100.0, 10.0 ** log_eta_min, ratio)
        return lambda_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde) >= lam

    edge = _lambda_edge(model, k, n, sinrs.beta_star, sinrs.gamma_tilde, lam)
    _check_edge(edge, admissible)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**CURVE, target=st.integers(2, 10_000), ratio=st.floats(1.0, 100.0),
       log_sigma2=st.floats(-6.0, 0.0), log_p_max=st.floats(-3.0, 2.0))
def test_t0_sweep_floor_puts_the_t0_ratio_on_target(m, k, n, target, ratio,
                                                    log_sigma2, log_p_max):
    model, sinrs = _loaded_game(m, k, n)
    sigma2, p_max = 10.0 ** log_sigma2, 10.0 ** log_p_max
    floor = _t0_floor_edge(_alike(k, n, sigma2, p_max, 1.0, ratio), model,
                           sinrs.beta_star, sinrs.gamma_tilde, target)
    assume(0.0 < floor < math.inf)
    at = _alike(k, n, sigma2, p_max, floor, ratio)
    r = _t0_ratios(at, model, sinrs.beta_star, sinrs.gamma_tilde, 0)[0]
    np.testing.assert_allclose(r, target, rtol=1e-9)


def test_fig4_small_run_rows_and_skips(tmp_path):
    res = fig4_welfare_vs_load(csv_path=str(tmp_path / "fig4.csv"), n=16,
                               m_values=(10,), k_grids={10: range(2, 7)},
                               replicas=200)
    assert [r.k for r in res.rows] == [2, 3, 4, 5]
    assert len(res.skipped) == 1 and res.skipped[0][:2] == (10, 6)
    beta = solve_all(PacketSuccess(10), 2, 16).beta_star
    for row in res.rows:
        assert row.alpha == row.k / 16
        assert row.op_gain_mean > 0.0
        assert row.op_gain_stderr < 1e-15  # cooperation gain is draw-independent
        assert row.se_gain_mean > 0.0
        assert row.se_gain_stderr > 0.0
        np.testing.assert_allclose(row.alpha_max, 1.0 / beta + 1.0 / 16,
                                   rtol=1e-12)
    lines = _read_lines(res.csv_path)
    assert lines[2] == f"# seed: {DEFAULT_SEED}"
    assert lines[4].startswith("m,k,alpha,")


def test_fig4_string_keyed_grids_accepted(tmp_path):
    # JSON-sourced configs arrive with string keys
    res = fig4_welfare_vs_load(csv_path=str(tmp_path / "fig4.csv"), n=16,
                               m_values=(10,), k_grids={"10": [2, 3]},
                               replicas=50)
    assert [r.k for r in res.rows] == [2, 3]


def test_max_supported_players_pins():
    assert max_supported_players(PacketSuccess(10), 128) == 36
    assert max_supported_players(PacketSuccess(100), 128) == 20


def test_max_supported_players_needs_a_positive_beta_star():
    with pytest.raises(NoNashEquilibriumError, match="no positive selfish optimum"):
        max_supported_players(PacketSuccess(1), 128)


def test_fig5_small_run_shape_and_routes(tmp_path):
    res = fig5_frg_ratio_vs_t(csv_path=str(tmp_path / "fig5.csv"), replicas=40,
                              t_multiples=(1, 2, 5, 10))
    assert res.t0 == FIG5_T0
    np.testing.assert_allclose(res.limit_ratio, FIG5_LIMIT, rtol=1e-12)
    first = res.rows[0]
    assert first.no_window and first.cooperation_stages == 0
    assert first.ratio_mean == 1.0 and first.ratio_stderr == 0.0
    ratios = [r.ratio_mean for r in res.rows]
    assert ratios == sorted(ratios)
    assert all(1.0 <= r <= FIG5_LIMIT for r in ratios)
    for row in res.rows:
        # the engine-rate route and the utility-factor route are the same
        # weighted mean up to rounding
        np.testing.assert_allclose(row.formula_ratio_mean, row.ratio_mean,
                                   rtol=1e-12)


def test_t0_sweep_reports_frozen_decades(tmp_path):
    res = fig5_t0_sweep(csv_path=str(tmp_path / "sweep.csv"))
    got = {r.eta_min: r.t0 for r in res.rows}
    assert got == T0_SWEEP_PINS
    assert not res.any_match
    np.testing.assert_allclose(res.implied_eta_min, 61101.23596963902, rtol=1e-6)
    lines = _read_lines(res.csv_path)
    assert lines[4] == "eta_min,t0,matches_target"
    # missing bounds serialize as empty cells, booleans as 0/1
    assert lines[5].split(",")[1] == ""
    assert lines[-1].split(",")[2] == "0"


def test_rng_free_experiments_are_byte_identical(tmp_path):
    a = fig2_dynamics_vs_t(csv_path=str(tmp_path / "a.csv"), t_grid=(2, 5))
    b = fig2_dynamics_vs_t(csv_path=str(tmp_path / "b.csv"), t_grid=(2, 5))
    assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()


def test_seeded_experiments_are_byte_identical(tmp_path):
    kw = dict(n=16, m_values=(10,), k_grids={10: [2, 3]}, replicas=100)
    a = fig4_welfare_vs_load(csv_path=str(tmp_path / "a.csv"), **kw)
    b = fig4_welfare_vs_load(csv_path=str(tmp_path / "b.csv"), **kw)
    assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()
    c = fig4_welfare_vs_load(csv_path=str(tmp_path / "c.csv"), seed=99, **kw)
    assert Path(a.csv_path).read_bytes() != Path(c.csv_path).read_bytes()


def test_worker_count_does_not_change_the_output(tmp_path):
    kw = dict(replicas=30, t_multiples=(1, 2, 5))
    a = fig5_frg_ratio_vs_t(csv_path=str(tmp_path / "w1.csv"), workers=1, **kw)
    b = fig5_frg_ratio_vs_t(csv_path=str(tmp_path / "w3.csv"), workers=3, **kw)
    assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()


def test_fig4_worker_count_does_not_change_the_output(tmp_path):
    kw = dict(n=16, m_values=(10,), k_grids={10: [2, 3, 4]}, replicas=60)
    a = fig4_welfare_vs_load(csv_path=str(tmp_path / "w1.csv"), workers=1, **kw)
    b = fig4_welfare_vs_load(csv_path=str(tmp_path / "w2.csv"), workers=2, **kw)
    assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()


PATH_ARGS = {"csv_path", "region_path", "points_path", "out_dir"}
RUNNER_ARGS = [(name, key) for name, runner in RUNNERS.items()
               for key in inspect.signature(runner).parameters if key not in PATH_ARGS]


def _spoiled(key, default, bad, slot):
    """An argument shaped like its default with one number replaced by bad."""
    if key == "k_grids":
        return {"10": [2, bad]}
    if not isinstance(default, tuple):
        return bad
    items = list(default)[:2]
    items[slot] = [items[slot][0], bad] if isinstance(items[slot], tuple) else bad
    return items


@pytest.mark.parametrize("name, key", RUNNER_ARGS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), slot=st.integers(0, 1))
def test_runners_reject_nonfinite_arguments_from_python(tmp_path_factory, name, key,
                                                        bad, slot):
    assume((key, bad) != ("eta_max", math.inf))  # no upper cut on the gains
    runner = RUNNERS[name]
    value = _spoiled(key, inspect.signature(runner).parameters[key].default, bad, slot)
    out_dir = tmp_path_factory.mktemp("nonfinite")
    with pytest.raises(ValueError, match=f"^{name} needs .* in {key}, got "):
        runner(out_dir=str(out_dir), **{key: value})
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("name, key, value", [
    ("fig4", "replicas", 0),
    ("fig5", "replicas", 0),
    ("fig5", "replicas", -2),
    ("fig5", "t_multiples", (1, 0)),
    ("fig2", "t_grid", (0, -3)),
    ("fig2", "t_grid", (2.5,)),
    ("fig2", "t_grid", (True,)),
])
def test_runners_reject_counts_and_horizons_below_one(tmp_path, name, key, value):
    with pytest.raises(ValueError, match=f"^{name} needs integers >= 1 in {key}, got "):
        RUNNERS[name](out_dir=str(tmp_path), **{key: value})
    assert list(tmp_path.iterdir()) == []
