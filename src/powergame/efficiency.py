"""Sigmoidal efficiency models and the characteristic SINR solvers.

The transmission efficiency f maps SINR to a success fraction in [0, 1).
Two families are supported:

* ``PacketSuccess(m)``: f(x) = (1 - exp(-x))**m, the block success
  probability of an m-symbol packet.
* ``InfoTheoretic(rate)``: f(x) = exp(-c/x) with c = 2**rate - 1, the
  outage-style approximation tied to a target spectral efficiency.

Every operating point of the power control game is a positive root of an
equation of the form x*(1 - A*x)*f'(x) = f(x) for some interference
coefficient A >= 0:

* A = 0 gives the selfish one-shot equilibrium SINR (``beta_star``),
* A = (k-1)/n gives the cooperative operating SINR (``gamma_tilde``),
* A built from beta_star gives the hierarchical leader SINR (``gamma_star``).

Roots are isolated with an expanding bracket and refined by bisection.  The
equations are evaluated in the ratio form x*(1 - A*x)*f'(x)/f(x) - 1, which
stays finite where f itself underflows (tiny SINR, large m).  The ratios
f'/f and f''/f' take a scalar path on floats (numpy scalar ufuncs, no array
round trip) whose bits equal the array path's.

The cooperative root is unique when h(x) = f''/f' - 2(k-1)/(n-(k-1)x)
changes sign exactly once, from + to -, on (0, n/(k-1)).  Both families
settle this by a sign argument instead of a numeric scan (see
``check_op_condition``).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from math import log2

import numpy as np

from .errors import NoNashEquilibriumError
from .roots import bisect, expand_bracket


class UniquenessRiskWarning(UserWarning):
    """The single-crossing check failed; the returned root may not be unique."""


def _check_domain(x, positive: bool) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if positive:
        if np.any(arr <= 0.0):
            raise ValueError("SINR must be strictly positive here")
    elif np.any(arr < 0.0):
        raise ValueError("SINR must be nonnegative")
    return arr


def _as_input(x, arr: np.ndarray):
    return float(arr) if np.ndim(x) == 0 else arr


def _positive_ratio(formula):
    """Method evaluating `formula` on a strictly positive SINR or SINR array.

    A float (numpy float64 included) takes the scalar path the root solvers
    use: the domain check and the formula run on the float itself, with no
    array round trip.  Formulas use numpy ufuncs (``np.exp``, never
    ``math.exp``) and ``x * x`` (never ``x**2``) so that both paths round
    identically.
    """

    @functools.wraps(formula)
    def method(self, x):
        if isinstance(x, float):
            if x <= 0.0:
                raise ValueError("SINR must be strictly positive here")
            try:
                return float(formula(self, x))
            except ZeroDivisionError:
                pass  # x * x underflowed; the array path returns inf instead
        arr = _check_domain(x, positive=True)
        return _as_input(x, formula(self, arr))

    return method


@dataclass(frozen=True)
class PacketSuccess:
    """Packet success efficiency f(x) = (1 - exp(-x))**m."""

    m: int

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("packet length m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))

    def value(self, x):
        arr = _check_domain(x, positive=False)
        return _as_input(x, (1.0 - np.exp(-arr)) ** self.m)

    __call__ = value

    def deriv(self, x, order: int = 1):
        arr = _check_domain(x, positive=True)
        m = self.m
        e = np.exp(-arr)
        if order == 1:
            out = m * e * (1.0 - e) ** (m - 1)
        elif order == 2:
            out = m * e * (1.0 - e) ** (m - 2) * (m * e - 1.0)
        else:
            raise ValueError("order must be 1 or 2")
        return _as_input(x, out)

    @_positive_ratio
    def dlog(self, x):
        """f'(x)/f(x), computed without forming f (safe under underflow)."""
        e = np.exp(-x)
        return self.m * e / (1.0 - e)

    @_positive_ratio
    def curvature_ratio(self, x):
        """f''(x)/f'(x) in closed form."""
        e = np.exp(-x)
        return (self.m * e - 1.0) / (1.0 - e)


@dataclass(frozen=True)
class InfoTheoretic:
    """Efficiency f(x) = exp(-c/x), c = 2**rate - 1, with f(0) = 0."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError("spectral efficiency target must be positive")
        object.__setattr__(self, "rate", float(self.rate))

    @classmethod
    def from_c(cls, c: float) -> "InfoTheoretic":
        if not c > 0.0:
            raise ValueError("c must be positive")
        return cls(rate=log2(1.0 + c))

    @property
    def c(self) -> float:
        return 2.0 ** self.rate - 1.0

    def value(self, x):
        arr = _check_domain(x, positive=False)
        with np.errstate(divide="ignore"):
            out = np.exp(-self.c / arr)  # x = 0 maps to exp(-inf) = 0
        return _as_input(x, out)

    __call__ = value

    def deriv(self, x, order: int = 1):
        arr = _check_domain(x, positive=True)
        c = self.c
        v = np.exp(-c / arr)
        if order == 1:
            out = c / arr**2 * v
        elif order == 2:
            out = c / arr**3 * (c / arr - 2.0) * v
        else:
            raise ValueError("order must be 1 or 2")
        return _as_input(x, out)

    @_positive_ratio
    def dlog(self, x):
        return self.c / (x * x)

    @_positive_ratio
    def curvature_ratio(self, x):
        return (self.c - 2.0 * x) / (x * x)


EfficiencyModel = PacketSuccess | InfoTheoretic


def _solve_sinr_equation(model: EfficiencyModel, coeff: float) -> float:
    """Positive root of x*(1 - coeff*x)*f'(x) - f(x) = 0.

    Returns 0.0 when the equation has no positive root, i.e. when marginal
    efficiency never beats average efficiency (f effectively concave, as for
    PacketSuccess m = 1); the optimum then sits on the boundary x -> 0.
    """

    def g(x: float) -> float:
        return x * (1.0 - coeff * x) * model.dlog(x) - 1.0

    bracket = expand_bracket(g)
    if bracket is None:
        return 0.0
    return bisect(g, *bracket)


def solve_beta_star(model: EfficiencyModel) -> float:
    """SINR where a player stops gaining from more power: x f'(x) = f(x)."""
    return _solve_sinr_equation(model, 0.0)


def solve_gamma_tilde(model: EfficiencyModel, k: int, n: int, check: bool = True) -> float:
    """Cooperative operating SINR: root of x (1 - (k-1)x/n) f'(x) = f(x).

    For k = 1 there is no interference term and this is solve_beta_star.
    When `check` is set, ``check_op_condition`` first decides the
    single-crossing condition by its per-family sign argument, and a
    UniquenessRiskWarning is emitted if it fails (the root is still returned).
    """
    if k <= 1:
        return solve_beta_star(model)
    if check:
        ok, _ = check_op_condition(model, k, n)
        if not ok:
            warnings.warn(
                "single-crossing condition failed; operating point may not be unique",
                UniquenessRiskWarning,
                stacklevel=2,
            )
    return _solve_sinr_equation(model, (k - 1) / n)


def leader_coefficient(k: int, n: int, beta_star: float) -> float:
    """Interference coefficient seen by the hierarchy leader.

    Derived by eliminating the followers' best responses (each pinned at
    beta_star) from the leader's SINR: the leader maximises
    (f(x)/x)*(1 - A*x) with A = ((k-1)*beta_star/n**2) / (1 - (k-2)*beta_star/n).
    """
    if k <= 1:
        return 0.0
    react = 1.0 - (k - 2) * beta_star / n
    if react <= 0.0:
        raise NoNashEquilibriumError(
            "leader-follower structure infeasible: requires (K-2)*beta_star/N < 1, "
            f"got (K-2)*beta_star/N = {(k - 2) * beta_star / n}"
        )
    return (k - 1) * beta_star / n**2 / react


def solve_gamma_star(model: EfficiencyModel, k: int, n: int, beta_star: float) -> float:
    """Leader SINR of the hierarchical (leader-follower) equilibrium."""
    if k <= 1:
        return beta_star
    return _solve_sinr_equation(model, leader_coefficient(k, n, beta_star))


def check_op_condition(model: EfficiencyModel, k: int,
                       n: int) -> tuple[bool, float | None]:
    """Decide the single-crossing condition guaranteeing a unique operating point.

    The condition: h(x) = f''(x)/f'(x) - 2(k-1)/(n - (k-1)x) changes sign
    exactly once, from + to -, on (0, n/(k-1)).  The subtracted term is
    positive and strictly increasing there, with h -> -inf at the right end.
    Each family settles the condition by a sign argument:

    * PacketSuccess(m >= 2): f''/f' = (m e - 1)/(1 - e) with e = exp(-x) has
      d/de = (m-1)/(1-e)**2 > 0, so it falls strictly in x from +inf; h falls
      strictly from +inf to -inf and crosses exactly once.
    * PacketSuccess(1): f''/f' = -1, so h < 0 throughout and never crosses.
    * InfoTheoretic: f''/f' = (c - 2x)/x**2 falls strictly on (0, c] from
      +inf and is negative past c/2, so h falls strictly from +inf until it
      turns negative and stays negative: exactly one crossing.  h is not
      monotone past c, which is why this takes the sign argument.

    Vacuously true for k < 2.  Returns (ok, x0) with x0 the crossing,
    bisected on h over (0, n/(k-1)), when ok.
    """
    if k < 2:
        return True, None
    if isinstance(model, PacketSuccess):
        ok = model.m >= 2
    elif isinstance(model, InfoTheoretic):
        ok = True
    else:
        raise TypeError(f"no single-crossing argument for {type(model).__name__}")
    if not ok:
        return False, None

    def h(x: float) -> float:
        return model.curvature_ratio(x) - 2.0 * (k - 1) / (n - (k - 1) * x)

    return True, bisect(h, 0.0, n / (k - 1))


def equal_action_utility(model: EfficiencyModel, x, k: int, n: int):
    """Per-player utility scale at an equal-action profile with common SINR x.

    When every player transmits the same received action, a player's utility
    is rate * gain2 * n / sigma2 times this factor:
    (f(x)/x) * (1 - (k-1)x/n).  Maximised exactly at the cooperative SINR.
    """
    arr = _check_domain(x, positive=True)
    out = model.value(arr) / arr * (1.0 - (k - 1) * arr / n)
    return _as_input(x, out)


@dataclass(frozen=True)
class CharacteristicSinrs:
    """The three operating SINRs of a (model, k, n) game, with validity checks."""

    beta_star: float
    gamma_star: float
    gamma_tilde: float
    k: int
    n: int

    def __post_init__(self):
        if not (self.beta_star > 0 and self.gamma_star > 0 and self.gamma_tilde > 0):
            raise ValueError("characteristic SINRs must be positive")
        tol = 1e-9 * self.beta_star
        if self.gamma_tilde > self.beta_star + tol or self.gamma_star > self.beta_star + tol:
            raise ValueError("cooperative and leader SINRs cannot exceed beta_star")
        if self.k >= 2 and not self.gamma_tilde < self.n / (self.k - 1):
            raise ValueError("gamma_tilde must lie below n/(k-1)")


def solve_all(model: EfficiencyModel, k: int, n: int) -> CharacteristicSinrs:
    """Solve the three characteristic SINRs for one game."""
    bs = solve_beta_star(model)
    if bs <= 0.0:
        raise NoNashEquilibriumError(
            "efficiency model has no positive selfish optimum (marginal efficiency "
            "never exceeds average efficiency); PacketSuccess needs m >= 2"
        )
    return CharacteristicSinrs(
        beta_star=bs,
        gamma_star=solve_gamma_star(model, k, n, bs),
        gamma_tilde=solve_gamma_tilde(model, k, n),
        k=k,
        n=n,
    )
