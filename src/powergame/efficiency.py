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

Each family solves it in ``_root(A)``: InfoTheoretic in the closed form
c/(1 + A*c), PacketSuccess bracketed and refined to the float plain bisection
returns (``roots.bisect`` locates the crossing by regula falsi and replays the
bisection, evaluating only near the root) on the ratio form
x*(1 - A*x)*f'(x)/f(x) - 1, finite where f underflows (tiny SINR, large m).

Every function of the SINR goes through one decorator, ``_sinr_formula``,
which rejects SINRs outside the domain (NaN included) and evaluates a float
as a float, anything else as an array.  A float returns the bits of a 0-d
array; ``value`` and ``equal_action_utility`` can differ by 1 ulp from the
1-d array kernel at m >= 3 (numpy's vector power loop against scalar pow).

The cooperative root is unique when h(x) = f''/f' - 2(k-1)/(n-(k-1)x)
changes sign exactly once, from + to -, on (0, n/(k-1)); the subtracted term
is positive and increasing there, and h -> -inf at the right end.  Each family
settles this for all k >= 2 and n by a sign argument in its ``single_crossing``
flag, and gives the zero of h as ``_crossing(k, n)``.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass, field
from math import inf, log, log1p

import numpy as np

from .errors import NoNashEquilibriumError
from .roots import bisect, expand_bracket


class UniquenessRiskWarning(UserWarning):
    """The single-crossing check failed; the returned root may not be unique."""


def _sinr_formula(positive: bool):
    """Decorator for ``formula(obj, x, *args, **kwargs)`` on an SINR or SINR array.

    The domain is x > 0 when `positive` is set and x >= 0 otherwise.  A float
    (numpy float64 included) is checked and evaluated as itself; formulas use
    numpy ufuncs (``np.exp``, ``np.power``) and ``x * x`` so that it gets the
    bits of a 0-d array.  Where a float divides by zero (x = 0 or x * x
    underflowing), and for any other input, the formula runs on a float array.
    """
    in_domain = operator.gt if positive else operator.ge
    message = "SINR must be " + ("strictly positive here" if positive else "nonnegative")

    def decorate(formula):
        @functools.wraps(formula)
        def evaluate(obj, x, *args, **kwargs):
            if isinstance(x, float):
                if not in_domain(x, 0.0):
                    raise ValueError(message)
                try:  # a bare call when nothing is forwarded: 0.15 us less per root step
                    return float(formula(obj, x, *args, **kwargs) if args or kwargs
                                 else formula(obj, x))
                except ZeroDivisionError:
                    pass
            arr = np.asarray(x, dtype=float)
            if not np.all(in_domain(arr, 0.0)):
                raise ValueError(message)
            out = formula(obj, arr, *args, **kwargs)
            return float(out) if arr.ndim == 0 else out

        return evaluate

    return decorate


@dataclass(frozen=True)
class PacketSuccess:
    """Packet success efficiency f(x) = (1 - exp(-x))**m."""

    m: int

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("packet length m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))

    @_sinr_formula(positive=False)
    def value(self, x):
        return (1.0 - np.exp(-x)) ** self.m

    __call__ = value

    @_sinr_formula(positive=True)
    def deriv(self, x, order: int = 1):
        m = self.m
        e = np.exp(-x)
        if order == 1:
            return m * e * (1.0 - e) ** (m - 1)
        if order == 2:
            return m * e * (1.0 - e) ** (m - 2) * (m * e - 1.0)
        raise ValueError("order must be 1 or 2")

    @_sinr_formula(positive=True)
    def dlog(self, x):
        """f'(x)/f(x), computed without forming f (safe under underflow)."""
        e = np.exp(-x)
        return self.m * e / (1.0 - e)

    @_sinr_formula(positive=True)
    def curvature_ratio(self, x):
        """f''(x)/f'(x) in closed form."""
        e = np.exp(-x)
        return (self.m * e - 1.0) / (1.0 - e)

    @property
    def single_crossing(self) -> bool:
        """f''/f' = (m e - 1)/(1 - e), e = exp(-x), has d/de = (m-1)/(1-e)**2: for m >= 2
        it falls strictly in x from +inf, and h with it, once through 0.  For m = 1
        it is -1, and h < 0 throughout."""
        return self.m >= 2

    def _root(self, coeff: float) -> float:
        """The root of g = x (1 - coeff x) f'/f - 1, which tends to m - 1 > 0 at 0 for m >= 2.
        m = 1 has none, as x e^-x/(1 - e^-x) < 1: 0.0, the boundary optimum x -> 0."""
        if self.m == 1:
            return 0.0

        def g(x: float) -> float:
            return x * (1.0 - coeff * x) * self.dlog(x) - 1.0

        return bisect(g, *expand_bracket(g))

    def _crossing(self, k: int, n: int) -> float:
        def h(x: float) -> float:
            return self.curvature_ratio(x) - 2.0 * (k - 1) / (n - (k - 1) * x)

        return bisect(h, 0.0, n / (k - 1))


@dataclass(frozen=True)
class InfoTheoretic:
    """Efficiency f(x) = exp(-c/x), c = 2**rate - 1, with f(0) = 0."""

    rate: float = field(compare=False)  # every formula, == and hash read c
    c: float = field(init=False, repr=False)  # 2**rate - 1, set once

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        c = inf if self.rate >= 1024.0 else 2.0 ** self.rate - 1.0  # no OverflowError
        if not 0.0 < c < inf:  # NaN, rate <= 0, or 2**rate rounding to 1 or overflowing
            raise ValueError(f"c = 2**rate - 1 must be positive and finite, got c = {c}")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_c(cls, c: float) -> "InfoTheoretic":
        """The model with exactly this c, and rate log2(1 + c) taken through log1p."""
        if not 0.0 < c < inf:
            raise ValueError(f"c must be positive and finite, got c = {c}")
        model = object.__new__(cls)  # 2**rate - 1 need not round back to c
        vars(model).update(rate=log1p(c) / log(2.0), c=float(c))
        return model

    @_sinr_formula(positive=False)
    def value(self, x):
        with np.errstate(divide="ignore"):  # x = 0 maps to exp(-inf) = 0
            return np.exp(-self.c / (x + 0.0))  # + 0.0 makes -0.0 into 0.0

    __call__ = value

    @_sinr_formula(positive=True)
    def deriv(self, x, order: int = 1):
        c = self.c
        v = np.exp(-c / x)
        if order == 1:
            return c / (x * x) * v
        if order == 2:
            return c / np.power(x, 3) * (c / x - 2.0) * v
        raise ValueError("order must be 1 or 2")

    @_sinr_formula(positive=True)
    def dlog(self, x):
        return self.c / (x * x)

    @_sinr_formula(positive=True)
    def curvature_ratio(self, x):
        return (self.c - 2.0 * x) / (x * x)

    # h = 0 is linear in x (see _crossing): h, from +inf at 0 to -inf, crosses once
    single_crossing = True

    def _root(self, coeff: float) -> float:
        """c (1 - coeff x) = x: c/(1 + coeff c), or 1/coeff where coeff c overflows."""
        c = self.c
        return c / (1.0 + coeff * c) if coeff * c < inf else 1.0 / coeff

    def _crossing(self, k: int, n: int) -> float:
        """h = 0 with its positive denominators cleared, (c - 2x)(n - (k-1)x) =
        2(k-1)x**2, reads c n = x (2n + (k-1) c): x0 = n/(k - 1 + 2n/c)."""
        return n / (k - 1 + 2.0 * n / self.c)


EfficiencyModel = PacketSuccess | InfoTheoretic


def solve_beta_star(model: EfficiencyModel) -> float:
    """SINR where a player stops gaining from more power: x f'(x) = f(x)."""
    return model._root(0.0)


def solve_gamma_tilde(model: EfficiencyModel, k: int, n: int) -> float:
    """Cooperative operating SINR: root of x (1 - (k-1)x/n) f'(x) = f(x).

    For k = 1 there is no interference term and this is solve_beta_star.
    A UniquenessRiskWarning is emitted (and the root still returned) when
    the family fails its ``single_crossing`` argument.
    """
    if k <= 1:
        return solve_beta_star(model)
    if not model.single_crossing:
        warnings.warn(
            "single-crossing condition failed; operating point may not be unique",
            UniquenessRiskWarning,
            stacklevel=2,
        )
    return model._root((k - 1) / n)


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
    return model._root(leader_coefficient(k, n, beta_star))


def check_op_condition(model: EfficiencyModel, k: int,
                       n: int) -> tuple[bool, float | None]:
    """(ok, x0): the family's ``single_crossing`` and, when ok, its ``_crossing``.

    Vacuously (True, None) for k < 2."""
    if k < 2:
        return True, None
    return (True, model._crossing(k, n)) if model.single_crossing else (False, None)


@_sinr_formula(positive=True)
def equal_action_utility(model: EfficiencyModel, x, k: int, n: int):
    """Per-player utility scale at an equal-action profile with common SINR x.

    When every player transmits the same received action, a player's utility
    is rate * gain2 * n / sigma2 times this factor:
    (f(x)/x) * (1 - (k-1)x/n).  Maximised exactly at the cooperative SINR.
    """
    return model.value(x) / x * (1.0 - (k - 1) * x / n)


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


def _require_one_shot(k: int, n: int, beta_star: float) -> None:
    if k >= 2 and (k - 1) * beta_star >= n:
        raise NoNashEquilibriumError(
            "one-shot equilibrium requires 2 <= K < N/beta_star + 1 "
            f"(K={k}, N={n}, beta_star={beta_star})"
        )


def solve_all(model: EfficiencyModel, k: int, n: int) -> CharacteristicSinrs:
    """Solve the three characteristic SINRs for one game."""
    bs = solve_beta_star(model)
    if bs <= 0.0:
        raise NoNashEquilibriumError(
            "efficiency model has no positive selfish optimum (marginal efficiency "
            "never exceeds average efficiency); PacketSuccess needs m >= 2"
        )
    gamma_star = solve_gamma_star(model, k, n, bs)
    gamma_tilde = solve_gamma_tilde(model, k, n) if k >= 2 else bs
    # a c past about 2**53 n/(k-1) rounds gamma_tilde onto n/(k-1), far past the one-shot load
    if k >= 2 and not gamma_tilde < n / (k - 1):
        _require_one_shot(k, n, bs)
    return CharacteristicSinrs(beta_star=bs, gamma_star=gamma_star, gamma_tilde=gamma_tilde,
                               k=k, n=n)
