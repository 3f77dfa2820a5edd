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
c/(1 + A*c), PacketSuccess to the float plain bisection returns on the bracket
grown from 1, for the ratio form x*(1 - A*x)*f'(x)/f(x) - 1, finite where f
underflows (tiny SINR, large m).  Newton's method in ``math`` floats locates
that crossing, and ``roots.bisect_near`` derives the bracket from it and
replays the bisection, evaluating the ratio form only near the root; beta_star
(A = 0) is kept per m.

Every function of the SINR but PacketSuccess's root function (floats x > 0
only) goes through one decorator, ``_sinr_formula``, which rejects SINRs outside
the domain (NaN included) and evaluates a float as a float, anything else as an
array.  A float returns the bits of a 0-d array; ``value`` and
``equal_action_utility`` can differ by 1 ulp from the 1-d array kernel at m >= 3
(numpy's vector power loop against scalar pow).

The cooperative root is unique when h(x) = f''/f' - 2(k-1)/(n-(k-1)x)
changes sign exactly once, from + to -, on (0, n/(k-1)); the subtracted term
is positive and increasing there, and h -> -inf at the right end.  Each family
settles this for all k >= 2 and n by a sign argument in its ``single_crossing``
flag; no solve needs where h crosses.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from math import expm1, inf, log, log1p, nan

import numpy as np

from .errors import NoNashEquilibriumError
from .roots import bisect, bisect_near, expand_bracket


class UniquenessRiskWarning(UserWarning):
    """The single-crossing check failed; the returned root may not be unique."""


def _sinr_formula(positive: bool):
    """Decorator for ``formula(obj, x, *args, **kwargs)`` on an SINR or SINR array.

    The domain is x > 0 when `positive` is set and x >= 0 otherwise.  A float
    (numpy float64 included) is checked and evaluated as itself; formulas use
    numpy ufuncs (``np.exp``, ``np.power``) and ``x * x`` so that it gets the
    bits of a 0-d array.  Where a float divides by zero (x = 0 or x * x
    underflowing), and for any other input, the formula runs on a float array.
    A list of numbers (the one-profile SINRs of ``static_game``) is checked in
    Python, NaN failing, and becomes that array in one ``np.array`` call; a list
    Python cannot compare with 0.0 (nested, or of strings) takes the array path.
    """
    in_domain = operator.gt if positive else operator.ge
    message = "SINR must be " + ("strictly positive here" if positive else "nonnegative")

    def decorate(formula):
        @functools.wraps(formula)
        def evaluate(obj, x, *args, **kwargs):
            if isinstance(x, float):
                if not in_domain(x, 0.0):
                    raise ValueError(message)
                try:
                    return float(formula(obj, x, *args, **kwargs))
                except ZeroDivisionError:
                    pass
            elif type(x) is list:
                try:
                    inside = all(map(in_domain, x, repeat(0.0)))
                except (TypeError, ValueError):  # not comparable item by item
                    pass
                else:
                    if not inside:
                        raise ValueError(message)
                    return formula(obj, np.array(x, dtype=float), *args, **kwargs)
            arr = np.asarray(x, dtype=float)
            if not in_domain(arr, 0.0).all():
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
        try:  # the root solve computes with m as a float
            finite = abs(float(self.m)) < inf  # False for NaN
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError("packet length m must round to a finite float (below about 1.8e308)")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("packet length m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))

    @_sinr_formula(positive=False)
    def value(self, x):
        return (1.0 - np.exp(-x)) ** self.m

    @_sinr_formula(positive=True)
    def deriv(self, x):
        """f'(x)."""
        e = np.exp(-x)
        return self.m * e * (1.0 - e) ** (self.m - 1)

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
        return _packet_beta_star(self.m) if coeff == 0.0 else _packet_root(self.m, coeff)


BETA_STAR_MEMO = 256  # packet lengths whose beta_star _packet_beta_star keeps


@functools.lru_cache(maxsize=BETA_STAR_MEMO)
def _packet_beta_star(m: int) -> float:
    """PacketSuccess(m)'s beta_star, kept per m: callers build a fresh model for each solve."""
    return _packet_root(m, 0.0)


def _packet_root(m: int, coeff: float) -> float:
    """``bisect(g, *expand_bracket(g))`` for PacketSuccess(m)'s g, by ``bisect_near`` from
    ``_newton``'s estimate, or by those searches where the estimate cannot stand in."""

    def g(x: float) -> float:  # f'/f in floats; e = 1 (x < 2**-54) divides by zero: inf
        e = float(np.exp(-x))
        return x * (1.0 - coeff * x) * (m * e / (1.0 - e) if e < 1.0 else inf) - 1.0

    x = _newton(m, coeff)
    # Below 1/16 one step of the rounded e**-x spans more than GUARD_ULPS floats of x,
    # and where x (1 - coeff x) rises (2 coeff x < 1; m = 2 at small x) g rises along
    # the step: its signs can flicker across it.  Plain bisection decides there.
    root = None if x < 0.0625 and 2.0 * coeff * x < 1.0 else bisect_near(g, x)
    return bisect(g, *expand_bracket(g)) if root is None else root


NEWTON_STEPS = 50  # _newton gives up (NaN) after this many steps


def _newton(m: int, coeff: float) -> float:
    """The root of PacketSuccess(m)'s g to about an ulp, in floats; NaN where this fails.

    g has the sign of H(x) = x (1 - coeff x) - (e**x - 1)/m, which is concave
    for coeff >= 0, 0 at 0 and rising there, so it falls through its positive
    root.  Newton's method from a start where H < 0 falls onto that root
    without passing it.  Such a start: 1/coeff, and log m + log(1 + log m) + 1
    for every m >= 2.  ``math``'s expm1 stands in for numpy's exp, and past
    e**x ~ 1e308 (m above about 1e305) this gives up.
    """
    if not 0.0 <= coeff < inf:
        return nan
    log_m = log(m)
    x = log_m + log1p(log_m) + 1.0
    if coeff * x > 1.0:
        x = 1.0 / coeff
    try:
        for _ in range(NEWTON_STEPS):
            grown = expm1(x) / m
            step = (x * (1.0 - coeff * x) - grown) / (1.0 - 2.0 * coeff * x - grown - 1.0 / m)
            x -= step
            if abs(step) <= 1e-9 * x:
                return x
    except OverflowError:  # expm1 past x = 709.78
        pass
    return nan


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
        if type(x) is float:  # not np.float64(-0.0), which divides to -inf; 0.0 raises instead
            return np.exp(-self.c / x)
        with np.errstate(divide="ignore"):  # x = 0 maps to exp(-inf) = 0
            return np.exp(-self.c / (x + 0.0))  # + 0.0 makes -0.0 into 0.0

    @_sinr_formula(positive=True)
    def deriv(self, x):
        """f'(x)."""
        c = self.c
        return c / (x * x) * np.exp(-c / x)

    # f''/f' = (c - 2x)/x**2, so h = 0 with its positive denominators cleared,
    # (c - 2x)(n - (k-1)x) = 2(k-1)x**2, is linear in x: h, from +inf at 0 to -inf,
    # crosses once
    single_crossing = True

    def _root(self, coeff: float) -> float:
        """c (1 - coeff x) = x: c/(1 + coeff c), or 1/coeff where coeff c overflows."""
        c = self.c
        return c / (1.0 + coeff * c) if coeff * c < inf else 1.0 / coeff


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
    k, n = _sizes(k, n)
    if k == 1:
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
    k, n = _sizes(k, n)
    if k == 1:
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
    coeff = leader_coefficient(k, n, beta_star)  # checks the sizes
    return beta_star if k == 1 else model._root(coeff)


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


def _sizes(k, n) -> tuple[int, int]:
    """k and n as ints (2.0 is 2); a ValueError naming the first that is not a positive integer."""
    for value, what in ((k, "k"), (n, "spreading factor n")):
        if not (1 <= value < inf and int(value) == value):
            raise ValueError(f"{what} must be a positive integer")
    return int(k), int(n)


def _require_one_shot(k: int, n: int, beta_star: float) -> None:
    if k >= 2 and (k - 1) * beta_star >= n:
        raise NoNashEquilibriumError(
            "one-shot equilibrium requires 2 <= K < N/beta_star + 1 "
            f"(K={k}, N={n}, beta_star={beta_star})"
        )


def solve_all(model: EfficiencyModel, k: int, n: int) -> CharacteristicSinrs:
    """Solve the three characteristic SINRs for one game of positive integer sizes."""
    k, n = _sizes(k, n)
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
