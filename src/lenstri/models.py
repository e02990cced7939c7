"""Edge and single-spin Boltzmann weights of the three model families:
elliptic (lens elliptic gamma), the r->infinity q-product limit, and the
Euler-gamma scaling limit.

Normalisation factors kappa(alpha) are bilateral sums whose summands are
rewritten with the dominant nome powers factored out, so no intermediate
overflows for large |n|; kappa values are cached per (alpha, params).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import loggamma

from .params import (
    DEFAULT_POLICY,
    InvalidParameterError,
    NomeParameters,
    PoleHitError,
    TruncationPolicy,
)
from .special_functions import (
    bracket_pm,
    lens_elliptic_gamma,
    math_for,
    mod_bracket,
    qpochhammer_inf,
    theta4,
)
from . import numerics


class ModelFamily(enum.Enum):
    ELLIPTIC = "elliptic"
    Q_LIMIT = "qlimit"
    GAMMA_LIMIT = "gamma"


@dataclass(frozen=True)
class Spin:
    """A two-component spin (x, m): continuous angle plus integer part.

    x may be an ndarray of angles sharing one m; the weights then return
    one value per angle."""
    x: float
    m: int


def check_spin_domain(s: Spin, family: ModelFamily, r: int = 1) -> None:
    """Validate a spin against the domain of the given model family."""
    if family is ModelFamily.ELLIPTIC:
        if not (0 <= s.x < math.pi) or not (0 <= s.m <= r // 2):
            raise InvalidParameterError(
                f"elliptic spin needs 0 <= x < pi and 0 <= m <= floor(r/2), got {s}")
    elif family is ModelFamily.Q_LIMIT:
        if not (0 <= s.x < math.pi):
            raise InvalidParameterError(
                f"q-limit spin needs 0 <= x < pi, got {s}")
    # gamma limit: unrestricted


def epsilon_factor(m: int, r: int) -> Fraction:
    """Single-spin multiplicity: 1/2 when 2m == 0 (mod r), else 1."""
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    if not (0 <= m <= r // 2):
        raise InvalidParameterError(
            f"m must satisfy 0 <= m <= floor(r/2), got m={m}, r={r}")
    return Fraction(1, 2) if (2 * m) % r == 0 else Fraction(1)


@lru_cache(maxsize=4096)
def kappa_elliptic(alpha: float, params: NomeParameters,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Normalisation of the elliptic edge weight:

    exp sum_{n!=0} e^{4 a n} ((pq)^{rn}-(pq)^{-rn})
        / [n ((pq)^{2n}-(pq)^{-2n}) (p^{rn}-p^{-rn}) (q^{rn}-q^{-rn})].

    The summand is rewritten with the growing nome powers cancelled:
    e^{4 a n} w^{2|n|} (1-w^{2r|n|}) /
        [n (1-w^{4|n|}) (1-p^{2r|n|}) (1-q^{2r|n|})],  w = pq.
    """
    if alpha == 0.0:
        return 1.0 + 0.0j
    r = params.r
    p, q = params.p, params.q
    w = p * q
    logw = cmath.log(w)

    def term(n: int) -> complex:
        if n == 0:
            return 0.0
        k = abs(n)
        # exponent combined before exponentiating: e^{4 a n} alone can
        # overflow for alpha near eta even though the term is tiny
        return (cmath.exp(4 * alpha * n + 2 * k * logw) * (1 - w ** (2 * r * k))
                / (n * (1 - w ** (4 * k)) * (1 - p ** (2 * r * k))
                   * (1 - q ** (2 * r * k))))

    res = numerics.bilateral_sum(term, policy.term_epsilon * 1e2,
                                 max_terms=policy.max_sum_terms)
    return cmath.exp(res.value)


@lru_cache(maxsize=4096)
def kappa_qlimit(alpha: float, params: NomeParameters,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Normalisation of the q-limit edge weight:
    exp{-sum_{n!=0} e^{4 a n} / (n ((pq)^{2n} - (pq)^{-2n}))}.
    """
    if alpha == 0.0:
        return 1.0 + 0.0j
    w = params.p * params.q
    logw = cmath.log(w)

    def term(n: int) -> complex:
        if n == 0:
            return 0.0
        k = abs(n)
        return cmath.exp(4 * alpha * n + 2 * k * logw) / (n * (1 - w ** (4 * k)))

    res = numerics.bilateral_sum(term, policy.term_epsilon * 1e2,
                                 max_terms=policy.max_sum_terms)
    return cmath.exp(res.value)


def weight_elliptic(alpha: float, si: Spin, sj: Spin, params: NomeParameters,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Elliptic edge Boltzmann weight W_alpha(si, sj)."""
    if alpha == 0.0:
        return 1.0 + 0.0j
    r = params.r
    dm, sm = si.m - sj.m, si.m + sj.m
    dx, sx = si.x - sj.x, si.x + sj.x
    pref = cmath.exp(-2 * alpha * (bracket_pm(dm, r) + bracket_pm(sm, r)) / r)
    num = (lens_elliptic_gamma(dx + 1j * alpha, dm, params, policy)
           * lens_elliptic_gamma(sx + 1j * alpha, sm, params, policy))
    den = (lens_elliptic_gamma(dx - 1j * alpha, dm, params, policy)
           * lens_elliptic_gamma(sx - 1j * alpha, sm, params, policy))
    return pref / kappa_elliptic(alpha, params, policy) * num / den


def single_spin_elliptic(si: Spin, params: NomeParameters,
                         policy: TruncationPolicy = DEFAULT_POLICY,
                         via_theta4: bool = False) -> complex:
    """Elliptic single-spin weight S(si).

    Two equivalent product forms exist: the default uses the pair of lens
    elliptic gamma factors, via_theta4=True uses the Jacobi theta form.
    """
    r = params.r
    p, q = params.p, params.q
    eps = float(epsilon_factor(si.m, r))
    pre = eps / math.pi * cmath.exp(2 * params.eta * bracket_pm(2 * si.m, r) / r)
    if via_theta4:
        shift = (r / 2 - mod_bracket(2 * si.m, r))
        return (pre
                * theta4(2 * si.x + shift * math.pi * params.sigma, p ** r, policy)
                * theta4(2 * si.x - shift * math.pi * params.tau, q ** r, policy))
    return (pre
            * qpochhammer_inf(p ** (2 * r), p ** (2 * r), policy)
            * qpochhammer_inf(q ** (2 * r), q ** (2 * r), policy)
            * lens_elliptic_gamma(-2 * si.x - 1j * params.eta, -2 * si.m, params, policy)
            * lens_elliptic_gamma(2 * si.x - 1j * params.eta, 2 * si.m, params, policy))


def q_function(z: complex, n: int, params: NomeParameters,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """r->infinity limit of the lens elliptic gamma function:

    Q(z, n) = prod_j (1 - e^{2iz} q^{2n} (pq)^{2j+1}) / (1 - e^{-2iz} p^{2n} (pq)^{2j+1})
    for n >= 0, and with (p^{-2n}, q^{-2n}) in place of (q^{2n}, p^{2n}) for n < 0.
    """
    p, q = params.p, params.q
    pq = p * q
    e2 = math_for(z).exp(2j * z)
    if n >= 0:
        cn, cd = e2 * q ** (2 * n) * pq, p ** (2 * n) * pq / e2
    else:
        cn, cd = e2 * p ** (-2 * n) * pq, q ** (-2 * n) * pq / e2
    num = qpochhammer_inf(cn, pq * pq, policy)
    den = qpochhammer_inf(cd, pq * pq, policy)
    if np.any(abs(den) < 1e-13):
        raise PoleHitError("Q(z, n) evaluated at a pole")
    return num / den


def weight_qlimit(alpha: float, si: Spin, sj: Spin, params: NomeParameters,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """q-limit edge Boltzmann weight W_alpha(si, sj)."""
    if alpha == 0.0:
        return 1.0 + 0.0j
    dm, sm = si.m - sj.m, si.m + sj.m
    dx, sx = si.x - sj.x, si.x + sj.x
    pref = cmath.exp(-2 * alpha * (abs(dm) + abs(sm)))
    num = (q_function(dx + 1j * alpha, dm, params, policy)
           * q_function(sx + 1j * alpha, sm, params, policy))
    den = (q_function(dx - 1j * alpha, dm, params, policy)
           * q_function(sx - 1j * alpha, sm, params, policy))
    return pref / kappa_qlimit(alpha, params, policy) * num / den


def single_spin_qlimit(sj: Spin, params: NomeParameters,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """q-limit single-spin weight:
    (1/2pi) e^{4 eta |m|} Q(2x - i eta, 2m) Q(-2x - i eta, -2m).
    """
    eta = params.eta
    return (cmath.exp(4 * eta * abs(sj.m)) / (2 * math.pi)
            * q_function(2 * sj.x - 1j * eta, 2 * sj.m, params, policy)
            * q_function(-2 * sj.x - 1j * eta, -2 * sj.m, params, policy))


def _gamma_pair(a: complex, b: complex) -> complex:
    """log Gamma(a+b) + log Gamma(a-b)."""
    return loggamma(a + b) + loggamma(a - b)


def weight_gamma(alpha: float, si: Spin, sj: Spin) -> float:
    """Gamma-limit edge Boltzmann weight (eta = 1), via log-gamma:

    W_a = G((1+a)/2)/G((1-a)/2)
          * G((1-a-(mi+mj) +- i(xi+xj))/2) G((1-a-(mi-mj) +- i(xi-xj))/2)
          / (G((1+a-(mi+mj) +- i(xi+xj))/2) G((1+a-(mi-mj) +- i(xi-xj))/2)).
    """
    if alpha == 0.0:
        return 1.0
    sm, dm = si.m + sj.m, si.m - sj.m
    sx, dx = si.x + sj.x, si.x - sj.x
    for base, off in (((1 - alpha - sm) / 2, sx), ((1 - alpha - dm) / 2, dx),
                      ((1 + alpha - sm) / 2, sx), ((1 + alpha - dm) / 2, dx)):
        # Gamma poles sit at non-positive integers on the real axis
        if (abs(base - round(base)) < 1e-13 and round(base) <= 0
                and np.any(abs(off) < 1e-13)):
            raise PoleHitError(
                f"gamma-limit weight hits a gamma pole at argument {base}")
    ln = (loggamma((1 + alpha) / 2) - loggamma((1 - alpha) / 2)
          + _gamma_pair((1 - alpha - sm) / 2, 1j * sx / 2)
          + _gamma_pair((1 - alpha - dm) / 2, 1j * dx / 2)
          - _gamma_pair((1 + alpha - sm) / 2, 1j * sx / 2)
          - _gamma_pair((1 + alpha - dm) / 2, 1j * dx / 2))
    return math_for(ln).exp(ln).real


def single_spin_gamma(sj: Spin) -> float:
    """Gamma-limit single-spin weight (x^2 + m^2) / (4 pi)."""
    return (sj.x ** 2 + sj.m ** 2) / (4 * math.pi)


def crossing_weight(family: ModelFamily, alpha: float, si: Spin, sj: Spin,
                    params: NomeParameters | None = None,
                    policy: TruncationPolicy = DEFAULT_POLICY):
    """Crossed weight W_{eta - alpha}(si, sj) for the given family."""
    if family is ModelFamily.ELLIPTIC:
        return weight_elliptic(params.eta.real - alpha, si, sj, params, policy)
    if family is ModelFamily.Q_LIMIT:
        return weight_qlimit(params.eta.real - alpha, si, sj, params, policy)
    return weight_gamma(1.0 - alpha, si, sj)


def edge_weight(family: ModelFamily, alpha: float, si: Spin, sj: Spin,
                params: NomeParameters | None = None,
                policy: TruncationPolicy = DEFAULT_POLICY):
    """Uncrossed weight W_alpha(si, sj) for the given family."""
    if family is ModelFamily.ELLIPTIC:
        return weight_elliptic(alpha, si, sj, params, policy)
    if family is ModelFamily.Q_LIMIT:
        return weight_qlimit(alpha, si, sj, params, policy)
    return weight_gamma(alpha, si, sj)
