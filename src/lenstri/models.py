"""Edge and single-spin Boltzmann weights of the three model families:
elliptic (lens elliptic gamma), the r->infinity q-product limit, and the
Euler-gamma scaling limit.

Normalisation factors kappa(alpha) are exponentials of bilateral sums
whose summands are rewritten with the dominant nome powers factored out,
so no intermediate overflows for large |n|.  The terms fall geometrically,
by a ratio known in closed form, so the sum is one array cut by a
geometric tail bound; kappa values are cached per (alpha, params), and
the parts of their terms that depend on the nomes alone per params.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import (
    MAX_SUM_TERMS,
    TERM_EPSILON,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
)
from .special_functions import (
    _term_count,
    bracket_pm,
    lens_elliptic_gamma,
    mod_bracket,
    product_arguments,
    python_scalar,
    qpochhammer_inf,
    stack_rows,
    theta4,
)


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


def epsilon_factor(m, r: int):
    """Single-spin multiplicity: 1/2 when 2m == 0 (mod r), else 1, of an
    integer m or of each element of an integer array."""
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    m = np.asarray(m)
    if ((m < 0) | (m > r // 2)).any():
        raise InvalidParameterError(
            f"m must satisfy 0 <= m <= floor(r/2), got m={m}, r={r}")
    return python_scalar(np.where(2 * m % r == 0, 0.5, 1.0))


def _kappa_log(alpha: float, params: NomeParameters, family: ModelFamily,
               bound: float) -> complex:
    """sum_{n!=0} e^{4 a n} w^{2|n|} factor(|n|) / n, w = pq, with the
    factor of the family's kappa series (``_kappa_series``) and
    |factor(k)| <= bound for every k >= 1.

    The +-n terms for n = 1..N are one array.  Each is at most bound
    rho^n / n in magnitude, rho = |w|^2 e^{4|a|}, so the terms past N add
    at most 2 bound rho^{N+1} / (1 - rho); N is the least count that
    brings this within the sum's tolerance, 100 TERM_EPSILON (absolute:
    kappa is exp of the sum), counted by special_functions._term_count.
    The series is cached with the least power of 2 (at least 16) terms
    that covers N, so that one serves many alpha.
    """
    rho = abs(params.p * params.q) ** 2 * math.exp(4 * abs(alpha))
    if rho >= 1.0:
        raise NonConvergenceError(
            f"kappa series diverges: term ratio {rho:.3f} >= 1")
    n = _term_count(2.0 * bound * rho / (1.0 - rho), rho,
                    TERM_EPSILON * 1e2, MAX_SUM_TERMS, what="kappa series")
    size = 1 << max(4, (n - 1).bit_length())
    k, k_logw, factor = (a[:n] for a in _kappa_series(params, family, size))
    # exponents combined before exponentiating: e^{4 a n} alone can
    # overflow for alpha near eta even though the term is tiny
    terms = (np.exp(4 * alpha * k + k_logw)
             - np.exp(-4 * alpha * k + k_logw)) * factor / k
    return terms.sum().item()


@lru_cache(maxsize=32)
def _kappa_series(params: NomeParameters, family: ModelFamily, size: int):
    """k, 2 k log w and the factor(k) of the kappa series of the elliptic
    or the q-limit family for k = 1..size, w = pq, read-only: they depend
    on the nomes only, so a kappa miss is two exps and a sum."""
    r = params.r
    p, q = params.p, params.q
    w = p * q
    k = np.arange(1, size + 1)
    if family is ModelFamily.ELLIPTIC:
        factor = ((1 - w ** (2 * r * k))
                  / ((1 - w ** (4 * k)) * (1 - p ** (2 * r * k))
                     * (1 - q ** (2 * r * k))))
    else:
        factor = 1 / (1 - w ** (4 * k))
    out = k, 2 * k * cmath.log(w), factor
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def kappa_elliptic(alpha: float, params: NomeParameters) -> complex:
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
    bound = ((1 + abs(w) ** (2 * r))
             / ((1 - abs(w) ** 4) * (1 - abs(p) ** (2 * r))
                * (1 - abs(q) ** (2 * r))))
    return cmath.exp(_kappa_log(alpha, params, ModelFamily.ELLIPTIC, bound))


@lru_cache(maxsize=4096)
def kappa_qlimit(alpha: float, params: NomeParameters) -> complex:
    """Normalisation of the q-limit edge weight:
    exp{-sum_{n!=0} e^{4 a n} / (n ((pq)^{2|n|} - (pq)^{-2|n|}))},
    the r -> infinity limit of the elliptic one:
    e^{4 a n} w^{2|n|} / (n (1-w^{4|n|})) summed, w = pq.
    """
    if alpha == 0.0:
        return 1.0 + 0.0j
    w = params.p * params.q
    return cmath.exp(_kappa_log(alpha, params, ModelFamily.Q_LIMIT,
                                1 / (1 - abs(w) ** 4)))


def _per_alpha(kappa, alpha, params):
    """kappa(alpha) of a scalar alpha, or of each element of an array."""
    if np.ndim(alpha) == 0:
        return kappa(alpha, params)
    values = [kappa(float(a), params) for a in np.ravel(alpha)]
    return np.reshape(values, np.shape(alpha))


def _edge_rows(alpha, si: Spin, sj: Spin) -> list:
    """(z, m) of the four gamma factors of the edge weight W_alpha(si, sj):
    G(dx + i alpha, dm) G(sx + i alpha, sm) / (G(dx - i alpha, dm)
    G(sx - i alpha, sm)), with G the lens elliptic gamma function or its
    q-limit Q, dx, dm the differences and sx, sm the sums of the spins."""
    dm, sm = si.m - sj.m, si.m + sj.m
    dx, sx = si.x - sj.x, si.x + sj.x
    return [(dx + 1j * alpha, dm), (sx + 1j * alpha, sm),
            (dx - 1j * alpha, dm), (sx - 1j * alpha, sm)]


def _edge_weight(family: ModelFamily, alpha, si: Spin, sj: Spin, v,
                 params: NomeParameters):
    """Edge weight W_alpha(si, sj) of the elliptic or the q-limit family,
    from the values v of its four _edge_rows."""
    dm, sm = si.m - sj.m, si.m + sj.m
    if family is ModelFamily.ELLIPTIC:
        r = params.r
        pref = np.exp(-2 * alpha * (bracket_pm(dm, r) + bracket_pm(sm, r)) / r)
        kappa = kappa_elliptic
    else:
        pref = np.exp(-2 * alpha * (np.abs(dm) + np.abs(sm)))
        kappa = kappa_qlimit
    return (pref / _per_alpha(kappa, alpha, params)
            * (v[0] * v[1]) / (v[2] * v[3]))


def weight_elliptic(alpha, si: Spin, sj: Spin,
                    params: NomeParameters) -> complex:
    """Elliptic edge Boltzmann weight W_alpha(si, sj).  alpha and the
    spins' angles and integer parts may be arrays that broadcast against
    each other."""
    if np.ndim(alpha) == 0 and alpha == 0.0:
        return 1.0 + 0.0j
    z, m = stack_rows(*_edge_rows(alpha, si, sj))
    v = lens_elliptic_gamma(z, m, params)
    return python_scalar(_edge_weight(ModelFamily.ELLIPTIC, alpha, si, sj, v,
                                      params))


def _single_spin_theta(si: Spin, eps, params: NomeParameters):
    """eps (1/pi) e^{2 eta [[2m]]_pm / r} theta4(2x + (r/2 - [[2m]]) pi sigma,
    p^r) theta4(2x - (r/2 - [[2m]]) pi tau, q^r), the theta form of the
    elliptic single-spin weight at multiplicity eps; the brackets are mod
    r, so any integer m is accepted."""
    r = params.r
    pre = eps / math.pi * np.exp(2 * params.eta * bracket_pm(2 * si.m, r) / r)
    shift = (r / 2 - mod_bracket(2 * si.m, r))
    return (pre
            * theta4(2 * si.x + shift * math.pi * params.sigma, params.p ** r)
            * theta4(2 * si.x - shift * math.pi * params.tau, params.q ** r))


def single_spin_elliptic(si: Spin, params: NomeParameters,
                         via_theta4: bool = False) -> complex:
    """Elliptic single-spin weight S(si); the spin's angle and integer part
    may be arrays that broadcast against each other.

    Two equivalent product forms exist: the default uses the pair of lens
    elliptic gamma factors, via_theta4=True uses the Jacobi theta form.
    """
    r = params.r
    p, q = params.p, params.q
    eps = epsilon_factor(si.m, r)
    if via_theta4:
        return python_scalar(_single_spin_theta(si, eps, params))
    pre = eps / math.pi * np.exp(2 * params.eta * bracket_pm(2 * si.m, r) / r)
    z, m = stack_rows((-2 * si.x - 1j * params.eta, -2 * si.m),
                      (2 * si.x - 1j * params.eta, 2 * si.m))
    v = lens_elliptic_gamma(z, m, params)
    return python_scalar(pre
                         * qpochhammer_inf(p ** (2 * r), p ** (2 * r))
                         * qpochhammer_inf(q ** (2 * r), q ** (2 * r))
                         * v[0] * v[1])


def centre_weight(s0: Spin, params: NomeParameters) -> np.ndarray:
    """S~(s0) = S(s0) / (2 eps(m0)), the elliptic single-spin weight at
    multiplicity 1/2 in its theta form, at every integer m0 (mod r), the
    weight of the centre spin of the star-triangle sum over m0 in Z_r.

    S~ is even under (x0, m0) -> (pi - x0, r - m0), as are the edge
    weights: a sector with 2 m0 = 0 (mod r) is its own mirror, and 1/2 is
    its multiplicity eps; the other sectors pair up m0 <-> r - m0, each
    pair worth the one sector m0 <= r/2 at eps = 1.  s0's angle and integer
    part are arrays that broadcast against each other.  The values do not
    depend on the instance, so they are cached per (params, angles,
    integer parts), in a small bounded cache, and read-only.
    """
    x, m = np.asarray(s0.x, float), np.asarray(s0.m, int)
    return _centre_weight(params, x.tobytes(), x.shape, m.tobytes(), m.shape)


@lru_cache(maxsize=32)
def _centre_weight(params: NomeParameters, x: bytes, x_shape: tuple,
                   m: bytes, m_shape: tuple) -> np.ndarray:
    """centre_weight at the angles and integer parts held in x and m."""
    s0 = Spin(np.frombuffer(x).reshape(x_shape),
              np.frombuffer(m, int).reshape(m_shape))
    value = _single_spin_theta(s0, 0.5, params)
    value.flags.writeable = False
    return value


def q_function(z: complex, n: int, params: NomeParameters) -> complex:
    """r->infinity limit of the lens elliptic gamma function:

    Q(z, n) = prod_j (1 - e^{2iz} q^{2n} (pq)^{2j+1}) / (1 - e^{-2iz} p^{2n} (pq)^{2j+1})
    for n >= 0, and with (p^{-2n}, q^{-2n}) in place of (q^{2n}, p^{2n}) for n < 0.
    n may be an array that broadcasts against z.
    """
    p, q = params.p, params.q
    pq = p * q
    nonneg = np.greater_equal(n, 0)
    pk, qk = p ** (2 * np.abs(n)), q ** (2 * np.abs(n))
    with product_arguments():
        e2 = np.exp(2j * z)
        c, = stack_rows((e2 * np.where(nonneg, qk, pk) * pq,),
                        (np.where(nonneg, pk, qk) * pq / e2,))
    num, den = qpochhammer_inf(c, pq * pq)
    if np.any(abs(den) < 1e-13):
        raise PoleHitError("Q(z, n) evaluated at a pole")
    return python_scalar(num / den)


def weight_qlimit(alpha, si: Spin, sj: Spin,
                  params: NomeParameters) -> complex:
    """q-limit edge Boltzmann weight W_alpha(si, sj).  alpha and the
    spins' angles and integer parts may be arrays that broadcast against
    each other."""
    if np.ndim(alpha) == 0 and alpha == 0.0:
        return 1.0 + 0.0j
    z, n = stack_rows(*_edge_rows(alpha, si, sj))
    v = q_function(z, n, params)
    return python_scalar(_edge_weight(ModelFamily.Q_LIMIT, alpha, si, sj, v,
                                      params))


def _single_spin_qlimit_rows(sj: Spin, params: NomeParameters) -> list:
    """(z, n) of the two Q factors of the q-limit single-spin weight."""
    eta = params.eta
    return [(2 * sj.x - 1j * eta, 2 * sj.m), (-2 * sj.x - 1j * eta, -2 * sj.m)]


def _single_spin_qlimit(sj: Spin, v, params: NomeParameters):
    """q-limit single-spin weight from the values v of its two rows."""
    return (np.exp(4 * params.eta * np.abs(sj.m)) / (2 * math.pi)
            * v[0] * v[1])


def single_spin_qlimit(sj: Spin, params: NomeParameters) -> complex:
    """q-limit single-spin weight:
    (1/2pi) e^{4 eta |m|} Q(2x - i eta, 2m) Q(-2x - i eta, -2m).
    The spin's angle and integer part may be arrays that broadcast against
    each other.
    """
    z, n = stack_rows(*_single_spin_qlimit_rows(sj, params))
    v = q_function(z, n, params)
    return python_scalar(_single_spin_qlimit(sj, v, params))


def star_integrand(family: ModelFamily, s0: Spin, spins, alphas,
                   params: NomeParameters):
    """Integrand S(s0) prod_i W_{alpha_i}(s_i, s0) of the star-triangle
    relation of the q-limit family, or S~(s0) prod_i W_{alpha_i}(s_i, s0)
    of the elliptic one, at a centre spin s0 whose angle and integer part
    may be arrays that broadcast against each other.

    The twelve gamma factors of the three edge weights are stacked into one
    lens_elliptic_gamma or q_function call.  The q-limit single-spin weight
    joins that call.  The elliptic one is centre_weight, S~(s0) = S(s0) /
    (2 eps(m0)), for the sum over m0 in Z_r: its theta product form, which
    tolerates the genuine zeros of S on the contour where the gamma form's
    pole guard would reject them, cached per node grid.
    """
    rows = [row for a, s in zip(alphas, spins) for row in _edge_rows(a, s, s0)]
    if family is ModelFamily.ELLIPTIC:
        z, m = stack_rows(*rows)
        v = lens_elliptic_gamma(z, m, params)
        value = centre_weight(s0, params)
    elif family is ModelFamily.Q_LIMIT:
        z, n = stack_rows(*_single_spin_qlimit_rows(s0, params), *rows)
        v = q_function(z, n, params)
        value, v = _single_spin_qlimit(s0, v[:2], params), v[2:]
    else:
        raise InvalidParameterError(f"no stacked integrand for {family}")
    for i, (a, s) in enumerate(zip(alphas, spins)):
        value = value * _edge_weight(family, a, s, s0, v[4 * i:4 * i + 4],
                                     params)
    return python_scalar(value)


def _gamma_pair(loggamma, a: complex, b: complex) -> complex:
    """log Gamma(a+b) + log Gamma(a-b)."""
    return loggamma(a + b) + loggamma(a - b)


def weight_gamma(alpha, si: Spin, sj: Spin) -> float:
    """Gamma-limit edge Boltzmann weight (eta = 1), via log-gamma:

    W_a = G((1+a)/2)/G((1-a)/2)
          * G((1-a-(mi+mj) +- i(xi+xj))/2) G((1-a-(mi-mj) +- i(xi-xj))/2)
          / (G((1+a-(mi+mj) +- i(xi+xj))/2) G((1+a-(mi-mj) +- i(xi-xj))/2)).

    alpha and the spins' angles and integer parts may be arrays that
    broadcast against each other.
    """
    if np.ndim(alpha) == 0 and alpha == 0.0:
        return 1.0
    sm, dm = si.m + sj.m, si.m - sj.m
    sx, dx = si.x + sj.x, si.x - sj.x
    for base, off in (((1 - alpha - sm) / 2, sx), ((1 - alpha - dm) / 2, dx),
                      ((1 + alpha - sm) / 2, sx), ((1 + alpha - dm) / 2, dx)):
        # Gamma poles sit at non-positive integers on the real axis
        near = np.round(base)
        if np.any((np.abs(base - near) < 1e-13) & (near <= 0)
                  & (np.abs(off) < 1e-13)):
            raise PoleHitError(
                f"gamma-limit weight hits a gamma pole at argument {base}")
    # scipy serves only this limit, so only its callers pay for the import
    from scipy.special import loggamma
    ln = (loggamma((1 + alpha) / 2) - loggamma((1 - alpha) / 2)
          + _gamma_pair(loggamma, (1 - alpha - sm) / 2, 1j * sx / 2)
          + _gamma_pair(loggamma, (1 - alpha - dm) / 2, 1j * dx / 2)
          - _gamma_pair(loggamma, (1 + alpha - sm) / 2, 1j * sx / 2)
          - _gamma_pair(loggamma, (1 + alpha - dm) / 2, 1j * dx / 2))
    return python_scalar(np.exp(ln).real)


def single_spin_gamma(sj: Spin) -> float:
    """Gamma-limit single-spin weight (x^2 + m^2) / (4 pi)."""
    return (sj.x ** 2 + sj.m ** 2) / (4 * math.pi)


def edge_weight(family: ModelFamily, alpha, si: Spin, sj: Spin,
                params: NomeParameters | None = None):
    """Uncrossed weight W_alpha(si, sj) for the given family; alpha and the
    spins may be arrays that broadcast against each other."""
    if family is ModelFamily.ELLIPTIC:
        return weight_elliptic(alpha, si, sj, params)
    if family is ModelFamily.Q_LIMIT:
        return weight_qlimit(alpha, si, sj, params)
    return weight_gamma(alpha, si, sj)
