"""Edge and single-spin Boltzmann weights of the three model families:
elliptic (lens elliptic gamma), the r->infinity q-product limit, and the
Euler-gamma scaling limit.

Normalisation factors kappa(alpha) are exponentials of bilateral sums
whose summands are rewritten with the dominant nome powers factored out,
so no intermediate overflows for large |n|.  The terms fall geometrically,
by a ratio known in closed form, so the sum is one array cut by a
geometric tail bound.  kappa of every alpha of an array is one evaluation
of that series; the parts of its terms that depend on the nomes alone are
cached per params, and the scalar ``kappa_elliptic`` and ``kappa_qlimit``
per (alpha, params).

A weight, or a star-triangle integrand, is one batch of gamma factors:
its rows are stacked on axis 0 (``_edge_rows``), three edges are one more
axis, and rows of different shapes, such as a right side's beside an
integrand's nodes, share one flat batch (``join_batches``).
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
    join_batches,
    lens_elliptic_gamma,
    lens_elliptic_gamma_factor,
    mod_bracket,
    product_arguments,
    python_scalar,
    qpochhammer_inf,
    split_batches,
    squared_modulus,
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


def _kappa_log(alpha, params: NomeParameters, family: ModelFamily):
    """sum_{n!=0} e^{4 a n} w^{2|n|} factor(|n|) / n at each element a of
    the array alpha, w = pq, with the factor of the family's kappa series
    (``_kappa_series``), |factor(k)| <= _kappa_bound for every k >= 1.

    The +-n terms for n = 1..N are one array row per element.  Each is at
    most bound rho^n / n in magnitude, rho = |w|^2 e^{4|a|}, so the terms
    past N add at most 2 bound rho^{N+1} / (1 - rho); N is the least count
    that brings this within the sum's tolerance, 100 TERM_EPSILON
    (absolute: kappa is exp of the sum), at the largest |a|, counted by
    special_functions._term_count.  The series is cached with the least
    power of 2 (at least 16) terms that covers N, so that one serves many
    alpha.
    """
    alpha = np.asarray(alpha, float)
    bound = _kappa_bound(params, family)
    top = float(np.abs(alpha).max(initial=0.0))
    rho = abs(params.p * params.q) ** 2 * math.exp(4 * top)
    if rho >= 1.0:
        raise NonConvergenceError(
            f"kappa series diverges: term ratio {rho:.3f} >= 1")
    n = _term_count(2.0 * bound * rho / (1.0 - rho), rho,
                    TERM_EPSILON * 1e2, MAX_SUM_TERMS, what="kappa series")
    size = 1 << max(4, (n - 1).bit_length())
    k, k_logw, factor = (a[:n] for a in _kappa_series(params, family, size))
    a4 = 4 * alpha[..., None]
    # exponents combined before exponentiating: e^{4 a n} alone can
    # overflow for alpha near eta even though the term is tiny
    terms = (np.exp(a4 * k + k_logw) - np.exp(-a4 * k + k_logw)) * factor / k
    return terms.sum(axis=-1)


def _kappa_bound(params: NomeParameters, family: ModelFamily) -> float:
    """A bound on |factor(k)|, k >= 1, of the family's kappa series."""
    w = abs(params.p * params.q)
    if family is ModelFamily.Q_LIMIT:
        return 1 / (1 - w ** 4)
    r = params.r
    return ((1 + w ** (2 * r))
            / ((1 - w ** 4) * (1 - abs(params.p) ** (2 * r))
               * (1 - abs(params.q) ** (2 * r))))


def kappa(family: ModelFamily, alpha, params: NomeParameters):
    """kappa(alpha) of the elliptic or the q-limit edge weight at a scalar
    alpha or at each element of an array of them, from one evaluation of
    the series (``_kappa_log``); kappa(0) = 1."""
    return python_scalar(np.exp(_kappa_log(alpha, params, family)))


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
    """Normalisation of the elliptic edge weight, ``kappa`` at a scalar
    alpha, cached:

    exp sum_{n!=0} e^{4 a n} ((pq)^{rn}-(pq)^{-rn})
        / [n ((pq)^{2n}-(pq)^{-2n}) (p^{rn}-p^{-rn}) (q^{rn}-q^{-rn})].

    The summand is rewritten with the growing nome powers cancelled:
    e^{4 a n} w^{2|n|} (1-w^{2r|n|}) /
        [n (1-w^{4|n|}) (1-p^{2r|n|}) (1-q^{2r|n|})],  w = pq.
    """
    return kappa(ModelFamily.ELLIPTIC, alpha, params)


@lru_cache(maxsize=4096)
def kappa_qlimit(alpha: float, params: NomeParameters) -> complex:
    """Normalisation of the q-limit edge weight, ``kappa`` at a scalar
    alpha, cached:
    exp{-sum_{n!=0} e^{4 a n} / (n ((pq)^{2|n|} - (pq)^{-2|n|}))},
    the r -> infinity limit of the elliptic one:
    e^{4 a n} w^{2|n|} / (n (1-w^{4|n|})) summed, w = pq.
    """
    return kappa(ModelFamily.Q_LIMIT, alpha, params)


def _conjugate_nomes(params: NomeParameters) -> bool:
    """tau = -conj(sigma) exactly, so that q = conj p and pq is real.

    There the elliptic and q-limit weights evaluate half their gamma
    factors, the rest being conjugates of these (``_elliptic_values``,
    ``_qlimit_values``); anywhere else, however near, all of them.  The
    conjugates pair up because the spins' angles and alpha are real, as
    in every weight's domain."""
    return params.tau == -params.sigma.conjugate()


def _edge_rows(alpha, si: Spin, sj: Spin):
    """(z, m) of the four gamma factors of the edge weight W_alpha(si, sj),
    on a new axis 0: G(dx + i alpha, dm) G(sx + i alpha, sm) /
    (G(dx - i alpha, dm) G(sx - i alpha, sm)), with G the lens elliptic
    gamma function or its q-limit Q, dx, dm the differences and sx, sm
    the sums of the spins; alpha and the spins broadcast."""
    dm, sm = si.m - sj.m, si.m + sj.m
    dx, sx = si.x - sj.x, si.x + sj.x
    return stack_rows((dx + 1j * alpha, dm), (sx + 1j * alpha, sm),
                      (dx - 1j * alpha, dm), (sx - 1j * alpha, sm))


def _edge_weight(family: ModelFamily, alpha, si: Spin, sj: Spin, v,
                 params: NomeParameters, kappas):
    """Edge weight W_alpha(si, sj) of the elliptic or the q-limit family,
    from values v of its four _edge_rows whose gamma ratio is
    v0 v1 / (v2 v3), and kappas = kappa(alpha)."""
    dm, sm = si.m - sj.m, si.m + sj.m
    if family is ModelFamily.ELLIPTIC:
        r = params.r
        pref = np.exp(-2 * alpha * (bracket_pm(dm, r) + bracket_pm(sm, r)) / r)
    else:
        pref = np.exp(-2 * alpha * (np.abs(dm) + np.abs(sm)))
    return pref / kappas * (v[0] * v[1]) / (v[2] * v[3])


def _elliptic_values(batches, params: NomeParameters) -> list:
    """Values v of the elliptic edge rows of each batch (``_edge_rows``),
    all in one flat batch, such that each edge's gamma ratio is
    v0 v1 / (v2 v3).

    They are Phi_{r,m} at each row, and at the conjugate nomes |v1|^2 of
    its (pq, p^r) factor v1 (``lens_elliptic_gamma_factor``): there
    Phi(d + ia) / Phi(d - ia) = |v1(d + ia)|^2 / |v1(d - ia)|^2.  That is
    one elliptic gamma batch in place of two, and its guarded products at
    +-ia are, up to conjugation, the ones the (pq, q^r) factor guards."""
    (z, m), shapes = join_batches(*batches)
    if not _conjugate_nomes(params):
        return split_batches(lens_elliptic_gamma(z, m, params), shapes)
    return split_batches(
        squared_modulus(lens_elliptic_gamma_factor(z, m, params)), shapes)


def weight_elliptic(alpha, si: Spin, sj: Spin,
                    params: NomeParameters) -> complex:
    """Elliptic edge Boltzmann weight W_alpha(si, sj).  alpha and the
    spins' angles and integer parts may be arrays that broadcast against
    each other."""
    if np.ndim(alpha) == 0 and alpha == 0.0:
        return 1.0 + 0.0j
    v, = _elliptic_values([_edge_rows(alpha, si, sj)], params)
    return python_scalar(_edge_weight(
        ModelFamily.ELLIPTIC, alpha, si, sj, v, params,
        kappa(ModelFamily.ELLIPTIC, alpha, params)))


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
    part are scalars or arrays that broadcast against each other.  The
    values do not depend on the instance, so they are cached per (params,
    angles, integer parts), in a small bounded cache, and read-only; a
    scalar spin gives a Python complex.
    """
    x, m = np.asarray(s0.x, float), np.asarray(s0.m, int)
    return python_scalar(_centre_weight(params, x.tobytes(), x.shape,
                                        m.tobytes(), m.shape))


@lru_cache(maxsize=32)
def _centre_weight(params: NomeParameters, x: bytes, x_shape: tuple,
                   m: bytes, m_shape: tuple) -> np.ndarray:
    """centre_weight at the angles and integer parts held in x and m."""
    s0 = Spin(np.frombuffer(x).reshape(x_shape),
              np.frombuffer(m, int).reshape(m_shape))
    # a 0-d array for a scalar spin, whose value is a numpy scalar
    value = np.asarray(_single_spin_theta(s0, 0.5, params))
    value.flags.writeable = False
    return value


def _q_products(z, n, params: NomeParameters, guard_num=False):
    """Numerator and denominator products of Q(z, n) (``q_function``), in
    one batch.  A denominator below 1e-13 raises PoleHitError, and so does
    a numerator where guard_num (a bool, or a bool array that broadcasts
    against z and n) holds."""
    p, q = params.p, params.q
    pq = p * q
    nonneg = np.greater_equal(n, 0)
    # n takes a few values over a whole batch: one power of each, gathered
    k = np.abs(n)
    powers = 2 * np.arange(np.max(k, initial=0) + 1)
    pk, qk = (p ** powers)[k], (q ** powers)[k]
    with product_arguments():
        e2 = np.exp(2j * z)
        c, = stack_rows((e2 * np.where(nonneg, qk, pk) * pq,),
                        (np.where(nonneg, pk, qk) * pq / e2,))
    num, den = qpochhammer_inf(c, pq * pq)
    if np.any(abs(den) < 1e-13) or np.any(guard_num & (abs(num) < 1e-13)):
        raise PoleHitError("Q(z, n) evaluated at a pole")
    return num, den


def q_function(z: complex, n: int, params: NomeParameters) -> complex:
    """r->infinity limit of the lens elliptic gamma function:

    Q(z, n) = prod_j (1 - e^{2iz} q^{2n} (pq)^{2j+1}) / (1 - e^{-2iz} p^{2n} (pq)^{2j+1})
    for n >= 0, and with (p^{-2n}, q^{-2n}) in place of (q^{2n}, p^{2n}) for n < 0.
    n may be an array that broadcasts against z.
    """
    num, den = _q_products(z, n, params)
    return python_scalar(num / den)


def _qlimit_values(batches, params: NomeParameters, spin: Spin = None):
    """Values of q-limit rows, all in one flat batch: the two single-spin
    rows of spin, if given (``_single_spin_qlimit_rows``), whose weight is
    e^{4 eta |m|} / (2 pi) v0 v1, and the edge rows of each batch
    (``_edge_rows``), such that each edge's Q ratio is v0 v1 / (v2 v3).
    Returns the single-spin values (None without spin) and the values of
    each batch.

    They are Q at each row.  At the conjugate nomes Q(conj z, n) =
    1 / conj Q(z, n) and Q(-z, -n) = 1 / Q(z, n), so the second
    single-spin row is conj Q of the first, and an edge ratio
    Q(d + ia) Q(s + ia) / (Q(d - ia) Q(s - ia)) is
    |num(d + ia) num(s + ia)|^2 / |den(d + ia) den(s + ia)|^2: only the
    first single-spin row and the +ia edge rows are evaluated.  Every
    denominator is guarded, as in q_function, and so is every edge
    numerator, num(z) being conj den(conj z), which the -ia rows would
    guard.  The single-spin numerator is not: its zero at x = 0 is the
    genuine double zero of S."""
    spins = [] if spin is None else [
        stack_rows(*_single_spin_qlimit_rows(spin, params))]
    if not _conjugate_nomes(params):
        (z, n), shapes = join_batches(*spins, *batches)
        v = split_batches(q_function(z, n, params), shapes)
        return (v[0] if spins else None), v[len(spins):]
    (z, n, guard), shapes = join_batches(
        *[(z[:1], n[:1], np.zeros(z[:1].shape, bool)) for z, n in spins],
        *[(z[:2], n[:2], np.ones(z[:2].shape, bool)) for z, n in batches])
    # numerators and denominators on axis 0 of each batch's values
    parts = split_batches(np.stack(_q_products(z, n, params, guard)), shapes)
    head = None
    if spins:
        (num,), (den,) = parts.pop(0)
        q = num / den
        head = np.stack([q, q.conj()])
    # per edge: |num d|^2, |num s|^2, |den d|^2, |den s|^2
    return head, [squared_modulus(v).reshape((4,) + v.shape[2:])
                  for v in parts]


def weight_qlimit(alpha, si: Spin, sj: Spin,
                  params: NomeParameters) -> complex:
    """q-limit edge Boltzmann weight W_alpha(si, sj).  alpha and the
    spins' angles and integer parts may be arrays that broadcast against
    each other."""
    if np.ndim(alpha) == 0 and alpha == 0.0:
        return 1.0 + 0.0j
    _, (v,) = _qlimit_values([_edge_rows(alpha, si, sj)], params)
    return python_scalar(_edge_weight(
        ModelFamily.Q_LIMIT, alpha, si, sj, v, params,
        kappa(ModelFamily.Q_LIMIT, alpha, params)))


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


def _three_edges(spins, alphas, ndim: int):
    """The spins and spectral parameters of the edges of a star as one
    Spin and one array, the edges on axis 0, followed by ndim axes of
    length 1 that broadcast against a centre spin of ndim axes."""
    shape = (len(spins),) + (1,) * ndim
    return (Spin(np.reshape([s.x for s in spins], shape),
                 np.reshape([s.m for s in spins], shape)),
            np.reshape(np.asarray(alphas, float), shape))


def star_integrand(family: ModelFamily, s0: Spin, spins, alphas,
                   params: NomeParameters, *, kappas=None, right_side=None):
    """Integrand S(s0) prod_i W_{alpha_i}(s_i, s0) of the star-triangle
    relation of the q-limit or the Euler-gamma family, or
    S~(s0) prod_i W_{alpha_i}(s_i, s0) of the elliptic one, at a centre
    spin s0 whose angle and integer part may be arrays that broadcast
    against each other.

    The edges are one array axis.  Elliptic and q-limit: the twelve gamma
    factors of the three edge weights are one batch (``_elliptic_values``
    or ``_qlimit_values``), which at the conjugate nomes evaluates half of
    them, and kappas holds kappa(alpha_i), evaluated here when not given.
    The q-limit single-spin weight joins that batch.  The elliptic one is
    centre_weight, S~(s0) = S(s0) / (2 eps(m0)), for the sum over m0 in
    Z_r: its theta product form, which tolerates the genuine zeros of S on
    the contour where the gamma form's pole guard would reject them,
    cached per node grid.  Euler-gamma (params None): one weight_gamma
    call over the three edges.

    right_side, by keyword, is (alpha, si, sj, kappas) of more edge
    weights of the same family, one element per weight, whose rows ride in
    the same batch; the return is then the integrand and the product of
    those weights.
    """
    edges, alpha = _three_edges(spins, alphas,
                                np.ndim(np.broadcast(s0.x, s0.m)))
    if family is ModelFamily.GAMMA_LIMIT:
        return python_scalar(single_spin_gamma(s0)
                             * weight_gamma(alpha, edges, s0).prod(axis=0))
    if kappas is None:
        kappas = kappa(family, alphas, params)
    batches = [_edge_rows(alpha, edges, s0)]
    if right_side is not None:
        batches.append(_edge_rows(*right_side[:3]))
    if family is ModelFamily.ELLIPTIC:
        value, v = centre_weight(s0, params), _elliptic_values(batches, params)
    else:
        single, v = _qlimit_values(batches, params, spin=s0)
        value = _single_spin_qlimit(s0, single, params)
    value = value * _edge_weight(family, alpha, edges, s0, v[0], params,
                                 np.reshape(kappas, alpha.shape)).prod(axis=0)
    if right_side is None:
        return python_scalar(value)
    rhs = _edge_weight(family, *right_side[:3], v[1], params, right_side[3])
    return python_scalar(value), python_scalar(rhs.prod())


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
    """Gamma-limit single-spin weight (x^2 + m^2) / (4 pi); the spin's
    angle and integer part may be arrays."""
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
