"""Edge and single-spin Boltzmann weights of the three model families:
elliptic (lens elliptic gamma), the r->infinity q-product limit, and the
Euler-gamma scaling limit.

Normalisation factors kappa(alpha) are exponentials of bilateral sums
whose summands are rewritten with the dominant nome powers factored out,
so no intermediate overflows for large |n|.  The terms fall geometrically,
by a ratio known in closed form, so the sum is one array cut by a
geometric tail bound.  kappa of every alpha of an array is one evaluation
of that series (of several star-triangle instances, each row cut at its
own length); the parts of its terms that depend on the nomes alone are
cached per params, and the scalar ``kappa_elliptic`` and ``kappa_qlimit``
per (alpha, params).

A weight, or a star-triangle integrand, is one batch of gamma factors:
one builder, ``_edge_logs``, writes the rows of every edge it is given
(``_edge_rows``; three edges of a star are one more axis, and a right
side's edges ride beside an integrand's nodes) into one flat array, rows
on axis 0, and hands it to one kernel call per nome grid.  A row enters
the batch as its phase e^{2iz}, a product of per-spin phases, so a star
takes one exp per centre angle to build its rows.  The rows of both
product families come back as logs: the lens elliptic gamma function's
from the elliptic gamma kernel, Q's from its numerator and denominator
q-Pochhammer products in one ``_log_product_2d`` call, and each edge's
log ratio is formed from them in one pass.  A weight is its prefactor
over kappa times the exp of its log ratio, and a star integrand sums the
log ratios of its three edges and exponentiates once per centre spin.
Several stars at one centre spin are a leading axis of one such batch,
each star's rows a truncation group of their own, and so are the edge
weights of several instances with scalar spins (``_weight``'s
``stars``), as a sweep's inversion samples take them.  What depends on
the nomes and the node grid alone, the single-spin weights, is cached
per grid (``grid_cache``).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import special_functions as sf
from .params import (
    MAX_SUM_TERMS,
    TERM_EPSILON,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
)
from .special_functions import (
    _exp_result,
    _phase,
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


def _kappa_log(alpha, params: NomeParameters, family: ModelFamily,
               rows: bool = False):
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
    alpha.  rows: alpha is 2-d, and each row takes N from its own largest
    |a| and sums its own N terms, as a call of its own, while the terms of
    all rows are one evaluation.
    """
    alpha = np.asarray(alpha, float)
    bound = _kappa_bound(params, family)
    counts = []
    tops = (np.abs(alpha).max(axis=-1) if rows
            else np.abs(alpha).max(initial=0.0))
    for top in np.atleast_1d(tops).tolist():
        rho = abs(params.p * params.q) ** 2 * math.exp(4 * top)
        if rho >= 1.0:
            raise NonConvergenceError(
                f"kappa series diverges: term ratio {rho:.3f} >= 1")
        counts.append(_term_count(2.0 * bound * rho / (1.0 - rho), rho,
                                  TERM_EPSILON * 1e2, MAX_SUM_TERMS,
                                  what="kappa series"))
    n = max(counts)
    size = 1 << max(4, (n - 1).bit_length())
    k, k_logw, factor = (a[:n] for a in _kappa_series(params, family, size))
    a4k = 4 * alpha[..., None] * k
    # exponents combined before exponentiating: e^{4 a n} alone can
    # overflow for alpha near eta even though the term is tiny
    terms = (np.exp(a4k + k_logw) - np.exp(k_logw - a4k)) * factor / k
    if not rows:
        return terms.sum(axis=-1)
    return np.array([t[:, :m].sum(axis=-1) for t, m in zip(terms, counts)])


@lru_cache(maxsize=32)
def _kappa_bound(params: NomeParameters, family: ModelFamily) -> float:
    """A bound on |factor(k)|, k >= 1, of the family's kappa series."""
    w = abs(params.p * params.q)
    if family is ModelFamily.Q_LIMIT:
        return 1 / (1 - w ** 4)
    r = params.r
    return ((1 + w ** (2 * r))
            / ((1 - w ** 4) * (1 - abs(params.p) ** (2 * r))
               * (1 - abs(params.q) ** (2 * r))))


def kappa(family: ModelFamily, alpha, params: NomeParameters,
          rows: bool = False):
    """kappa(alpha) of the elliptic or the q-limit edge weight at a scalar
    alpha or at each element of an array of them, from one evaluation of
    the series (``_kappa_log``); kappa(0) = 1.  rows: each row of a 2-d
    alpha (the spectral parameters of one star-triangle instance) is
    truncated as a call of its own."""
    return python_scalar(np.exp(_kappa_log(alpha, params, family, rows)))


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
    factors, the rest being conjugates of these (``_elliptic_logs``,
    ``_qlimit_logs``); anywhere else, however near, all of them.  The
    conjugates pair up because the spins' angles and alpha are real, as
    in every weight's domain."""
    return params.tau == -params.sigma.conjugate()


def _edge_rows(alpha, si: Spin, sj: Spin, scalar_spins: bool = False):
    """The gamma rows of the edge weight W_alpha(si, sj), G(dx + i alpha,
    dm) G(sx + i alpha, sm) / (G(dx - i alpha, dm) G(sx - i alpha, sm)),
    with G the lens elliptic gamma function or its q-limit Q, dx, dm the
    differences and sx, sm the sums of the spins; alpha and the spins
    broadcast.  Returns (e^{2i dx}, e^{2i sx}, e^{-2 alpha}, dm, sm), of
    which ``_edge_logs`` forms the rows' phases e^{2iz} = e^{2i dx}
    e^{-+2 alpha} and e^{2i sx} e^{-+2 alpha}: a star's rows take one exp
    per centre angle, and a difference dx = 0 gives e^{-+2 alpha} to the
    rounding of the real factor alone.  scalar_spins: si and sj, of one
    shape, hold the scalar spins of several weights alone, and each sum
    phase is the product of two complex scalars, as it is alone (numpy's
    array multiply rounds a complex product otherwise)."""
    with product_arguments():
        ei, ej = np.exp(2j * si.x), np.exp(2j * sj.x)
        sx = (np.reshape([a * b for a, b in zip(ei.ravel().tolist(),
                                                ej.ravel().tolist())],
                         ei.shape) if scalar_spins else ei * ej)
        return ei / ej, sx, np.exp(-2 * alpha), si.m - sj.m, si.m + sj.m


def _prefactor(family: ModelFamily, alpha, si: Spin, sj: Spin,
               params: NomeParameters, kappas):
    """The factor of the edge weight W_alpha(si, sj) of the elliptic or the
    q-limit family that its rows leave out: the exponential prefactor over
    kappas = kappa(alpha).  It does not depend on the spins' angles, so a
    star's is one value per edge and sector, not per node."""
    dm, sm = si.m - sj.m, si.m + sj.m
    if family is ModelFamily.ELLIPTIC:
        r = params.r
        pref = np.exp(-2 * alpha * (bracket_pm(dm, r) + bracket_pm(sm, r)) / r)
    else:
        pref = np.exp(-2 * alpha * (np.abs(dm) + np.abs(sm)))
    return pref / kappas


def _elliptic_logs(e2, m, params: NomeParameters, group_axis=None):
    """Logs of the elliptic rows at the phases e2 and integer parts m, one
    flat batch: log Phi_{r,m} at each row, and at the conjugate nomes the
    real 2 Re log v1 = log |v1|^2 of its (pq, p^r) factor
    v1(z) = Phi(z + (r/2 - [[m]]) pi sigma; pq, p^r)
    (``special_functions._lens_factor``): there the other factor is
    v2(z) = 1 / conj v1(conj z), so Phi(d + ia) / Phi(d - ia) =
    |v1(d + ia)|^2 / |v1(d - ia)|^2.  That is one elliptic gamma batch in
    place of two, and its guarded products at +-ia are, up to conjugation,
    the ones the (pq, q^r) factor guards.  group_axis: the axis of e2
    whose slices are truncation groups
    (``special_functions._log_product_2d``)."""
    if not _conjugate_nomes(params):
        (l1, _), (l2, _) = sf._lens_gamma(e2, m, params, group_axis)
        return l1 + l2
    return 2 * sf._lens_factor(e2, m, params, group_axis)[0].real


def _edge_logs(family: ModelFamily, edges, params: NomeParameters,
               stars=None) -> list:
    """The log of the gamma ratio of each edge of edges (``_edge_rows``),
    of the elliptic or the q-limit family, in the edge's broadcast shape.

    Every edge's rows are written once into one flat batch, the rows on
    axis 0 and the edges' elements in turn on axis 1, whose phases and
    integer parts go to one kernel call per nome grid
    (``_elliptic_logs``, ``_qlimit_logs``); an edge's log ratio is
    l0 + l1 - l2 - l3 of its rows' logs, formed for every edge at once.
    At the conjugate nomes the q-limit rows are the +i alpha rows alone
    (``_qlimit_logs``).  stars: the edges share a leading axis of that
    many stars, which the batch keeps between its rows and each star's
    elements, so that each star's rows are laid out as they are alone and
    are a truncation group of their own
    (``special_functions._log_product_2d``)."""
    qlimit = family is ModelFamily.Q_LIMIT
    half = qlimit and _conjugate_nomes(params)
    rows = 2 if half else 4
    lead = () if stars is None else (stars,)
    shapes = [np.broadcast(*edge).shape[len(lead):] for edge in edges]
    ends = list(accumulate(map(math.prod, shapes), initial=0))
    e2 = np.empty((rows,) + lead + (ends[-1],), complex)
    m = np.empty(e2.shape, int)
    for (d, s, ea, dm, sm), shape, lo, hi in zip(edges, shapes, ends,
                                                  ends[1:]):
        e, n = (x[..., lo:hi].reshape((rows,) + lead + shape)
                for x in (e2, m))
        with product_arguments():
            np.multiply(d, ea, out=e[0, ...])
            np.multiply(s, ea, out=e[1, ...])
            if not half:
                np.divide(d, ea, out=e[2, ...])
                np.divide(s, ea, out=e[3, ...])
        n[0::2], n[1::2] = dm, sm
    if stars is None:
        e2, m = e2.reshape(-1), m.reshape(-1)
    logs = (_qlimit_logs if qlimit else _elliptic_logs)(
        e2, m, params, None if stars is None else -2).reshape(
            (4,) + lead + (-1,))
    ratio = logs[0] + logs[1] - logs[2] - logs[3]
    return [ratio[..., lo:hi].reshape(lead + shape)
            for shape, lo, hi in zip(shapes, ends, ends[1:])]


def _weight(family: ModelFamily, alpha, si: Spin, sj: Spin,
            params: NomeParameters, stars=None):
    """Edge weight W_alpha(si, sj) of the elliptic or the q-limit family:
    its gamma ratio times its prefactor over kappa(alpha).

    stars: the weights of that many instances, each with scalar spins of
    its own, in one batch: each spin's angle and integer part hold one
    value per instance (shape (stars, 1)) and alpha one row per instance.
    Each instance's rows are a truncation group (``_edge_logs``) and its
    kappa a row of its own, so that it gets the values it gets alone."""
    if stars is None and np.ndim(alpha) == 0 and alpha == 0.0:
        return 1.0 + 0.0j
    rows = _edge_rows(alpha, si, sj, scalar_spins=stars is not None)
    l, = _edge_logs(family, [rows], params, stars)
    return python_scalar(_exp_result(l, None, False) * _prefactor(
        family, alpha, si, sj, params,
        kappa(family, alpha, params, rows=stars is not None)))


def weight_elliptic(alpha, si: Spin, sj: Spin, params: NomeParameters,
                    stars=None) -> complex:
    """Elliptic edge Boltzmann weight W_alpha(si, sj).  alpha and the
    spins' angles and integer parts may be arrays that broadcast against
    each other; stars: several instances (``_weight``)."""
    return _weight(ModelFamily.ELLIPTIC, alpha, si, sj, params, stars)


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


def grid_cache(fn):
    """fn(params, *arrays), cached per params and the arrays' values (bytes,
    dtype and shape), in a small bounded cache, read-only: for the rows of
    an integrand that depend on the nomes and the node grid alone, not on
    the instance.  The arrays may be scalars, whose value is a 0-d array;
    the cache's cache_info and cache_clear are the wrapper's."""
    @lru_cache(maxsize=32)
    def cached(params, *keys):
        value = np.asarray(fn(params, *(np.frombuffer(b, d).reshape(s)
                                        for b, d, s in keys)))
        value.flags.writeable = False
        return value

    def call(params, *arrays):
        return cached(params, *((a.tobytes(), a.dtype, a.shape)
                                for a in map(np.asarray, arrays)))
    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


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
    angles, integer parts) (``grid_cache``); a scalar spin gives a Python
    complex.
    """
    return python_scalar(_centre_weight(params, np.asarray(s0.x, float),
                                        np.asarray(s0.m, int)))


@grid_cache
def _centre_weight(params: NomeParameters, x, m) -> np.ndarray:
    """centre_weight at the angles x and integer parts m."""
    return _single_spin_theta(Spin(x, m), 0.5, params)


def _q_products(e2, n, params: NomeParameters, guard_num=False,
                group_axis=None):
    """Logs of the numerator and denominator products of Q(z, n)
    (``q_function``) at the phase e2 = e^{2iz}, on axis 0 of one batch,
    from one ``_log_product_2d`` call of ratio (pq)^2 under its per-factor
    pole guard: a denominator factor on the pole lattice raises
    PoleHitError, and so does a numerator factor where the bool guard_num
    is set; elsewhere a numerator may vanish, a log of -inf.  group_axis
    (negative): the axis of e2 and n whose slices are truncation groups
    (``special_functions._log_product_2d``)."""
    p, q = params.p, params.q
    pq = p * q
    # n takes a few values over a whole batch: each factor once, gathered;
    # pq q^{2n} (pq p^{-2n} for n < 0) and pq p^{2n} (pq q^{-2n}) at n = -k..k
    k = np.max(np.abs(n), initial=0)
    j = 2 * np.arange(k + 1)
    i = np.add(n, k)
    num = (pq * np.concatenate([p ** j[:0:-1], q ** j]))[i]
    den = (pq * np.concatenate([q ** j[:0:-1], p ** j]))[i]
    c = np.empty((2,) + np.broadcast_shapes(np.shape(e2), np.shape(n)),
                 complex)
    with product_arguments():
        np.multiply(e2, num, out=c[:1])
        np.divide(den, e2, out=c[1:])
    guard = np.array([guard_num, True]).reshape((2,) + (1,) * (c.ndim - 1))
    return sf._log_product_2d(c, pq * pq, 0.0, guard, group_axis)[0]


def q_function(z: complex, n: int, params: NomeParameters) -> complex:
    """r->infinity limit of the lens elliptic gamma function:

    Q(z, n) = prod_j (1 - e^{2iz} q^{2n} (pq)^{2j+1}) / (1 - e^{-2iz} p^{2n} (pq)^{2j+1})
    for n >= 0, and with (p^{-2n}, q^{-2n}) in place of (q^{2n}, p^{2n}) for n < 0.
    n may be an array that broadcasts against z.
    """
    ln, ld = _q_products(_phase(z, 2), n, params)
    return _exp_result(ln - ld, None, False)


def _qlimit_logs(e2, n, params: NomeParameters, group_axis=None):
    """Logs of the q-limit edge rows at the phases e2 and integer parts n,
    one flat batch: log Q = log num - log den at each row.

    At the conjugate nomes Q(conj z, n) = 1 / conj Q(z, n), so an edge
    ratio Q(d + ia) Q(s + ia) / (Q(d - ia) Q(s - ia)) is
    |num(d + ia) num(s + ia)|^2 / |den(d + ia) den(s + ia)|^2: the rows are
    the +ia rows alone (``_edge_logs``), and the logs are the real
    2 Re log num of each and then 2 Re log den of each.  Every denominator
    is guarded, as in q_function, and so is every numerator there,
    num(z) being conj den(conj z), which the -ia rows would guard."""
    if not _conjugate_nomes(params):
        ln, ld = _q_products(e2, n, params, group_axis=group_axis)
        return ln - ld
    return 2 * _q_products(e2, n, params, True, group_axis).real


def weight_qlimit(alpha, si: Spin, sj: Spin, params: NomeParameters,
                  stars=None) -> complex:
    """q-limit edge Boltzmann weight W_alpha(si, sj).  alpha and the
    spins' angles and integer parts may be arrays that broadcast against
    each other; stars: several instances (``_weight``)."""
    return _weight(ModelFamily.Q_LIMIT, alpha, si, sj, params, stars)


def single_spin_qlimit(sj: Spin, params: NomeParameters) -> complex:
    """q-limit single-spin weight:
    (1/2pi) e^{4 eta |m|} Q(2x - i eta, 2m) Q(-2x - i eta, -2m).
    The spin's angle and integer part may be arrays that broadcast against
    each other.
    """
    eta = params.eta
    z, n = stack_rows((2 * sj.x - 1j * eta, 2 * sj.m),
                      (-2 * sj.x - 1j * eta, -2 * sj.m))
    v = q_function(z, n, params)
    return python_scalar(np.exp(4 * eta * np.abs(sj.m)) / (2 * math.pi)
                         * v[0] * v[1])


@grid_cache
def _single_spin_qlimit(params: NomeParameters, x, m) -> np.ndarray:
    """single_spin_qlimit at the angles x and integer parts m, per grid."""
    return single_spin_qlimit(Spin(x, m), params)


def _three_edges(spins, alphas, ndim: int):
    """The spins and spectral parameters of the edges of a star as one
    Spin and one array, the edges on the axis after the stars' (if any)
    and before ndim axes of length 1 that broadcast against a centre spin
    of ndim axes.  Several stars: each spin's angle and integer part hold
    one value per star, and alphas one row per star."""
    alphas = np.array(alphas, float)
    shape = alphas.shape + (1,) * ndim
    return (Spin(np.stack([s.x for s in spins], axis=-1).reshape(shape),
                 np.stack([s.m for s in spins], axis=-1).reshape(shape)),
            alphas.reshape(shape))


def star_integrand(family: ModelFamily, s0: Spin, spins, alphas,
                   params: NomeParameters, *, kappas=None, right_side=None):
    """Integrand S(s0) prod_i W_{alpha_i}(s_i, s0) of the star-triangle
    relation of the q-limit or the Euler-gamma family, or
    S~(s0) prod_i W_{alpha_i}(s_i, s0) of the elliptic one, at a centre
    spin s0 whose angle and integer part may be arrays that broadcast
    against each other.

    The edges are one array axis.  Elliptic and q-limit: the twelve gamma
    factors of the three edge weights are one batch of logs
    (``_edge_logs``), which at the conjugate nomes evaluates half of them,
    and kappas holds kappa(alpha_i), evaluated here when not given.  The
    integrand is the single-spin weight times exp(sum of the edges' log
    weights), one exp per centre spin, real at the conjugate nomes.  The
    single-spin weight depends on the node grid alone and is cached per
    grid (``grid_cache``): the q-limit one is single_spin_qlimit, whose
    numerator is unguarded, so its genuine zero at x0 = 0, m0 = 0 is 0;
    the elliptic one is centre_weight, S~(s0) = S(s0) / (2 eps(m0)), for
    the sum over m0 in Z_r, in its theta product form, which tolerates the
    genuine zeros of S on the contour where the gamma form's pole guard
    would reject them.  Euler-gamma (params None): one weight_gamma call
    over the three edges.

    right_side, by keyword, is (alpha, si, sj, kappas) of more edge
    weights of the same family, one element per weight, whose rows ride in
    the same batch; the return is then the integrand and the product of
    those weights.

    Several stars of the elliptic or the q-limit family at one centre
    spin: each spin of spins holds one angle and integer part per star,
    alphas and kappas one row per star, and right_side's parts one row of
    weights per star.  The stars are then a leading axis of the edge rows,
    the prefactors, the integrand and the right side, and each star's rows
    (its right side's included) are a truncation group of their own
    (``_edge_logs``), so that each star gets the values it gets alone.
    """
    ndim = np.ndim(np.broadcast(s0.x, s0.m))
    edges, alpha = _three_edges(spins, alphas, ndim)
    axis = -1 - ndim     # the edges'
    if family is ModelFamily.GAMMA_LIMIT:
        return python_scalar(single_spin_gamma(s0)
                             * weight_gamma(alpha, edges, s0).prod(axis=axis))
    if kappas is None:
        kappas = kappa(family, np.reshape(alphas, (-1, 3)), params,
                       rows=True)
    rows = [_edge_rows(alpha, edges, s0)]
    # several stars: one truncation group each, its right side included
    stars = len(alphas) if np.ndim(alphas) == 2 and len(alphas) > 1 else None
    if right_side is not None:
        rows.append(_edge_rows(*right_side[:3]))
    l = _edge_logs(family, rows, params, stars)
    pref = _prefactor(family, alpha, edges, s0, params,
                      np.reshape(kappas, alpha.shape))
    single = (centre_weight(s0, params) if family is ModelFamily.ELLIPTIC
              else _single_spin_qlimit(params, s0.x, s0.m))
    # the edges' log ratios summed: one exp per centre spin
    value = single * pref.prod(axis=axis) * _exp_result(l[0].sum(axis=axis),
                                                        None, False)
    if right_side is None:
        return python_scalar(value)
    rhs = _prefactor(family, *right_side[:3], params, right_side[3])
    return python_scalar(value), python_scalar(
        (rhs * _exp_result(l[1], None, False)).prod(axis=-1))


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
                params: NomeParameters | None = None, stars=None):
    """Uncrossed weight W_alpha(si, sj) for the given family; alpha and the
    spins may be arrays that broadcast against each other.  stars: the
    weights of several instances, each evaluated as alone (``_weight``;
    the Euler-gamma weight is elementwise anyway)."""
    if family is ModelFamily.ELLIPTIC:
        return weight_elliptic(alpha, si, sj, params, stars)
    if family is ModelFamily.Q_LIMIT:
        return weight_qlimit(alpha, si, sj, params, stars)
    return weight_gamma(alpha, si, sj)
