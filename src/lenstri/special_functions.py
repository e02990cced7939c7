"""Modular brackets, q-Pochhammer symbols, theta functions, and the lens
elliptic gamma function in both of its product conventions.

All infinite products are truncated by term magnitude (see
:class:`~lenstri.params.TruncationPolicy`) and carry a geometric tail bound.

Every function takes its argument z either as a scalar or as an ndarray
(the lens functions also take an array m); an array is evaluated as one
batch and gives arrays of values and bounds, a scalar stays on Python
scalars and cmath.  A batch shares its truncation depth, taken from its
largest |c|, so each element gets at least the terms it would get alone,
and the pole guard covers the whole batch.

Double products are multiplied out first, per element, in blocks of at
most ``_BLOCK`` factors, and the log is taken once of each finished
product.  That log is off from sum(log f) by a multiple of 2 pi i, which
is harmless because callers only ever use exp of a combination of such
logs: the logs exist so that exponential prefactors and several products
combine without an intermediate overflow.  A product is at most
exp(sum |c a^j b^k|) in magnitude, so it can overflow only at arguments
far off the real axis; a non-finite product raises NonConvergenceError
rather than passing an inf on.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np

from .params import (
    DEFAULT_POLICY,
    DivergentParameterError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
    TruncationPolicy,
)

# Any product factor closer to zero than this is treated as a pole (or zero)
# hit of a gamma-type function: verification must fail loudly near the
# pole lattice rather than return a huge value.
POLE_FACTOR_EPS = 1e-13

#: most product factors held in memory at once by a batched evaluation
_BLOCK = 2 ** 14

_SCALAR_MATH = SimpleNamespace(exp=cmath.exp, expm1=math.expm1, minimum=min)


def math_for(x):
    """numpy for an array argument, else the cmath/math functions, so that
    scalar evaluations stay on Python scalars."""
    return np if isinstance(x, np.ndarray) else _SCALAR_MATH


def mod_bracket(m: int, r: int) -> int:
    """Representative of m modulo r in {0, ..., r-1}."""
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    return m % r


def bracket_pm(m: int, r: int) -> int:
    """Product of the two modular brackets of m and -m."""
    return mod_bracket(m, r) * mod_bracket(-m, r)


def _term_count(ac: float, ratio: float, eps: float, cap: int) -> int:
    """Number of leading terms of ac * ratio**j that are >= eps."""
    if ac <= eps:
        return 0
    if ratio == 0.0:
        return 1
    n = int(math.ceil(math.log(eps / ac) / math.log(ratio)))
    n = max(n, 1)
    if n > cap:
        raise NonConvergenceError(
            f"product needs {n} terms, exceeding the cap of {cap}"
        )
    return n


def _largest(ac) -> float:
    """Largest |c| of a batch (the value itself for a scalar)."""
    return ac.max(initial=0.0) if isinstance(ac, np.ndarray) else ac


def _product(c, grid: np.ndarray, pole_guard: bool):
    """prod_g (1 - c g) over the flat grid, for a scalar c or per element of
    an array c, in blocks of at most _BLOCK factors.

    With pole_guard, a factor closer to zero than POLE_FACTOR_EPS anywhere
    in the batch raises PoleHitError.  A product that is not finite in
    double precision, or a guarded one that underflows to zero, raises
    NonConvergenceError.
    """
    flat = np.reshape(c, -1)
    size = max(grid.size, 1)
    rows, cols = max(1, _BLOCK // size), min(size, _BLOCK)
    out = np.empty(flat.shape, complex)
    # overflow is checked once below, on the finished products
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, rows):
            cb = flat[lo:lo + rows, None]
            acc = 1.0
            for g in range(0, grid.size, cols):
                f = 1.0 - cb * grid[g:g + cols]
                if pole_guard and np.abs(f).min() < POLE_FACTOR_EPS:
                    raise PoleHitError(
                        "a product factor vanished: evaluation point is on "
                        "(or too close to) the pole/zero lattice")
                acc = acc * f.prod(axis=1)
            out[lo:lo + rows] = acc
    if not np.isfinite(out).all() or (pole_guard and not out.all()):
        raise NonConvergenceError(
            "product overflows or underflows double precision")
    return out.reshape(np.shape(c)) if isinstance(c, np.ndarray) else complex(out[0])


def _log_product_2d(c, a: complex, b: complex,
                    policy: TruncationPolicy, pole_guard: bool = True):
    """log of prod_{j,k>=0} (1 - c a^j b^k), with a tail bound on the log.

    Requires |a|, |b| < 1.  c may be an array; the term counts then come
    from its largest |c|.  Returns (log_value, log_tail_bound), per element
    for an array c.  Only exp(log_value) is meaningful: the log is taken
    of the finished product, on the principal branch.
    """
    aa, ab = abs(a), abs(b)
    if aa >= 1.0 or ab >= 1.0:
        raise DivergentParameterError(
            f"product ratios must have magnitude < 1 (got {aa}, {ab})"
        )
    eps = policy.term_epsilon
    cap = policy.max_product_index
    ac = abs(c)
    top = _largest(ac)
    nj, nk = _term_count(top, aa, eps, cap), _term_count(top, ab, eps, cap)
    # every omitted factor has |c a^j b^k| below min(|c|, eps) times a
    # geometric weight, so this holds for every element and any term count
    # at least its own
    tail = 4.0 * math_for(ac).minimum(ac, eps) / ((1.0 - aa) * (1.0 - ab))
    grid = ((a ** np.arange(nj))[:, None] * (b ** np.arange(nk))).ravel()
    prod = _product(c, grid, pole_guard)
    if pole_guard:
        # _product has checked that guarded products are nonzero
        return (np.log(prod) if isinstance(c, np.ndarray)
                else cmath.log(prod)), tail
    # the unguarded products have genuine zeros (1/Gamma at its zeros):
    # log 0 = -inf, which the caller's exp turns back into 0
    with np.errstate(divide="ignore"):
        log = np.log(prod)
    return (log if isinstance(c, np.ndarray) else complex(log)), tail


def _pochhammer_raw(c, a: complex, policy: TruncationPolicy):
    """prod_{j>=0} (1 - c a^j) as a direct product; zeros are allowed.

    c may be an array; the term count then comes from its largest |c|.
    Returns (value, absolute_tail_bound), per element for an array c.
    """
    aa = abs(a)
    if aa >= 1.0:
        raise DivergentParameterError(f"|ratio| must be < 1, got {aa}")
    eps = policy.term_epsilon
    ac = abs(c)
    nj = _term_count(_largest(ac), aa, eps, policy.max_product_index)
    value = _product(c, a ** np.arange(nj), pole_guard=False)
    xp = math_for(ac)
    rel_tail = 2.0 * xp.minimum(ac, eps) / (1.0 - aa)
    return value, abs(value) * xp.expm1(rel_tail)


def _result(value, bound, with_bound):
    return (value, bound) if with_bound else value


def qpochhammer_inf(x: complex, q: complex,
                    policy: TruncationPolicy = DEFAULT_POLICY,
                    with_bound: bool = False):
    """q-Pochhammer symbol (x; q)_inf = prod_{j>=0} (1 - x q^j), |q| < 1."""
    value, bound = _pochhammer_raw(x, q, policy)
    return _result(value, bound, with_bound)


def theta4(z: complex, p: complex,
           policy: TruncationPolicy = DEFAULT_POLICY,
           with_bound: bool = False):
    """Jacobi theta: (p^2;p^2)_inf prod_{n>=1}(1-e^{2iz}p^{2n-1})(1-e^{-2iz}p^{2n-1})."""
    p2 = p * p
    exp = math_for(z).exp
    c0, b0 = _pochhammer_raw(p2, p2, policy)
    cp, bp = _pochhammer_raw(exp(2j * z) * p, p2, policy)
    cm, bm = _pochhammer_raw(exp(-2j * z) * p, p2, policy)
    value = c0 * cp * cm
    bound = (abs(cp * cm) * b0 + abs(c0 * cm) * bp + abs(c0 * cp) * bm)
    return _result(value, bound, with_bound)


def elliptic_gamma(z: complex, p: complex, q: complex,
                   policy: TruncationPolicy = DEFAULT_POLICY,
                   with_bound: bool = False):
    """Elliptic gamma function
    Phi(z; p, q) = prod_{j,k>=0} (1 - e^{2iz} p^{2j+1} q^{2k+1})
                                / (1 - e^{-2iz} p^{2j+1} q^{2k+1}).
    """
    if abs(p) >= 1.0 or abs(q) >= 1.0:
        raise DivergentParameterError("|p| and |q| must be < 1")
    xp = math_for(z)
    e2 = xp.exp(2j * z)
    ln, tn = _log_product_2d(e2 * p * q, p * p, q * q, policy)
    ld, td = _log_product_2d(p * q / e2, p * p, q * q, policy)
    value = xp.exp(ln - ld)
    bound = abs(value) * xp.expm1(tn + td)
    return _result(value, bound, with_bound)


def lens_elliptic_gamma(z: complex, m: int, params: NomeParameters,
                        policy: TruncationPolicy = DEFAULT_POLICY,
                        with_bound: bool = False):
    """Lens elliptic gamma function Phi_{r,m}(z), as the pair of ordinary
    elliptic gamma factors with nomes (pq, p^r) and (pq, q^r) at shifted
    arguments.  Reduces to Phi(z; p, q) for r=1, m=0.
    """
    r = params.r
    p, q = params.p, params.q
    shift = (r / 2 - mod_bracket(m, r))
    v1, b1 = elliptic_gamma(z + shift * math.pi * params.sigma, p * q, p ** r,
                            policy, with_bound=True)
    v2, b2 = elliptic_gamma(z - shift * math.pi * params.tau, p * q, q ** r,
                            policy, with_bound=True)
    value = v1 * v2
    bound = abs(v2) * b1 + abs(v1) * b2
    return _result(value, bound, with_bound)


def varphi(z: complex, m: int, params: NomeParameters) -> complex:
    """Exponent prefactor of the appendix-convention lens gamma function:
    (-2 eta - 2iz + 2 zeta ([[m]] - [[-m]]) / 3) [[m]]_pm / (4r).
    """
    r = params.r
    br, brm = mod_bracket(m, r), mod_bracket(-m, r)
    return (-2 * params.eta - 2j * z
            + 2 * params.zeta * (br - brm) / 3) * (br * brm) / (4 * r)


def lens_gamma_appendix(z: complex, m: int, params: NomeParameters,
                        policy: TruncationPolicy = DEFAULT_POLICY,
                        with_bound: bool = False, allow_zero: bool = False):
    """Lens elliptic gamma function in the exponential-prefactor convention:

    Gamma(z, m) = e^{varphi(z,m)}
        prod_{j,k>=0} (1 - e^{-iz} p^{-[[m]]} (pq)^{j+1} p^{r(k+1)})
                     / (1 - e^{ iz} p^{ [[m]]} (pq)^j     p^{rk})
                   * (1 - e^{-iz} q^{[[m]]-r} (pq)^{j+1} q^{r(k+1)})
                     / (1 - e^{ iz} q^{r-[[m]]} (pq)^j    q^{rk})
    """
    r = params.r
    p, q = params.p, params.q
    pq = p * q
    br = mod_bracket(m, r)
    phi = varphi(z, m, params)
    xp = math_for(phi)
    ei = xp.exp(1j * z)
    # allow_zero lifts the pole guard on the numerator products only; their
    # vanishing is a genuine zero of the function, not a pole
    l1, t1 = _log_product_2d(pq * p ** (r - br) / ei, pq, p ** r, policy,
                             pole_guard=not allow_zero)
    l2, t2 = _log_product_2d(ei * p ** br, pq, p ** r, policy)
    l3, t3 = _log_product_2d(pq * q ** br / ei, pq, q ** r, policy,
                             pole_guard=not allow_zero)
    l4, t4 = _log_product_2d(ei * q ** (r - br), pq, q ** r, policy)
    value = xp.exp(phi + l1 - l2 + l3 - l4)
    bound = abs(value) * xp.expm1(t1 + t2 + t3 + t4)
    return _result(value, bound, with_bound)


def lens_theta_exponent(z: complex, m: int, params: NomeParameters) -> complex:
    """Closed-form exponent phi(z, m) of the lens theta function."""
    r = params.r
    return (params.zeta * (r - 1) * (r + 1) / 3
            - 1j * math.pi * (params.tau + 2) * bracket_pm(m, r)
            - 1j * (z + math.pi) * (r - 1 - 2 * mod_bracket(-m, r))) / (2 * r)


def lens_theta(z: complex, m: int, params: NomeParameters,
               policy: TruncationPolicy = DEFAULT_POLICY,
               with_bound: bool = False):
    """Lens theta function
    theta(z, m | tau) = e^{phi(z,m)} (e^{iz} q^{[[-m]]}; q^r)_inf
                                     (e^{-iz} q^{r-[[-m]]}; q^r)_inf.
    """
    r = params.r
    q = params.q
    brm = mod_bracket(-m, r)
    phi = lens_theta_exponent(z, m, params)
    exp = math_for(phi).exp
    pre = exp(phi)
    c1, b1 = _pochhammer_raw(exp(1j * z) * q ** brm, q ** r, policy)
    c2, b2 = _pochhammer_raw(exp(-1j * z) * q ** (r - brm), q ** r, policy)
    value = pre * c1 * c2
    bound = abs(pre) * (abs(c2) * b1 + abs(c1) * b2)
    return _result(value, bound, with_bound)

