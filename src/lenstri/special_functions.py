"""Modular brackets, q-Pochhammer symbols, theta functions, and the lens
elliptic gamma function in both of its product conventions.

All infinite products are truncated by term magnitude (see
:class:`~lenstri.params.TruncationPolicy`) and carry a geometric tail bound.
Double products are accumulated in log space so that large exponents at
higher lens order r cannot overflow; the exponential is taken once at the
end, which is branch-safe because exp(sum log f) == prod f.
"""

from __future__ import annotations

import cmath
import math

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


def _log_product_2d(c: complex, a: complex, b: complex,
                    policy: TruncationPolicy, pole_guard: bool = True):
    """log of prod_{j,k>=0} (1 - c a^j b^k), with a tail bound on the log.

    Requires |a|, |b| < 1.  Returns (log_sum, log_tail_bound).
    """
    aa, ab, ac = abs(a), abs(b), abs(c)
    if aa >= 1.0 or ab >= 1.0:
        raise DivergentParameterError(
            f"product ratios must have magnitude < 1 (got {aa}, {ab})"
        )
    if ac == 0.0:
        return 0.0 + 0.0j, 0.0
    eps = policy.term_epsilon
    cap = policy.max_product_index
    nj = _term_count(ac, aa, eps, cap)
    nk = _term_count(ac, ab, eps, cap)
    tail = 2.0 * ac * (aa ** nj + ab ** nk) / ((1.0 - aa) * (1.0 - ab))
    if nj == 0 or nk == 0:
        return 0.0 + 0.0j, tail
    w = c * (a ** np.arange(nj))[:, None] * (b ** np.arange(nk))[None, :]
    f = 1.0 - w
    if pole_guard and np.abs(f).min() < POLE_FACTOR_EPS:
        raise PoleHitError("a product factor vanished: evaluation point is "
                           "on (or too close to) the pole/zero lattice")
    return complex(np.sum(np.log(f))), tail


def _pochhammer_raw(c: complex, a: complex, policy: TruncationPolicy):
    """prod_{j>=0} (1 - c a^j) as a direct product; zeros are allowed.

    Returns (value, absolute_tail_bound).
    """
    aa, ac = abs(a), abs(c)
    if aa >= 1.0:
        raise DivergentParameterError(f"|ratio| must be < 1, got {aa}")
    if ac == 0.0:
        return 1.0 + 0.0j, 0.0
    nj = _term_count(ac, aa, policy.term_epsilon, policy.max_product_index)
    if nj == 0:
        return 1.0 + 0.0j, ac / (1.0 - aa)
    w = c * a ** np.arange(nj)
    value = complex(np.prod(1.0 - w))
    rel_tail = 2.0 * ac * aa ** nj / (1.0 - aa)
    return value, abs(value) * math.expm1(rel_tail)


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
    c0, b0 = _pochhammer_raw(p2, p2, policy)
    cp, bp = _pochhammer_raw(cmath.exp(2j * z) * p, p2, policy)
    cm, bm = _pochhammer_raw(cmath.exp(-2j * z) * p, p2, policy)
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
    e2 = cmath.exp(2j * z)
    ln, tn = _log_product_2d(e2 * p * q, p * p, q * q, policy)
    ld, td = _log_product_2d(p * q / e2, p * p, q * q, policy)
    value = cmath.exp(ln - ld)
    bound = abs(value) * math.expm1(tn + td)
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
    ei = cmath.exp(1j * z)
    # allow_zero lifts the pole guard on the numerator products only; their
    # vanishing is a genuine zero of the function, not a pole
    l1, t1 = _log_product_2d(pq * p ** (r - br) / ei, pq, p ** r, policy,
                             pole_guard=not allow_zero)
    l2, t2 = _log_product_2d(ei * p ** br, pq, p ** r, policy)
    l3, t3 = _log_product_2d(pq * q ** br / ei, pq, q ** r, policy,
                             pole_guard=not allow_zero)
    l4, t4 = _log_product_2d(ei * q ** (r - br), pq, q ** r, policy)
    value = cmath.exp(varphi(z, m, params) + l1 - l2 + l3 - l4)
    bound = abs(value) * math.expm1(t1 + t2 + t3 + t4)
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
    pre = cmath.exp(lens_theta_exponent(z, m, params))
    c1, b1 = _pochhammer_raw(cmath.exp(1j * z) * q ** brm, q ** r, policy)
    c2, b2 = _pochhammer_raw(cmath.exp(-1j * z) * q ** (r - brm), q ** r, policy)
    value = pre * c1 * c2
    bound = abs(pre) * (abs(c2) * b1 + abs(c1) * b2)
    return _result(value, bound, with_bound)

