"""Modular brackets, q-Pochhammer symbols, theta functions, and the lens
elliptic gamma function in both of its product conventions.

All infinite products are truncated by term magnitude, at the fixed
limits of :mod:`lenstri.params` (terms below ``TERM_EPSILON``, at most
``MAX_PRODUCT_INDEX`` factors), and carry a geometric tail bound.  One
function, ``_term_count``, counts the terms of every truncation in
lenstri: the products and log series here, and the kappa series and the
rinfstr m-sum in ``models`` and ``verify``.

Every function takes its argument z either as a scalar or as an ndarray
(the lens functions also take an array m, ``lens_gamma_appendix`` an array
``allow_zero``, all broadcast against z); an array is evaluated as one
batch and gives arrays of values and bounds, and a scalar call returns a
Python complex (and float bound).  A batch shares its truncation depth,
taken from its largest |c|, so each element gets at least the terms it
would get alone.

A function makes one kernel call per nome grid: the products that share a
grid (numerator and denominator of ``elliptic_gamma``, the constant and
the e^{+-2iz} products of ``theta4``, the two products per grid of
``lens_gamma_appendix``) are stacked on a new axis 0 of one batch, and
callers stack their own rows the same way (:func:`stack_rows`), so a
weight or a whole integrand is one batch.  The pole guard is per element:
a bool, or a bool array that broadcasts against the batch, so guarded
denominators and unguarded 1/Gamma numerators share one call.

A double product prod_{j,k} (1 - c a^j b^k) is split at |c a^j b^k| =
``_PEEL`` (0.05).  The factors at or above it, a staircase of rows j < J
with row j holding k < K_j (usually one to a few factors), are multiplied
out per element, and the log of that product is taken once.  Every other
factor is off the unit circle by a margin, so the sum of their logs is one
power series in c, -sum_n v_n c^n, whose coefficients depend only on a, b
and the staircase (the exponential series of the elliptic gamma function;
Felder & Varchenko, Adv. Math. 156, 2000); 4-12 terms reach the term
epsilon, and the coefficients are cached.  A single product (q-Pochhammer)
is multiplied out whole.  The kernel lays a block out with the grid on
axis 0 and the batch elements on axis 1 and reduces over axis 0, one whole
row of elements per multiplication; a block holds at most ``_BLOCK``
factors, on both axes, and a longer grid is multiplied out over several
blocks into a running product.  A one-factor grid skips the blocks.  A log is off from sum(log f) by a
multiple of 2 pi i, which is harmless because callers only ever use exp
of a combination of such logs: the logs exist so that exponential
prefactors and several products combine without an intermediate
overflow.  A product is at most exp(sum |c a^j b^k|) in magnitude, so it
can overflow only at arguments far off the real axis; a product that is
not finite in double precision raises NonConvergenceError rather than
passing an inf on, and so does a product argument c that is not finite
(e^{iz} overflowing still further off the axis) and a function value that
is not (an exponential prefactor overflowing).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import (
    MAX_PRODUCT_INDEX,
    TERM_EPSILON,
    DivergentParameterError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
)

# Any product factor closer to zero than this is treated as a pole (or zero)
# hit of a gamma-type function: verification must fail loudly near the
# pole lattice rather than return a huge value.
POLE_FACTOR_EPS = 1e-13

#: most product factors held in memory at once by a batched evaluation
_BLOCK = 2 ** 14

#: double-product factors with |c a^j b^k| at least this are multiplied out
#: (and pole-guarded); the rest are summed as one log series in c
_PEEL = 0.05

# the log of a product that exp can still represent: above _LOG_MAX it
# overflows, below _LOG_MIN it underflows to zero
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_MIN = math.log(np.finfo(float).smallest_subnormal)
#: the least normal double
_NORMAL = float(np.finfo(float).tiny)


def mod_bracket(m: int, r: int) -> int:
    """Representative of m modulo r in {0, ..., r-1}."""
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    return m % r


def bracket_pm(m: int, r: int) -> int:
    """Product of the two modular brackets of m and -m."""
    return mod_bracket(m, r) * mod_bracket(-m, r)


def _term_count(first: float, ratio: float, floor: float, cap: int,
                used: int = 0, what: str = "product") -> int:
    """Number of leading terms of first * ratio**j that are above floor,
    for 0 <= ratio < 1; more than the cap less the terms already used
    raises NonConvergenceError.

    Every truncation counts its terms here: a single product, a
    staircase row of a double product, its log series, the kappa series
    and the rinfstr m-sum.  The count comes from logs (floor / first
    would underflow for first above about 2e307); where a term lands on
    the floor the logs can be off by one, and the count is corrected with
    the terms themselves."""
    def term(j):
        # ratio**j can underflow before first * ratio**j reaches the floor
        # (first near the largest double); then it is taken in two halves
        power = ratio ** j
        if power >= _NORMAL:
            return first * power
        return first * ratio ** (j // 2) * ratio ** (j - j // 2)

    if first <= floor:
        n = 0
    elif ratio == 0.0:
        n = 1
    else:
        n = max(1, math.ceil((math.log(floor) - math.log(first))
                             / math.log(ratio)))
        while n > 1 and term(n - 1) <= floor:
            n -= 1
        while term(n) > floor:
            n += 1
    if n > cap - used:
        raise NonConvergenceError(
            f"{what} needs {used + n} terms, more than {cap}")
    return n


def _finite_top(ac: np.ndarray) -> float:
    """The largest of the magnitudes ac; a product argument that is not
    finite (e^{iz} overflowing far off the real axis) raises
    NonConvergenceError rather than giving a quiet value."""
    top = ac.max(initial=0.0)   # nan if any element is nan
    if not math.isfinite(top):
        raise NonConvergenceError(
            "product argument is not finite in double precision")
    return top


def product_arguments():
    """The context in which callers form product arguments: e^{iz} far off
    the real axis overflows to inf or nan without a warning, and the
    kernels reject it."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _product(c: np.ndarray, grid: np.ndarray, pole_guard):
    """prod_g (1 - c g) over the flat grid, per element of the array c.

    Each block holds at most _BLOCK factors: the grid on axis 0, elements
    of c on axis 1.  pole_guard is a bool or a bool array that broadcasts
    against c.  Where it holds, a factor closer to zero than
    POLE_FACTOR_EPS raises PoleHitError, and a product that underflows to
    zero raises NonConvergenceError; elsewhere a product may vanish (a
    genuine zero).  A product that is not finite in double precision
    raises NonConvergenceError.
    """
    if grid.size == 1:
        return _one_factor(c, grid, pole_guard)
    flat = c.reshape(-1)
    guard = np.full(c.shape, pole_guard, bool).reshape(-1)
    size = max(grid.size, 1)
    rows, cols = min(size, _BLOCK), max(1, _BLOCK // size)
    out = np.ones(flat.shape, complex)
    # one block buffer for the whole call: numpy is several times slower
    # multiplying a broadcast pair into a fresh array than into this one
    buf = np.empty((rows, min(cols, flat.size)), complex)
    # overflow is checked once below, on the finished products
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, cols):
            cb, gb = flat[lo:lo + cols], guard[lo:lo + cols]
            guarded = gb.any()
            for g in range(0, grid.size, rows):
                gg = grid[g:g + rows, None]
                f = buf[:len(gg), :len(cb)]
                np.multiply(gg, cb, out=f)
                np.subtract(1.0, f, out=f)
                if guarded:
                    # |f| >= |Re f|: only a column with a small real part
                    # can hold a small factor
                    near = gb & (np.abs(f.real).min(axis=0) < POLE_FACTOR_EPS)
                    if near.any() and np.abs(f[:, near]).min() < POLE_FACTOR_EPS:
                        raise PoleHitError(
                            "a product factor vanished: evaluation point is "
                            "on (or too close to) the pole/zero lattice")
                out[lo:lo + cols] *= f.prod(axis=0)
    if not np.isfinite(out).all() or (guard & (out == 0)).any():
        raise NonConvergenceError(
            "product overflows or underflows double precision")
    return out.reshape(c.shape)


def _one_factor(c: np.ndarray, grid: np.ndarray, pole_guard):
    """_product over a one-factor grid [g]: 1 - g c per element of c, with
    _product's pole guard and errors, but no blocks or buffer."""
    # grid on axis 0 as in _product's blocks, which numpy multiplies by
    # another loop than a flat pair, rounding a size-1 batch otherwise
    with np.errstate(over="ignore", invalid="ignore"):
        out = 1.0 - np.multiply(grid[:, None], c.reshape(-1),
                                dtype=complex)[0]
    # |f| >= |Re f|: only a factor with a small real part can be small
    near = np.abs(out.real) < POLE_FACTOR_EPS
    if near.any():
        near &= np.broadcast_to(pole_guard, c.shape).reshape(-1)
    if near.any() and np.abs(out[near]).min() < POLE_FACTOR_EPS:
        raise PoleHitError(
            "a product factor vanished: evaluation point is on (or too "
            "close to) the pole/zero lattice")
    if not np.isfinite(out).all():
        raise NonConvergenceError(
            "product overflows or underflows double precision")
    return out.reshape(c.shape)


@lru_cache(maxsize=256)
def _staircase(a: complex, b: complex, rows: tuple, n_terms: int):
    """The peeled grid and the log series of the factors left out.

    rows[j] = K_j is the length of row j of the peeled staircase, whose
    factors are a^j b^k for j < J = len(rows), k < K_j.  Returns the flat
    grid of those factors and the coefficients -v_1..-v_N (N = n_terms) of
    the log of all the other factors,

        sum over the other factors of log(1 - c a^j b^k) = -sum_n v_n c^n,
        v_n = (sum_{j<J} (a^j b^{K_j})^n / (1 - b^n)
               + a^{Jn} / ((1 - a^n)(1 - b^n))) / n.
    """
    ks = np.array(rows, int)
    js = np.arange(len(ks))
    j = np.repeat(js, ks)
    k = np.arange(j.size) - np.repeat(np.cumsum(ks) - ks, ks)
    grid = a ** j * b ** k
    n = np.arange(1, n_terms + 1)
    an, bn = a ** n, b ** n
    ends = (a ** js * b ** ks)[:, None] ** n
    coef = -(ends.sum(axis=0) / (1 - bn)
             + (a ** len(ks)) ** n / ((1 - an) * (1 - bn))) / n
    grid.flags.writeable = coef.flags.writeable = False
    return grid, coef


def _log_product_2d(c, a: complex, b: complex, pole_guard=True):
    """log of prod_{j,k>=0} (1 - c a^j b^k), with a tail bound on the log.

    Requires |a|, |b| < 1.  c is a scalar or an array; the staircase and
    the series length come from its largest |c|.  The factors with
    |c a^j b^k| >= _PEEL (rows j < J, row j holding k < K_j) are multiplied
    out by _product, under its per-element pole guard (a bool or a bool
    array that broadcasts against c); every other factor has |c a^j b^k| <
    _PEEL and goes into one log series in c, summed by Horner.  Returns
    (log_value, log_tail_bound) as arrays of the shape of c (0-d for a
    scalar).  Only exp(log_value) is meaningful: the log of the peeled
    product is taken on the principal branch.
    """
    aa, ab = abs(a), abs(b)
    if aa >= 1.0 or ab >= 1.0:
        raise DivergentParameterError(
            f"product ratios must have magnitude < 1 (got {aa}, {ab})"
        )
    c = np.asarray(c)
    ac = np.abs(c)
    top = _finite_top(ac)
    # a term above the double below _PEEL is one at or above _PEEL
    peel = math.nextafter(_PEEL, 0.0)
    nj = _term_count(top, aa, peel, MAX_PRODUCT_INDEX)
    # the cap bounds the staircase's total factor count, not each row's
    rows, used = [], 0
    for j in range(nj):
        rows.append(_term_count(top * aa ** j, ab, peel, MAX_PRODUCT_INDEX,
                                used))
        used += rows[-1]
    rows = tuple(rows)
    # largest |c a^j b^k| left to the series: the end of a row or row J
    largest = top * max([aa ** j * ab ** k for j, k in enumerate(rows)]
                        + [aa ** nj])
    # N = the terms largest**n, n >= 1, above TERM_EPSILON: counted from
    # n = 0 so that each term is largest**n exactly, and the 1 at n = 0 is
    # dropped (used = -1 keeps it off the cap)
    n_terms = _term_count(1.0, largest, TERM_EPSILON, MAX_PRODUCT_INDEX, -1,
                          "log series") - 1
    grid, coef = _staircase(complex(a), complex(b), rows, n_terms)
    # cut at N, the series of a left-out factor x = c a^j b^k errs by at
    # most |x|^{N+1} / (1 - |x|), and |x|^{N+1} <= min(|c|, TERM_EPSILON)
    # a^j b^k / g_max with g_max the largest left-out a^j b^k; summed over
    # rows j < J and rows j >= J this is the bound below.  It grows with
    # J, so each element gets at least the bound of its own staircase.
    tail = np.minimum(ac, TERM_EPSILON) * (
        (nj + 1) / ((1.0 - _PEEL) * (1.0 - aa) * (1.0 - ab)))
    log = np.zeros(c.shape, complex)
    for w in coef[::-1]:
        log += w
        log *= c
    if grid.size:
        prod = _product(c, grid, pole_guard)
        # unguarded products have genuine zeros (1/Gamma at its zeros): log
        # 0 = -inf, which the caller's exp turns back into 0.  log|p| +
        # i arg p is several times faster than numpy's complex log.
        with np.errstate(divide="ignore", over="ignore"):
            log.real += np.log(np.abs(prod))
        log.imag += np.arctan2(prod.imag, prod.real)
    re = log.real
    if re.max(initial=0.0) > _LOG_MAX or (
            re.min(initial=0.0) < _LOG_MIN
            and (np.broadcast_to(pole_guard, c.shape) & (re < _LOG_MIN)).any()):
        raise NonConvergenceError(
            "product overflows or underflows double precision")
    return log, tail


def _pochhammer_raw(c, a: complex):
    """prod_{j>=0} (1 - c a^j) as a direct product; zeros are allowed.

    c is a scalar or an array; the term count comes from its largest |c|.
    Returns (value, absolute_tail_bound) as arrays of the shape of c (0-d
    for a scalar).
    """
    aa = abs(a)
    if aa >= 1.0:
        raise DivergentParameterError(f"|ratio| must be < 1, got {aa}")
    c = np.asarray(c)
    ac = np.abs(c)
    nj = _term_count(_finite_top(ac), aa, TERM_EPSILON, MAX_PRODUCT_INDEX)
    value = _product(c, a ** np.arange(nj), pole_guard=False)
    rel_tail = 2.0 * np.minimum(ac, TERM_EPSILON) / (1.0 - aa)
    return value, np.abs(value) * np.expm1(rel_tail)


def python_scalar(x):
    """A 0-d numpy result as the Python scalar it holds, so that a scalar
    call returns a Python complex or float; anything else passes through."""
    if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0:
        return x.item()
    return x


def stack_rows(*rows):
    """Arguments of one batched call, one row per product.

    Each row is a tuple of arguments (say z, m, allow_zero); all of them
    broadcast to one shape.  Returns one array per argument, holding the
    rows on a new axis 0, so that a function called on them once gives one
    value per row (and per element of the common shape).
    """
    # a Python scalar has no shape; assigning a row broadcasts it
    shape = np.broadcast_shapes(*{getattr(x, "shape", ()) for row in rows
                                  for x in row})
    out = []
    for column in zip(*rows):
        stacked = np.empty((len(column),) + shape, np.result_type(*column))
        for i, x in enumerate(column):
            stacked[i] = x
        out.append(stacked)
    return tuple(out)


def _result(value, bound, with_bound):
    """The value, and its tail bound if with_bound, of a special function.

    Callers form the value from finite products under np.errstate(over=
    "ignore", invalid="ignore"); a value that is not finite in double
    precision (an exponential prefactor, or the product of several
    factors, overflowing far off the real axis) raises NonConvergenceError
    here rather than passing an inf or nan on."""
    if not np.isfinite(value).all():
        raise NonConvergenceError("value is not finite in double precision")
    value, bound = python_scalar(value), python_scalar(bound)
    return (value, bound) if with_bound else value


def squared_modulus(v):
    """|v|^2 of each element of the finite array v; a square that is not
    finite in double precision (|v| above about 1e154) raises
    NonConvergenceError, as a function value would."""
    with np.errstate(over="ignore"):
        return _result(v.real ** 2 + v.imag ** 2, None, False)


def qpochhammer_inf(x: complex, q: complex, with_bound: bool = False):
    """q-Pochhammer symbol (x; q)_inf = prod_{j>=0} (1 - x q^j), |q| < 1."""
    value, bound = _pochhammer_raw(x, q)
    return _result(value, bound, with_bound)


def theta4(z: complex, p: complex, with_bound: bool = False):
    """Jacobi theta: (p^2;p^2)_inf prod_{n>=1}(1-e^{2iz}p^{2n-1})(1-e^{-2iz}p^{2n-1})."""
    p2 = p * p
    # the constant (p^2; p^2) shares the ratio p^2, so it rides in the batch
    with product_arguments():
        c, = stack_rows((p2,), (np.exp(2j * z) * p,), (np.exp(-2j * z) * p,))
    (c0, cp, cm), (b0, bp, bm) = _pochhammer_raw(c, p2)
    with np.errstate(over="ignore", invalid="ignore"):
        value = c0 * cp * cm
        bound = (abs(cp * cm) * b0 + abs(c0 * cm) * bp + abs(c0 * cp) * bm)
    return _result(value, bound, with_bound)


def elliptic_gamma(z: complex, p: complex, q: complex,
                   with_bound: bool = False):
    """Elliptic gamma function
    Phi(z; p, q) = prod_{j,k>=0} (1 - e^{2iz} p^{2j+1} q^{2k+1})
                                / (1 - e^{-2iz} p^{2j+1} q^{2k+1}).
    """
    if abs(p) >= 1.0 or abs(q) >= 1.0:
        raise DivergentParameterError("|p| and |q| must be < 1")
    with product_arguments():
        e2 = np.exp(2j * z)
        c, = stack_rows((e2 * p * q,), (p * q / e2,))
    (ln, ld), (tn, td) = _log_product_2d(c, p * p, q * q)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(ln - ld)
        bound = np.abs(value) * np.expm1(tn + td)
    return _result(value, bound, with_bound)


def lens_elliptic_gamma_factor(z: complex, m: int, params: NomeParameters,
                               with_bound: bool = False):
    """The (pq, p^r) factor v1(z) = Phi(z + (r/2 - [[m]]) pi sigma; pq, p^r)
    of ``lens_elliptic_gamma``, one elliptic_gamma batch under its pole
    guard and finiteness errors.

    At tau = -conj(sigma) (q = conj p) the other factor is
    v2(z) = 1 / conj v1(conj z), so the lens function is
    v1(z) / conj v1(conj z), and a ratio of it at conjugate points is
    Phi_{r,m}(d + ia) / Phi_{r,m}(d - ia) = |v1(d + ia)|^2 / |v1(d - ia)|^2.
    """
    r = params.r
    shift = (r / 2 - mod_bracket(m, r))
    return elliptic_gamma(z + shift * math.pi * params.sigma,
                          params.p * params.q, params.p ** r, with_bound)


def lens_elliptic_gamma(z: complex, m: int, params: NomeParameters,
                        with_bound: bool = False):
    """Lens elliptic gamma function Phi_{r,m}(z), as the pair of ordinary
    elliptic gamma factors with nomes (pq, p^r) and (pq, q^r) at shifted
    arguments.  Reduces to Phi(z; p, q) for r=1, m=0.
    """
    r = params.r
    p, q = params.p, params.q
    shift = (r / 2 - mod_bracket(m, r))
    v1, b1 = lens_elliptic_gamma_factor(z, m, params, with_bound=True)
    v2, b2 = elliptic_gamma(z - shift * math.pi * params.tau, p * q, q ** r,
                            with_bound=True)
    with np.errstate(over="ignore", invalid="ignore"):
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
                        with_bound: bool = False, allow_zero=False):
    """Lens elliptic gamma function in the exponential-prefactor convention:

    Gamma(z, m) = e^{varphi(z,m)}
        prod_{j,k>=0} (1 - e^{-iz} p^{-[[m]]} (pq)^{j+1} p^{r(k+1)})
                     / (1 - e^{ iz} p^{ [[m]]} (pq)^j     p^{rk})
                   * (1 - e^{-iz} q^{[[m]]-r} (pq)^{j+1} q^{r(k+1)})
                     / (1 - e^{ iz} q^{r-[[m]]} (pq)^j    q^{rk})

    allow_zero (a bool, or a bool array that broadcasts against z and m)
    lifts the pole guard on the numerator products of its elements: their
    vanishing is a genuine zero of the function, not a pole.
    """
    r = params.r
    p, q = params.p, params.q
    pq = p * q
    br = mod_bracket(m, r)
    phi = varphi(z, m, params)
    guard_num = np.logical_not(allow_zero)
    # one stack, cut into the (pq, p^r) and the (pq, q^r) products
    with product_arguments():
        ei = np.exp(1j * z)
        c, guard = stack_rows((pq * p ** (r - br) / ei, guard_num),
                              (ei * p ** br, True),
                              (pq * q ** br / ei, guard_num),
                              (ei * q ** (r - br), True))
    (l1, l2), (t1, t2) = _log_product_2d(c[:2], pq, p ** r, guard[:2])
    (l3, l4), (t3, t4) = _log_product_2d(c[2:], pq, q ** r, guard[2:])
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(phi + l1 - l2 + l3 - l4)
        bound = np.abs(value) * np.expm1(t1 + t2 + t3 + t4)
    return _result(value, bound, with_bound)


def lens_theta_exponent(z: complex, m: int, params: NomeParameters) -> complex:
    """Closed-form exponent phi(z, m) of the lens theta function."""
    r = params.r
    return (params.zeta * (r - 1) * (r + 1) / 3
            - 1j * math.pi * (params.tau + 2) * bracket_pm(m, r)
            - 1j * (z + math.pi) * (r - 1 - 2 * mod_bracket(-m, r))) / (2 * r)


def lens_theta(z: complex, m: int, params: NomeParameters,
               with_bound: bool = False):
    """Lens theta function
    theta(z, m | tau) = e^{phi(z,m)} (e^{iz} q^{[[-m]]}; q^r)_inf
                                     (e^{-iz} q^{r-[[-m]]}; q^r)_inf.
    """
    r = params.r
    q = params.q
    brm = mod_bracket(-m, r)
    with product_arguments():
        c, = stack_rows((np.exp(1j * z) * q ** brm,),
                        (np.exp(-1j * z) * q ** (r - brm),))
    (c1, c2), (b1, b2) = _pochhammer_raw(c, q ** r)
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.exp(lens_theta_exponent(z, m, params))
        value = pre * c1 * c2
        bound = np.abs(pre) * (np.abs(c2) * b1 + np.abs(c1) * b2)
    return _result(value, bound, with_bound)
