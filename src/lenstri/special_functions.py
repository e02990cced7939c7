"""Modular brackets, q-Pochhammer symbols, theta functions, and the lens
elliptic gamma function in both of its product conventions.

All infinite products are truncated by term magnitude, at the fixed
limits of :mod:`lenstri.params` (terms below ``TERM_EPSILON``, at most
``MAX_PRODUCT_INDEX`` factors), and carry a geometric log tail: a bound
on |log| of the product of the factors left out.  A function made of
several products adds their log tails, and ``_result`` alone turns the
sum into an absolute bound, |value| expm1(tail), only for a caller that
asks for it (``with_bound=True``); that is the exact product rule
|v|((1 + e_1)(1 + e_2) - 1) of the factors' bounds e_i = expm1(t_i).
One function, ``_term_count``, counts the terms of every truncation in
lenstri: the products and log series here, and the kappa series and the
rinfstr m-sum in ``models`` and ``verify``.

Every function takes its argument z either as a scalar or as an ndarray
(the lens functions also take an array m, ``lens_gamma_appendix`` an array
``allow_zero``, all broadcast against z); an array is evaluated as one
batch and gives arrays of values and bounds, and a scalar call returns a
Python complex (and float bound).  A batch shares its truncation depth,
taken from its largest |c|, so each element gets at least the terms it
would get alone; both product kernels, ``_log_product_2d`` and
``_pochhammer_raw``, can also split a batch into truncation groups
(``_by_truncation``), each of which gets the values it gets alone, as a
sweep's star-triangle, master, iconst and inversion samples do in the
double-product kernel and its thtfunct samples in ``lens_theta``.  numpy
evaluates a complex product whose second operand is a temporary array of
256 KiB or more in place of that temporary, with its factors swapped,
which rounds otherwise; the lens gamma functions shift their phases by
gathered nome powers through one helper (``_shifted``) that names the
gathered operand, so that their rounding does not depend on the batch
size.

The gamma kernels take the phase of their argument rather than z:
``_elliptic_gamma``, ``_lens_factor`` and ``_lens_gamma`` the phase
e^{2iz}, ``_lens_gamma_appendix`` e^{iz} beside z (which its exponent
prefactor needs), and they return the log of the value (``_lens_gamma``
those of its two factors) and its log tail.  A caller whose rows are
(constant) +- (node) forms each row's phase as a constant times a phase
per node, so an integrand takes one exp per node to build its arguments,
and it adds the logs of its rows and leaves log space with one exp per
value.  A public function computes its phase with one exp and
exponentiates the kernel's log (``_exp_result``; ``lens_elliptic_gamma``
each factor's, and multiplies them).

A function makes one kernel call per nome grid: the products that share a
grid (numerator and denominator of ``elliptic_gamma``, the constant and
the e^{+-2iz} products of ``theta4``, the two products per grid of
``lens_gamma_appendix``) are stacked on a new axis 0 of one batch, and
callers lay their own rows out the same way (:func:`stack_rows`, or, for
rows of several shapes, one flat argument written through reshaped views,
as ``models._edge_logs`` writes a star's edge rows and
``verify.master_integrand`` its Gamma rows), so a weight or a whole
integrand is one batch.  The pole guard is per element:
a bool, or a bool array that broadcasts against the batch, so guarded
denominators and unguarded 1/Gamma numerators (or Q's unguarded
numerators, ``models._q_products``) share one call.  It is checked factor
by factor, for every gamma-type product, in ``_product`` alone.

A double product prod_{j,k} (1 - c a^j b^k) is split at |c a^j b^k| =
``_PEEL`` (0.05).  The factors at or above it, a staircase of rows j < J
with row j holding k < K_j (usually one to a few factors), are multiplied
out per element, and the log of that product is taken once.  Every other
factor is off the unit circle by a margin, so the sum of their logs is one
power series in c, -sum_n v_n c^n, whose coefficients depend only on a, b
and the staircase (the exponential series of the elliptic gamma function;
Felder & Varchenko, Adv. Math. 156, 2000); 4-12 terms reach the term
epsilon, and the coefficients are cached.  With b = 0 it is a single
product in log form, peeled the same way, as the q-limit weights take it
(``models._q_products``); the public q-Pochhammer functions multiply a
single product out whole (``_pochhammer_raw``).  The kernel lays a block
out with the whole grid on axis 0 and the batch elements on axis 1 and
reduces over axis 0, one whole row of elements per multiplication; a
call's n elements are cut into max(1, n // cols) blocks of even size, cols
being as many elements as fit in ``_BLOCK`` factors, and at least one
(``MAX_PRODUCT_INDEX`` keeps every grid below ``_BLOCK``), so that no
block holds one element beside others and a product's value does not
depend on where a call's block boundaries fall.  A one-factor grid skips
the blocks.  A log is off from sum(log f) by a multiple of 2 pi i, which
is harmless because callers only ever use exp of a combination of such
logs: the logs exist so that exponential prefactors and several products
combine without an intermediate overflow.  A product is at most
exp(sum |c a^j b^k|) in magnitude, so it can overflow only at arguments
far off the real axis; a multiplied-out product that is not finite in
double precision raises NonConvergenceError rather than passing an inf
into its log, and so does a product argument c that is not finite (e^{iz}
overflowing still further off the axis).  A log is not held to the
double range; its value is, where it leaves log space (``_exp_result``):
a value past the largest double and a finite log whose value underflows
to 0 both raise NonConvergenceError, and a log of -inf, a genuine zero,
gives an exact 0.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import mul

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

#: product factors per block of a batched evaluation: a block of a call
#: that fills several holds from this to twice this many (``_product``)
_BLOCK = 2 ** 14

#: double-product factors with |c a^j b^k| at least this are multiplied out
#: (and pole-guarded); the rest are summed as one log series in c
_PEEL = 0.05

#: the least normal double
_NORMAL = float(np.finfo(float).tiny)
#: two units of the least subnormal double 2^-1074, one per part of a
#: complex value: what rounding to the subnormal grid can take from a
#: value below the least normal double (``_result``)
_SUBNORMAL_ROUNDING = 2.0 ** -1073


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

    Each block holds the whole grid on axis 0 and, on axis 1, a run of
    elements of c: the n elements are cut into max(1, n // cols) blocks of
    even size (their sizes differ by one at most), cols being the elements
    that fit in _BLOCK factors (one at least, for a grid longer than
    _BLOCK, which only a raised MAX_PRODUCT_INDEX gives).  So no block
    holds one element beside others (numpy multiplies a single element by
    another loop than a wider block, rounding otherwise), and a product's
    value does not depend on where a call's block boundaries fall.
    pole_guard is a bool or a bool array that broadcasts against c.  Where
    it holds, a factor closer to zero than POLE_FACTOR_EPS raises
    PoleHitError, and a product that underflows to zero raises
    NonConvergenceError; elsewhere a product may vanish (a genuine zero).
    A product that is not finite in double precision, or whose modulus
    is not, raises NonConvergenceError.
    """
    if grid.size == 1:
        return _one_factor(c, grid, pole_guard)
    flat = c.reshape(-1)
    # a plain False guard (zeros allowed everywhere) needs no guard array
    guard = (None if pole_guard is False
             else np.full(c.shape, pole_guard, bool).reshape(-1))
    cols = max(1, _BLOCK // max(grid.size, 1))
    blocks = max(1, flat.size // cols)
    edges = [flat.size * i // blocks for i in range(blocks + 1)]
    out = np.empty(flat.shape, complex)
    # one block buffer for the whole call: numpy is several times slower
    # multiplying a broadcast pair into a fresh array than into this one.
    # Each block is a contiguous view of it, whatever its width
    buf = np.empty(grid.size * -(-flat.size // blocks), complex)
    # overflow is checked once below, on the finished products
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            f = buf[:grid.size * (hi - lo)].reshape(grid.size, hi - lo)
            np.multiply(grid[:, None], flat[lo:hi], out=f)
            np.subtract(1.0, f, out=f)
            gb = None if guard is None else guard[lo:hi]
            if gb is not None and gb.any():
                # |f| >= |Re f|: only a column with a small real part
                # can hold a small factor
                near = gb & (np.abs(f.real).min(axis=0) < POLE_FACTOR_EPS)
                if near.any() and np.abs(f[:, near]).min() < POLE_FACTOR_EPS:
                    raise PoleHitError(
                        "a product factor vanished: evaluation point is "
                        "on (or too close to) the pole/zero lattice")
            f.prod(axis=0, out=out[lo:hi])
        # |p| too: it can overflow with both parts of p finite, and the log
        # kernel takes log|p|, whose +inf would turn a quotient into a
        # false zero
        if not np.isfinite(np.abs(out)).all() or (
                guard is not None and (guard & (out == 0)).any()):
            raise NonConvergenceError(
                "product overflows or underflows double precision")
    return out.reshape(c.shape)


def _one_factor(c: np.ndarray, grid: np.ndarray, pole_guard):
    """_product over a one-factor grid [g]: 1 - g c per element of c, with
    _product's pole guard and errors, but no blocks or buffer."""
    # grid on axis 0 as in _product's blocks, which numpy multiplies by
    # another loop than a flat pair, rounding a size-1 batch otherwise
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(grid[:, None], c.reshape(-1), dtype=complex)[0]
        np.subtract(1.0, out, out=out)
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


def _truncation(top: float, aa: float, ab: float):
    """The staircase rows (K_0, ..., K_{J-1}) and the log series length N
    of a double product of ratios of magnitudes aa, ab whose largest |c|
    is top (see ``_log_product_2d``)."""
    # a term above the double below _PEEL is one at or above _PEEL
    peel = math.nextafter(_PEEL, 0.0)
    nj = _term_count(top, aa, peel, MAX_PRODUCT_INDEX)
    # the cap bounds the staircase's total factor count, not each row's
    rows, used = [], 0
    for j in range(nj):
        rows.append(_term_count(top * aa ** j, ab, peel, MAX_PRODUCT_INDEX,
                                used))
        used += rows[-1]
    # largest |c a^j b^k| left to the series: the end of a row or row J
    largest = top * max([aa ** j * ab ** k for j, k in enumerate(rows)]
                        + [aa ** nj])
    # N = the terms largest**n, n >= 1, above TERM_EPSILON: counted from
    # n = 0 so that each term is largest**n exactly, and the 1 at n = 0 is
    # dropped (used = -1 keeps it off the cap)
    return tuple(rows), _term_count(1.0, largest, TERM_EPSILON,
                                    MAX_PRODUCT_INDEX, -1, "log series") - 1


def _log_product_2d(c, a: complex, b: complex, pole_guard=True,
                    group_axis=None):
    """log of prod_{j,k>=0} (1 - c a^j b^k), with a tail bound on the log.

    Requires |a|, |b| < 1.  c is a scalar or an array; the staircase and
    the series length come from its largest |c|.  The factors with
    |c a^j b^k| >= _PEEL (rows j < J, row j holding k < K_j) are multiplied
    out by _product, under its per-element pole guard (a bool or a bool
    array that broadcasts against c); every other factor has |c a^j b^k| <
    _PEEL and goes into one log series in c, summed by Horner.  Returns
    (log_value, log_tail_bound) as arrays of the shape of c (0-d for a
    scalar).  Only exp(log_value) is meaningful: the log of the peeled
    product is taken on the principal branch.  The log is not checked
    against the double range; the exp that leaves log space checks its
    value (``_exp_result``).  group_axis: each slice of c along that axis
    is a truncation group (``_by_truncation``).
    """
    aa, ab = abs(a), abs(b)
    if aa >= 1.0 or ab >= 1.0:
        raise DivergentParameterError(
            f"product ratios must have magnitude < 1 (got {aa}, {ab})"
        )

    def evaluate(c, ac, guard, key):
        return _truncated_log(c, ac, a, b, guard, key)
    return _by_truncation(np.asarray(c), group_axis, pole_guard,
                          lambda top: _truncation(top, aa, ab), evaluate)


def _by_truncation(c, group_axis, pole_guard, truncation, evaluate):
    """A product kernel over c, by truncation.  truncation(top) gives the
    key of the truncation at the largest |c| top.  evaluate(c, ac,
    pole_guard, key) gives the (complex, float) arrays of the shape of its
    c (of magnitudes ac) at that key.

    Without group_axis, or with one group, the whole of c takes the key
    of its largest |c|.  Otherwise each slice of c along that axis is a
    truncation group: it takes the key of its own largest |c|, and gets
    the values it gets as a call of its own.  The groups of one key are
    evaluated together, since ``_product`` leaves no element alone in a
    block of a wider call; only a group of one element is evaluated alone
    (numpy multiplies a single element by another loop, rounding
    otherwise)."""
    ac = np.abs(c)
    if group_axis is None or c.shape[group_axis] == 1:
        return evaluate(c, ac, pole_guard, truncation(_finite_top(ac)))
    axis = group_axis % c.ndim
    tops = ac.max(axis=tuple(i for i in range(c.ndim) if i != axis))
    _finite_top(tops)
    lone = c.size == c.shape[axis]
    runs = {}
    for g, top in enumerate(tops.tolist()):
        runs.setdefault((truncation(top), g if lone else -1), []).append(g)
    if len(runs) == 1:
        (key, _), = runs
        return evaluate(c, ac, pole_guard, key)
    out = np.empty(c.shape, complex), np.empty(c.shape)
    if np.ndim(pole_guard):
        pole_guard = np.broadcast_to(pole_guard, c.shape)
    for (key, _), groups in runs.items():
        index = (slice(None),) * axis + (groups,)
        out[0][index], out[1][index] = evaluate(
            c[index], ac[index],
            pole_guard[index] if np.ndim(pole_guard) else pole_guard, key)
    return out


def _truncated_log(c, ac, a: complex, b: complex, pole_guard, truncation):
    """_log_product_2d of the elements c (of magnitudes ac) at the
    truncation (rows, n_terms)."""
    aa, ab = abs(a), abs(b)
    rows, n_terms = truncation
    nj = len(rows)
    grid, coef = _staircase(complex(a), complex(b), rows, n_terms)
    # cut at N, the series of a left-out factor x = c a^j b^k errs by at
    # most |x|^{N+1} / (1 - |x|), and |x|^{N+1} <= min(|c|, TERM_EPSILON)
    # a^j b^k / g_max with g_max the largest left-out a^j b^k; summed over
    # rows j < J and rows j >= J this is the bound below.  It grows with
    # J, so each element gets at least the bound of its own staircase.
    # Horner, from the last coefficient (none: a zero log series); a 0-d
    # c gives a 0-d array, which the steps below update in place
    log = (np.asarray(c * coef[-1]) if n_terms
           else np.zeros(c.shape, complex))
    for w in coef[-2::-1]:
        log += w
        log *= c
    tail = np.empty(c.shape)
    if grid.size:
        prod = _product(c, grid, pole_guard)
        # unguarded products have genuine zeros (1/Gamma at its zeros): log
        # 0 = -inf, which the caller's exp turns back into 0.  log|p| +
        # i arg p is several times faster than numpy's complex log; the
        # tail's buffer takes both parts first
        np.abs(prod, out=tail)
        with np.errstate(divide="ignore", over="ignore"):
            log.real += np.log(tail, out=tail)
        log.imag += np.arctan2(prod.imag, prod.real, out=tail)
    np.minimum(ac, TERM_EPSILON, out=tail)
    tail *= (nj + 1) / ((1.0 - _PEEL) * (1.0 - aa) * (1.0 - ab))
    return log, tail


def _pochhammer_raw(c, a: complex, group_axis=None):
    """prod_{j>=0} (1 - c a^j) as a direct product; zeros are allowed.

    c is a scalar or an array; the term count comes from its largest |c|,
    or with group_axis that of each truncation group, each slice of c
    along that axis (``_by_truncation``).  Returns (value, log_tail) as
    arrays of the shape of c (0-d for a scalar): log_tail bounds |log| of
    the product of the factors left out.
    """
    aa = abs(a)
    if aa >= 1.0:
        raise DivergentParameterError(f"|ratio| must be < 1, got {aa}")

    def evaluate(c, ac, guard, nj):
        return (_product(c, a ** np.arange(nj), guard),
                2.0 * np.minimum(ac, TERM_EPSILON) / (1.0 - aa))
    return _by_truncation(
        np.asarray(c), group_axis, False,
        lambda top: _term_count(top, aa, TERM_EPSILON, MAX_PRODUCT_INDEX),
        evaluate)


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


def _result(value, tail, with_bound):
    """The value of a special function, and with_bound its tail bound.

    tail bounds |log| of the product of every factor the truncation left
    out, summed over the products of the value: the exact value is
    value * e^d with |d| <= tail, so |value| expm1(tail) bounds the
    absolute error.  This is the one place that forms that bound, and only
    when with_bound is asked for.  Callers form the value from finite
    products or logs under np.errstate(over="ignore", invalid="ignore"); a
    value that is not finite in double precision (an exponential prefactor,
    the product of several factors or the exp of a log overflowing far off
    the real axis) raises NonConvergenceError here rather than passing an
    inf or nan on.  A value formed from logs is also checked for underflow,
    by ``_exp_result``.  A nonzero value below the least normal double
    carries fewer digits than its relative tail can see: each part is
    rounded to the subnormal grid, so its bound adds one unit of the least
    subnormal per part (``_SUBNORMAL_ROUNDING``)."""
    if not np.isfinite(value).all():
        raise NonConvergenceError("value is not finite in double precision")
    if not with_bound:
        return python_scalar(value)
    size = np.abs(value)
    bound = size * np.expm1(tail) + np.where(
        (size > 0) & (size < _NORMAL), _SUBNORMAL_ROUNDING, 0.0)
    return python_scalar(value), python_scalar(bound)


def _exp_result(log, tail, with_bound):
    """``_result`` of exp(log), the one exponential of a value formed as a
    sum of logs (real or complex); log may also be a tuple of such sums,
    whose exps are multiplied, each factor rounding at the size of its own
    log.  Here a log-space value meets the double range: past the largest
    double it is not finite and ``_result`` raises NonConvergenceError,
    and a finite log whose value underflows to 0 raises it too.  A log of
    -inf, a genuine zero, gives an exact 0."""
    logs = log if isinstance(log, tuple) else (log,)
    with np.errstate(over="ignore", invalid="ignore"):
        # mul, not np.multiply: numpy rounds a product of two complex
        # scalars otherwise than its ufunc does
        value = reduce(mul, map(np.exp, logs))
    zero = value == 0
    if zero.any() and (zero & np.isfinite(sum(logs))).any():
        raise NonConvergenceError("value underflows double precision")
    return _result(value, tail, with_bound)


def _phase(z, k: int):
    """e^{ikz}, the phase of a product argument; far off the real axis it
    overflows to inf or nan, which the kernels reject."""
    with product_arguments():
        return np.exp(k * 1j * z)


def qpochhammer_inf(x: complex, q: complex, with_bound: bool = False):
    """q-Pochhammer symbol (x; q)_inf = prod_{j>=0} (1 - x q^j), |q| < 1."""
    return _result(*_pochhammer_raw(x, q), with_bound)


def theta4(z: complex, p: complex, with_bound: bool = False):
    """Jacobi theta: (p^2;p^2)_inf prod_{n>=1}(1-e^{2iz}p^{2n-1})(1-e^{-2iz}p^{2n-1})."""
    p2 = p * p
    # the constant (p^2; p^2) shares the ratio p^2, so it rides in the batch
    with product_arguments():
        c, = stack_rows((p2,), (np.exp(2j * z) * p,), (np.exp(-2j * z) * p,))
    (c0, cp, cm), (t0, tp, tm) = _pochhammer_raw(c, p2)
    with np.errstate(over="ignore", invalid="ignore"):
        value = c0 * cp * cm
    return _result(value, t0 + tp + tm, with_bound)


def _elliptic_gamma(e2, p: complex, q: complex, group_axis=None):
    """log ``elliptic_gamma`` at the phase e2 = e^{2iz}, and its log tail;
    group_axis (negative): the axis of e2 whose slices are truncation
    groups (``_log_product_2d``)."""
    if abs(p) >= 1.0 or abs(q) >= 1.0:
        raise DivergentParameterError("|p| and |q| must be < 1")
    pq = p * q
    c = np.empty((2,) + np.shape(e2), complex)
    with product_arguments():
        np.multiply(e2, pq, out=c[:1])
        np.divide(pq, e2, out=c[1:])
    (ln, ld), (tn, td) = _log_product_2d(c, p * p, q * q,
                                         group_axis=group_axis)
    return ln - ld, tn + td


def elliptic_gamma(z: complex, p: complex, q: complex,
                   with_bound: bool = False):
    """Elliptic gamma function
    Phi(z; p, q) = prod_{j,k>=0} (1 - e^{2iz} p^{2j+1} q^{2k+1})
                                / (1 - e^{-2iz} p^{2j+1} q^{2k+1}).
    """
    return _exp_result(*_elliptic_gamma(_phase(z, 2), p, q), with_bound)


@lru_cache(maxsize=32)
def _lens_shifts(params: NomeParameters):
    """The phase factors p^{r - 2[[m]]} and q^{2[[m]] - r} of the two
    factors of ``lens_elliptic_gamma``, per residue [[m]] = 0..r-1,
    read-only: m takes a few values over a whole batch, so each factor is
    formed once per nomes and gathered."""
    r = params.r
    j = np.arange(r)
    out = params.p ** (r - 2 * j), params.q ** (2 * j - r)
    for a in out:
        a.flags.writeable = False
    return out


def _shifted(x, powers, index):
    """x times powers[index], a product argument whose phase is shifted by
    nome powers gathered per residue [[m]].  The gathered operand is
    named: numpy evaluates a product whose second operand is a temporary
    of 256 KiB or more in place of that temporary, with the factors
    swapped, which rounds a complex product otherwise (a fused
    multiply-add); a scalar x times a scalar power keeps numpy's scalar
    product, which np.multiply would not.  It is freed on return, before
    the kernel runs, as a temporary would be."""
    shift = powers[index]
    with product_arguments():
        return x * shift


def _lens_factor(e2, m, params: NomeParameters, group_axis=None):
    """log of the (pq, p^r) factor v1 of ``lens_elliptic_gamma`` at the
    phase e2 = e^{2iz}, and its log tail.  The shift of its argument by
    (r/2 - [[m]]) pi sigma multiplies the phase by p^{r - 2[[m]]}."""
    r, p = params.r, params.p
    return _elliptic_gamma(
        _shifted(e2, _lens_shifts(params)[0], mod_bracket(m, r)),
        p * params.q, p ** r, group_axis)


def _lens_gamma(e2, m, params: NomeParameters, group_axis=None):
    """The logs of the two factors of ``lens_elliptic_gamma`` at the phase
    e2 = e^{2iz}, each with its log tail: v1 (``_lens_factor``), and v2
    over (pq, q^r) at the phase times q^{2[[m]] - r}."""
    r, q = params.r, params.q
    e2q = _shifted(e2, _lens_shifts(params)[1], mod_bracket(m, r))
    return (_lens_factor(e2, m, params, group_axis),
            _elliptic_gamma(e2q, params.p * q, q ** r, group_axis))


def lens_elliptic_gamma(z: complex, m: int, params: NomeParameters,
                        with_bound: bool = False):
    """Lens elliptic gamma function Phi_{r,m}(z), as the pair of ordinary
    elliptic gamma factors with nomes (pq, p^r) and (pq, q^r) at shifted
    arguments.  Reduces to Phi(z; p, q) for r=1, m=0.
    """
    (l1, t1), (l2, t2) = _lens_gamma(_phase(z, 2), m, params)
    # the product of the factors' values: each rounds at the size of its
    # own log
    return _exp_result((l1, l2), t1 + t2, with_bound)


def varphi(z: complex, m: int, params: NomeParameters) -> complex:
    """Exponent prefactor of the appendix-convention lens gamma function:
    (-2 eta - 2iz + 2 zeta ([[m]] - [[-m]]) / 3) [[m]]_pm / (4r).
    """
    r = params.r
    br, brm = mod_bracket(m, r), mod_bracket(-m, r)
    return (-2 * params.eta - 2j * z
            + 2 * params.zeta * (br - brm) / 3) * (br * brm) / (4 * r)


def _lens_gamma_appendix(z, ei, m, params: NomeParameters, allow_zero=False,
                         group_axis=None):
    """log ``lens_gamma_appendix`` at z and its phase ei = e^{iz}, and its
    log tail; a genuine zero (allow_zero) has the log -inf.  group_axis
    (negative): the axis of z whose slices are truncation groups
    (``_log_product_2d``)."""
    r = params.r
    p, q = params.p, params.q
    pq = p * q
    br = mod_bracket(m, r)
    # m takes a few values over a whole batch: each power once, gathered
    pw, qw = p ** np.arange(r + 1), q ** np.arange(r + 1)
    guard_num = np.logical_not(allow_zero)
    # one stack, cut into the (pq, p^r) and the (pq, q^r) products
    with product_arguments():
        inv = pq / ei
    c, guard = stack_rows((_shifted(inv, pw, r - br), guard_num),
                          (_shifted(ei, pw, br), True),
                          (_shifted(inv, qw, br), guard_num),
                          (_shifted(ei, qw, r - br), True))
    (l1, l2), (t1, t2) = _log_product_2d(c[:2], pq, p ** r, guard[:2],
                                         group_axis)
    (l3, l4), (t3, t4) = _log_product_2d(c[2:], pq, q ** r, guard[2:],
                                         group_axis)
    return varphi(z, m, params) + l1 - l2 + l3 - l4, t1 + t2 + t3 + t4


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
    return _exp_result(*_lens_gamma_appendix(z, _phase(z, 1), m, params,
                                             allow_zero), with_bound)


@lru_cache(maxsize=32)
def _lens_theta_residues(params: NomeParameters):
    """What the lens theta function takes from m, per residue [[m]] =
    0..r-1, read-only: the powers q^{[[-m]]} and q^{r-[[-m]]} of its
    product arguments, and c_m = zeta (r-1)(r+1)/3 - i pi (tau+2) [[m]]_pm
    and k_m = r - 1 - 2[[-m]] of its exponent (``lens_theta_exponent``).
    m takes a few values over a whole batch, so each is formed once per
    nomes and gathered."""
    r = params.r
    j = np.arange(r)
    brm = -j % r
    qw = params.q ** np.arange(r + 1)
    out = (qw[brm], qw[r - brm],
           params.zeta * (r - 1) * (r + 1) / 3
           - 1j * math.pi * (params.tau + 2) * (j * brm),
           r - 1 - 2 * brm)
    for a in out:
        a.flags.writeable = False
    return out


def lens_theta_exponent(z: complex, m: int, params: NomeParameters) -> complex:
    """Closed-form exponent phi(z, m) of the lens theta function:
    (zeta (r-1)(r+1)/3 - i pi (tau+2) [[m]]_pm - i (z + pi)(r - 1 - 2[[-m]]))
    / (2r)."""
    *_, c, k = _lens_theta_residues(params)
    j = mod_bracket(m, params.r)
    return python_scalar((c[j] - 1j * (z + math.pi) * k[j]) / (2 * params.r))


def lens_theta(z: complex, m: int, params: NomeParameters,
               with_bound: bool = False, group_axis=None):
    """Lens theta function
    theta(z, m | tau) = e^{phi(z,m)} (e^{iz} q^{[[-m]]}; q^r)_inf
                                     (e^{-iz} q^{r-[[-m]]}; q^r)_inf.

    group_axis (negative): the axis of z whose slices are truncation
    groups, each evaluated as a call of its own (``_pochhammer_raw``).
    """
    r = params.r
    qp, qm, _, _ = _lens_theta_residues(params)
    j = mod_bracket(m, r)
    # both products' arguments in one batch, written in place
    c = np.empty((2,) + np.broadcast(z, j).shape, complex)
    with product_arguments():
        np.multiply(np.exp(1j * z), qp[j], out=c[0, ...])
        np.multiply(np.exp(-1j * z), qm[j], out=c[1, ...])
    (c1, c2), (t1, t2) = _pochhammer_raw(c, params.q ** r, group_axis)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(lens_theta_exponent(z, m, params)) * c1 * c2
    return _result(value, t1 + t2, with_bound)
