"""Error-controlled integration and summation primitives.

Periodic integrals use the trapezoid rule with node doubling (spectrally
accurate for periodic analytic integrands, and nested nodes are reused).
For such integrands the error squares with each doubling (Trefethen &
Weideman, SIAM Rev. 56, 2014), so the doubling stops at the first change
within tol that either follows another change within tol or predicts,
as change^2 / previous change, a next change below rounding (2^-52); the
first condition alone never stops later than that.  An even integrand
(``even=True``: f(z) = f(period - z), or f(-n) = f(n) for a bilateral
sum) is evaluated at one point of each mirror pair of the same nested
nodes, and the node and term counts count the points evaluated.
Real-line integrals and bilateral sums support a fitted power-law tail
correction for slowly decaying integrands/terms.  Accumulation order is
fixed (numpy sums over each set of nodes, center-out for sums), so a
result depends only on its inputs, never on the run.

The integrators call ``f`` one node at a time by default.  With
``vectorized=True`` (the convention of ``scipy.integrate.solve_ivp``),
``f`` takes a 1-d float array of nodes and returns the array of its values
at those nodes.  ``periodic_integrate`` calls it once on the nodes of its
first level and the two refinements after it, which the stop rule always
needs, concatenated in level order, then once per later level;
``line_integrate`` calls it once per Gauss-Legendre panel set or cutoff
pair.  Both modes visit the same nodes in the same order and take the same
refinement decisions from the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .params import InvalidParameterError, NonConvergenceError

_GAUSS_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
#: a predicted next change below this is lost in the rounding of the sum
_ROUNDING = 2.0 ** -52


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float     # |change| at the last refinement, scaled by max(1, |value|)
    nodes_used: int
    converged: bool


@dataclass(frozen=True)
class SumResult:
    value: complex
    tail_bound: float         # scaled by max(1, |value|)
    terms_used: int
    converged: bool


def _scaled(err: float, value: complex) -> float:
    return err / max(1.0, abs(value))


def _values(f, nodes: np.ndarray, vectorized: bool) -> np.ndarray:
    """f at each node: one call on the whole node array, or one per node."""
    if vectorized:
        return np.asarray(f(nodes))
    return np.array([f(x) for x in nodes.tolist()])


def _mirror_half(index: np.ndarray, total: int):
    """The indices k of ``index`` with k <= total - k, one of each mirror
    pair k <-> total - k (mod total) of a circle of ``total`` nodes, and the
    weight of each: 2 for a pair, 1 for a node that is its own mirror."""
    half = index[2 * index <= total]
    own = (half == 0) | (2 * half == total)
    return half, np.where(own, 1.0, 2.0)


def periodic_integrate(f: Callable[[float], complex], period: float, tol: float,
                       min_nodes: int = 16, max_nodes: int = 2 ** 15,
                       vectorized: bool = False,
                       even: bool = False) -> QuadratureResult:
    """Integrate a smooth periodic function over one period.

    Equally spaced trapezoid sums with node-count doubling.  The sum stops
    at the first refinement whose change is within tol (relative to
    max(1, |value|)) and whose next change will be too: either the
    previous change was already within tol, or the change squared over
    the previous change, the next change predicted by the squaring of the
    error at each doubling, is below rounding (_ROUNDING).
    The rule cannot stop before the second refinement, so f gets the nodes
    of the first level and of the two refinements after it (fewer if
    max_nodes ends the doubling sooner) in one call, in level order, and
    each later level's nodes in a call of its own; each level is summed
    over its own slice of the values, as if it had been a call alone.
    With even=True, f(z) = f(period - z) is taken on trust and f is
    evaluated at one node of each mirror pair, the other counted twice;
    nodes_used counts the nodes evaluated.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    def level_sums(levels):
        """Sum of f and node count of each level (index, total), over its
        nodes index * period / total, all levels in one call to f."""
        nodes, weights = [], []
        for index, total in levels:
            w = 1.0
            if even:
                index, w = _mirror_half(index, total)
            nodes.append(index * (period / total))
            weights.append(w)
        values = _values(f, np.concatenate(nodes), vectorized)
        cuts = np.cumsum([x.size for x in nodes])[:-1]
        return [((v * w).sum().item(), x.size)
                for v, w, x in zip(np.split(values, cuts), weights, nodes)]

    def levels():
        """Sum and node count of each level in turn.  The rule cannot stop
        before the second refinement, so the first level and the two
        refinements after it go to f as one call."""
        first, n = [(np.arange(min_nodes), min_nodes)], min_nodes
        while len(first) < 3 and n < max_nodes:
            n *= 2
            first.append((np.arange(1, n, 2), n))
        yield from level_sums(first)
        while n < max_nodes:
            n *= 2
            yield from level_sums([(np.arange(1, n, 2), n)])

    sums = levels()
    n = min_nodes
    total, used = next(sums)
    prev = period * total / n
    cur, err, last = prev, math.inf, None
    for new, count in sums:
        total, used = total + new, used + count
        n *= 2
        cur = period * total / n
        err = _scaled(abs(cur - prev), cur)
        # one small change alone can be a fluke before the geometric regime
        # sets in; a second one, or a predicted next change below
        # rounding, shows that regime
        if err <= tol and last is not None and (
                last <= tol or err * err <= _ROUNDING * last):
            return QuadratureResult(cur, err, used, True)
        prev, last = cur, err
    # out of nodes: the last refinement and the last change it made
    return QuadratureResult(cur, err, used, False)


def _gauss_panels(f, lo: float, hi: float, panel_width: float,
                  vectorized: bool = False) -> complex:
    """Fixed-order Gauss-Legendre panels over [lo, hi], deterministic order."""
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    vals = _values(f, nodes.ravel(), vectorized).reshape(nodes.shape)
    return complex((half * (vals * _GL_WEIGHTS).sum(axis=1)).sum())


def line_integrate(f: Callable[[float], complex], tol: float,
                   tail_exponent_hint: Optional[float] = None,
                   initial_cutoff: float = 8.0,
                   max_cutoff: float = 4096.0,
                   panel_width: float = 2.0,
                   vectorized: bool = False) -> QuadratureResult:
    """Integrate f over the real line.

    Integrates on [-X, X] with Gauss-Legendre panels and doubles X until
    stable; a power-law tail correction int_X^inf c x^{-s} dx ~ f(X) X/(s-1)
    is added on each side, with s taken from the hint or fitted from |f| at
    the last two cutoffs.  With vectorized=True, f is called once per panel
    set and once per pair of cutoff points +-X, on their node array.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    panels = lambda lo, hi, width: _gauss_panels(f, lo, hi, width, vectorized)
    edge_values = lambda x: _values(f, np.array([x, -x]), vectorized).tolist()
    X = initial_cutoff
    # refine the panel width on the core interval first: sharp structure
    # lives there, and extending the cutoff alone would never resolve it
    pw = panel_width
    core = panels(-X, X, pw)
    nodes = int(2 * X / pw) * _GAUSS_ORDER
    while True:
        finer = panels(-X, X, pw / 2)
        nodes += int(4 * X / pw) * _GAUSS_ORDER
        if _scaled(abs(finer - core), finer) <= tol / 2:
            core = finer
            break
        core, pw = finer, pw / 2
        if pw < panel_width / 512:
            raise NonConvergenceError(
                "core integral not resolved even at the finest panel width")
    panel_width = pw / 2
    prev_est = None
    fp, fm = edge_values(X)
    prev_edge = abs(fp) + abs(fm)
    while X <= max_cutoff:
        X2 = 2 * X
        core = core + panels(X, X2, panel_width) + panels(-X2, -X, panel_width)
        nodes += int(2 * X / panel_width) * _GAUSS_ORDER
        fp, fm = edge_values(X2)
        edge = abs(fp) + abs(fm)
        if tail_exponent_hint is not None:
            # hint is the signed power of the decay, |f| ~ x^hint
            s = abs(tail_exponent_hint)
        elif edge > 0 and prev_edge > 0:
            s = math.log(prev_edge / edge) / math.log(2.0)
        else:
            s = math.inf
        if s <= 1.0:
            raise NonConvergenceError(
                f"no detectable decay: fitted tail exponent {s:.3f} <= 1")
        correction = (fp + fm) * X2 / (s - 1.0) if math.isfinite(s) else 0.0
        est = core + correction
        if prev_est is not None:
            err = _scaled(abs(est - prev_est), est)
            if err <= tol:
                return QuadratureResult(est, err, nodes, True)
        prev_est, prev_edge, X = est, edge, X2
    err = _scaled(abs(est - prev_est), est) if prev_est is not None else math.inf
    return QuadratureResult(est, err, nodes, False)


def bilateral_sum(f: Callable[[int], complex], tol: float,
                  tail_exponent_hint: Optional[float] = None,
                  max_terms: int = 100_000,
                  min_terms: int = 4, even: bool = False) -> SumResult:
    """Sum f(n) over all integers n, center-out with symmetric truncation.

    The tail bound comes from the geometric ratio of successive term
    magnitudes when they decay geometrically; for power-law decay
    (exponent from the hint, or fitted) an explicit tail correction
    c N^{1-s}/(s-1) + c N^{-s}/2 is added on each side.  With even=True,
    f(-n) = f(n) is taken on trust and f is evaluated at n >= 0 only;
    terms_used counts the terms evaluated.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    value = f(0)
    mags = []
    n = 0
    sides = 1 if even else 2
    while n < max_terms:
        n += 1
        tp = f(n)
        tm = tp if even else f(-n)
        value = value + tp + tm
        mag = abs(tp) + abs(tm)
        mags.append(mag)
        if n < min_terms:
            continue
        if mag == 0.0 and mags[-2] == 0.0:
            return SumResult(value, 0.0, sides * n + 1, True)
        if mag == 0.0:
            continue
        ratio = mag / mags[-2] if mags[-2] > 0 else 1.0
        if ratio < 0.75:
            # geometric regime
            bound = _scaled(mag * ratio / (1.0 - ratio), value)
            if bound <= tol:
                return SumResult(value, bound, sides * n + 1, True)
        else:
            # power-law regime: local log-slope of the term magnitudes
            if mags[-2] > 0 and mag < mags[-2]:
                s = math.log(mags[-2] / mag) / math.log(n / (n - 1))
            elif tail_exponent_hint is not None:
                s = abs(tail_exponent_hint)
            else:
                continue
            if s <= 1.0:
                raise NonConvergenceError(
                    f"bilateral sum terms decay too slowly (exponent {s:.3f})")
            # Euler-Maclaurin: sum_{k>n} g(k) ~ int_n^inf g - g(n)/2
            correction = (tp + tm) * (n / (s - 1.0) - 0.5)
            # residual after the correction shrinks one power faster
            bound = _scaled(s * mag / n, value + correction)
            if bound <= tol:
                return SumResult(value + correction, bound, sides * n + 1, True)
    raise NonConvergenceError(f"bilateral sum did not converge in {max_terms} terms")
