"""Error-controlled integration and summation primitives.

One integration engine: the trapezoid rule with node doubling, which is
spectrally accurate for periodic analytic integrands and reuses its nested
nodes.  For such integrands the error squares with each doubling
(Trefethen & Weideman, SIAM Rev. 56, 2014), so the doubling stops at the
first change within tol that either follows another change within tol or
predicts, as change^2 / previous change, a next change below rounding
(2^-52); the first condition alone never stops later than that.  An even
integrand (``even=True``: f(z) = f(period - z), or f(-n) = f(n) for a
bilateral sum) is evaluated at one point of each mirror pair of the same
nested nodes, and the node and term counts count the points evaluated.
Real-line integrals run on the same engine after the substitution
x = sinh t (the exponential-map family of Takahasi & Mori, Publ. RIMS 9,
1974), which turns a power-law tail |x|^-s into e^{-(s-1)|t|}, cut off
where the mapped integrand is within tol.  ``bilateral_sum`` has no
caller in lenstri: every sum over an integer spin is a batch axis of an
integrand or an explicit loop with a closed-form tail.  It is kept only
because the benchmark harness (``perfbench/spans.py``) wraps it by name;
it goes with the benchmark change of ROADMAP item 1.  Accumulation order
is fixed (numpy sums over each set of nodes, center-out for sums), so a
result depends only on its inputs, never on the run.

The integrators call ``f`` one node at a time by default.  With
``vectorized=True`` (the convention of ``scipy.integrate.solve_ivp``),
``f`` takes a 1-d float array of nodes and returns the array of its values
at those nodes.  ``periodic_integrate`` calls it once on the nodes of its
first levels, concatenated in level order, until they reach 4 min_nodes
evaluated nodes (the stop rule always needs the first three levels), then
once per later level;
``line_integrate`` calls it once per pair of end points +-sinh T and then
as ``periodic_integrate`` does.  Both modes visit the same nodes in the
same order and take the same refinement decisions from the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .params import InvalidParameterError, NonConvergenceError

#: a predicted next change below this is lost in the rounding of the sum
_ROUNDING = 2.0 ** -52
#: line_integrate's first half-width T in t = asinh x, and the largest T
_HALF_WIDTH = 8.0
_MAX_HALF_WIDTH = 64.0


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
    of the first levels in one call, in level order: every level up to
    the first that brings the nodes evaluated to 4 min_nodes (fewer if
    max_nodes ends the doubling sooner), which is the first level and
    two refinements over a full period, and three over a mirror half.
    Each later level's nodes go to a call of their own, and each level is
    summed over its own slice of the values, as if it had been a call
    alone.  With even=True, f(z) = f(period - z) is taken on trust and f
    is evaluated at one node of each mirror pair, the other counted
    twice.  nodes_used counts the nodes evaluated, also those of a level
    that the first call evaluated but the rule did not reach.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")

    def level(index, total):
        """Nodes index * period / total of one level and their weights:
        all of them, or with even=True one of each mirror pair."""
        w = 1.0
        if even:
            index, w = _mirror_half(index, total)
        return index * (period / total), w

    def call(levels):
        """Sum of f over each level (nodes, weights), all in one call."""
        nodes = [x for x, _ in levels]
        values = _values(f, np.concatenate(nodes), vectorized)
        cuts = np.cumsum([x.size for x in nodes])[:-1]
        return [(v * w).sum().item()
                for v, (_, w) in zip(np.split(values, cuts), levels)]

    def level_sums():
        """Sum of each level in turn, with the nodes evaluated so far.  The
        first call holds the levels up to the first whose evaluated nodes
        reach 4 min_nodes."""
        first, n = [level(np.arange(min_nodes), min_nodes)], min_nodes
        evaluated = first[0][0].size
        while evaluated < 4 * min_nodes and n < max_nodes:
            n *= 2
            first.append(level(np.arange(1, n, 2), n))
            evaluated += first[-1][0].size
        for s in call(first):
            yield s, evaluated
        while n < max_nodes:
            n *= 2
            x, w = level(np.arange(1, n, 2), n)
            evaluated += x.size
            yield call([(x, w)])[0], evaluated

    sums = level_sums()
    n = min_nodes
    total, used = next(sums)
    prev = period * total / n
    cur, err, last = prev, math.inf, None
    for new, used in sums:
        total = total + new
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


def line_integrate(f: Callable[[float], complex], tol: float,
                   vectorized: bool = False) -> QuadratureResult:
    """Integrate f over the real line.

    Substitutes x = sinh t, which turns a tail |x|^-s into e^{-(s-1)|t|},
    and integrates g(t) = f(sinh t) cosh t over [-T, T] with
    ``periodic_integrate`` (period 2T, nodes -T + k 2T/n), whose nested
    doubling and stop rule set the step.  T starts at _HALF_WIDTH and
    doubles until |g(+-T)| <= tol; each cut tail is then within tol when f
    decays at least like |x|^-2.  If |g(+-T)| is still above tol at
    _MAX_HALF_WIDTH, NonConvergenceError is raised.  nodes_used counts the
    trapezoid nodes, not the end points.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    g = lambda t: f(np.sinh(t)) * np.cosh(t)
    T = _HALF_WIDTH
    while np.abs(_values(g, np.array([-T, T]), vectorized)).max() > tol:
        if T >= _MAX_HALF_WIDTH:
            raise NonConvergenceError(
                f"integrand not within {tol:.1e} at x = +-sinh({T:g})")
        T *= 2
    return periodic_integrate(lambda t: g(t - T), 2 * T, tol,
                              vectorized=vectorized)


def bilateral_sum(f: Callable[[int], complex], tol: float,
                  tail_exponent_hint: Optional[float] = None,
                  max_terms: int = 100_000,
                  min_terms: int = 4, even: bool = False) -> SumResult:
    """Sum f(n) over all integers n, center-out with symmetric truncation.
    No lenstri code calls this; ``perfbench/spans.py`` wraps it by name,
    so it stays until the benchmark change of ROADMAP item 1.

    The tail bound comes from the geometric ratio of successive term
    magnitudes when they decay geometrically; for power-law decay
    (exponent from the hint, or fitted) an explicit tail correction
    c N^{1-s}/(s-1) + c N^{-s}/2 is added on each side.  With even=True,
    f(-n) = f(n) is taken on trust and f is evaluated at n >= 0 only;
    terms_used counts the terms evaluated.
    """
    if not tol > 0:
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
