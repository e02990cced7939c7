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

The trapezoid levels are stepped by ``Trapezoid``, for a batch of
integrals over the same period at once: it hands out each batch's nodes,
takes the values there of the integrals that have not stopped (one row
each), and keeps every integral's sums, changes and stop decision apart,
so an integral stops at its own level and gets the result it gets alone.
Its first batch holds the first levels, concatenated in level order,
until they reach 4 min_nodes evaluated nodes (the stop rule always needs
the first three levels); each later batch holds one level.  A caller
that drives the stepper itself evaluates whatever else it needs in the
same batch: the quadrature verifiers evaluate their right sides in the
first batch, and a sweep's star-triangle, master and iconst samples
share every batch.
The node layout (each batch's nodes, the cuts between the levels of the
first, the mirror weights) is built once per (period, min_nodes,
max_nodes, even) and is read-only.

``periodic_integrate`` is the stepper for one integral and a callable
f, which it calls one node at a time by default.  With
``vectorized=True`` (the convention of ``scipy.integrate.solve_ivp``),
``f`` takes a 1-d float array of nodes and returns the array of its
values at those nodes, one call per batch; ``line_integrate`` calls it
once per pair of end points +-sinh T and then as ``periodic_integrate``
does.  Both modes visit the same nodes in the same order and take the
same refinement decisions from the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


def _level(index: np.ndarray, total: int, period: float, even: bool):
    """Nodes index * period / total of one level and their weights: all of
    them, or with even=True one of each mirror pair."""
    w = 1.0
    if even:
        index, w = _mirror_half(index, total)
    return index * (period / total), w


def _read_only(*arrays):
    """Make the arrays among arrays read-only; a weight 1.0 is a float."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


@lru_cache(maxsize=64)
def _first_call(period: float, min_nodes: int, max_nodes: int, even: bool):
    """The nodes of a stepper's first batch, concatenated in level order,
    the cuts between its levels, each level's weights, and the node count
    n of its last level.  It holds every level up to the first that brings
    the nodes evaluated to 4 min_nodes (fewer if max_nodes ends the
    doubling sooner).  Read-only: every stepper at one setting shares it."""
    levels, n = [_level(np.arange(min_nodes), min_nodes, period, even)], min_nodes
    evaluated = levels[0][0].size
    while evaluated < 4 * min_nodes and n < max_nodes:
        n *= 2
        levels.append(_level(np.arange(1, n, 2), n, period, even))
        evaluated += levels[-1][0].size
    nodes = np.concatenate([x for x, _ in levels])
    cuts = np.cumsum([x.size for x, _ in levels])[:-1]
    weights = tuple(w for _, w in levels)
    _read_only(nodes, cuts, *weights)
    return nodes, cuts, weights, n


@lru_cache(maxsize=64)
def _refinement(period: float, n: int, even: bool):
    """Nodes and weights of the level of n nodes after the first batch:
    the odd multiples of period / n.  Read-only."""
    x, w = _level(np.arange(1, n, 2), n, period, even)
    _read_only(x, w)
    return x, w


class Trapezoid:
    """The nested trapezoid levels of one period, stepped for a batch of
    integrals that each stop at their own level.

    ``nodes`` holds the nodes of the next batch, and ``active`` the
    integrals (numbered 0..count-1) whose values it needs.  ``take``
    takes those values, one row per active integral in the order of
    ``active``, and steps every integral through the levels they hold: the
    first batch every level up to the first that brings the nodes
    evaluated to 4 min_nodes (fewer if max_nodes ends the doubling sooner),
    each later batch one level.  Each level is summed over its own slice of
    a row, and each integral keeps its own sums, changes and stop decision
    (the rule of ``periodic_integrate``).  An integral that stops, or runs
    out of levels at max_nodes, leaves ``active`` with its
    QuadratureResult in ``results``; its nodes_used counts the nodes of
    every batch it was in.  Every integral of a batch is at the same
    level, so its result is the one it gets alone.  The nodes are
    read-only arrays, built once per (period, min_nodes, max_nodes, even).
    """

    def __init__(self, period: float, count: int, min_nodes: int = 16,
                 max_nodes: int = 2 ** 15, even: bool = False):
        self.period, self.max_nodes, self.even = period, max_nodes, even
        self.nodes, self._cuts, self._weights, _ = _first_call(
            period, min_nodes, max_nodes, even)
        self.active = list(range(count))
        self.results: list = [None] * count
        #: per active integral: its sum, its value and its last change
        #: (None before its first refinement)
        self._state: dict = {}
        self._n = min_nodes      # node count of the last level summed
        self._evaluated = 0

    def take(self, values, tol) -> None:
        """Take the values at ``nodes`` of the integrals in ``active``, an
        array of shape (len(active), nodes.size); tol is the tolerance of
        every integral, one number or one per integral."""
        self._tol = (list(tol) if np.ndim(tol)
                     else [tol] * len(self.results))
        batch, period, state = self.active, self.period, self._state
        first = not self._evaluated
        self._evaluated += self.nodes.size
        if first:
            parts = zip(np.split(values, self._cuts, axis=-1), self._weights)
        else:
            parts = ((values, self._weights),)
        for v, w in parts:
            sums = (v * w).sum(axis=-1).tolist()
            if first:
                first = False
                for i, s in zip(batch, sums):
                    state[i] = [s, period * s / self._n, None]
                continue
            self._n *= 2
            for i, s in zip(batch, sums):
                if i in state:
                    self._refine(i, s, self._n)
        self.active = [i for i in batch if i in state]
        if self._n >= self.max_nodes:
            # out of nodes: the last refinement and the last change it made
            for i in self.active:
                _, cur, last = state.pop(i)
                self.results[i] = QuadratureResult(
                    cur, math.inf if last is None else last,
                    self._evaluated, False)
            self.active = []
        else:
            self.nodes, self._weights = _refinement(period, 2 * self._n,
                                                    self.even)

    def _refine(self, i: int, new, n: int) -> None:
        """Integral i's step to the level of n nodes, whose new nodes sum
        to new."""
        total, prev, last = self._state[i]
        total = total + new
        cur = self.period * total / n
        err = _scaled(abs(cur - prev), cur)
        tol = self._tol[i]
        # one small change alone can be a fluke before the geometric regime
        # sets in; a second one, or a predicted next change below rounding,
        # shows that regime
        if err <= tol and last is not None and (
                last <= tol or err * err <= _ROUNDING * last):
            del self._state[i]
            self.results[i] = QuadratureResult(cur, err, self._evaluated,
                                               True)
        else:
            self._state[i] = [total, cur, err]


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
    alone.  This is a ``Trapezoid`` of one integral, whose nodes f gets.
    With even=True, f(z) = f(period - z) is taken on trust and f is
    evaluated at one node of each mirror pair, the other counted twice.
    nodes_used counts the nodes evaluated, also those of a level that the
    first call evaluated but the rule did not reach.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    steps = Trapezoid(period, 1, min_nodes, max_nodes, even)
    while steps.active:
        steps.take(_values(f, steps.nodes, vectorized)[None], tol)
    return steps.results[0]


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
