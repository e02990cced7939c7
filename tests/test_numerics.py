"""Closed-form oracle tests for the integration and summation primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenstri import cli, models, numerics, verify
from lenstri.params import (
    InvalidParameterError,
    NonConvergenceError,
    physical_parameters,
)


def two_in_a_row_nodes(f, period, tol, min_nodes=16, max_nodes=2 ** 15):
    """Node count of the reference stopping rule: nested trapezoid sums
    that stop after two successive changes within tol (relative to
    max(1, |value|))."""
    n = min_nodes
    total = f(np.arange(n) * (period / n)).sum()
    prev, streak = period * total / n, 0
    while n < max_nodes:
        total += f(np.arange(1, 2 * n, 2) * (period / (2 * n))).sum()
        n *= 2
        cur = period * total / n
        streak = streak + 1 if abs(cur - prev) / max(1.0, abs(cur)) <= tol else 0
        if streak == 2:
            break
        prev = cur
    return n


def level_by_level(f, period, tol, min_nodes, max_nodes, vectorized, even):
    """The trapezoid rule of periodic_integrate with one call to f per
    refinement level, summing each level's values the same way."""
    def level_sum(index, total):
        weights = 1.0
        if even:
            index = index[2 * index <= total]
            own = (index == 0) | (2 * index == total)
            weights = np.where(own, 1.0, 2.0)
        x = index * (period / total)
        values = (np.asarray(f(x)) if vectorized
                  else np.array([f(t) for t in x.tolist()]))
        return (values * weights).sum().item(), index.size

    n = min_nodes
    total, used = level_sum(np.arange(n), n)
    prev = period * total / n
    cur, err, last = prev, math.inf, None
    while n < max_nodes:
        new, count = level_sum(np.arange(1, 2 * n, 2), 2 * n)
        total, used = total + new, used + count
        n *= 2
        cur = period * total / n
        err = abs(cur - prev) / max(1.0, abs(cur))
        if err <= tol and last is not None and (
                last <= tol or err * err <= 2.0 ** -52 * last):
            return numerics.QuadratureResult(cur, err, used, True)
        prev, last = cur, err
    return numerics.QuadratureResult(cur, err, used, False)


# analytic periodic integrands with known integrals over [0, 2 pi]
ANALYTIC = [
    (lambda a: (lambda t: 1.0 / (a - np.cos(t))),
     lambda a: 2 * math.pi / math.sqrt(a * a - 1), (1.05, 5.0)),
    (lambda b: (lambda t: np.exp(b * np.cos(t)) * np.cos(b * np.sin(t))),
     lambda b: 2 * math.pi, (0.1, 3.0)),
]


class TestPeriodicIntegrate:
    def test_reciprocal_cosine(self):
        # int_0^{2pi} dt/(2+cos t) = 2 pi / sqrt(3)
        res = numerics.periodic_integrate(lambda t: 1.0 / (2.0 + math.cos(t)),
                                          2 * math.pi, 1e-12)
        assert res.converged
        assert abs(res.value - 2 * math.pi / math.sqrt(3)) <= 1e-11

    def test_entire_integrand(self):
        # int_0^{2pi} e^{cos t} cos(sin t) dt = 2 pi
        res = numerics.periodic_integrate(
            lambda t: math.exp(math.cos(t)) * math.cos(math.sin(t)),
            2 * math.pi, 1e-12)
        assert abs(res.value - 2 * math.pi) <= 1e-11

    def test_complex_valued(self):
        res = numerics.periodic_integrate(
            lambda t: complex(math.cos(t) ** 2, math.sin(t) ** 2),
            2 * math.pi, 1e-10)
        assert abs(res.value - complex(math.pi, math.pi)) <= 1e-9

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidParameterError):
            numerics.periodic_integrate(math.cos, 2 * math.pi, 0.0)

    def test_node_budget_flagged(self):
        # |sin t| has kinks, so the trapezoid rule converges only like n^-2
        # and cannot hit 1e-14 within 64 nodes
        res = numerics.periodic_integrate(
            lambda t: abs(math.sin(t)), 2 * math.pi, 1e-14, max_nodes=64)
        assert not res.converged

    def test_node_budget_reports_last_change(self):
        # a near-singular integrand: 1024 nodes are far from enough, and the
        # result must say so through a large error estimate
        exact = 2 * math.pi / math.sqrt(1.000001 ** 2 - 1)
        res = numerics.periodic_integrate(
            lambda x: 1 / (1.000001 - math.cos(x)), 2 * math.pi, 1e-10,
            max_nodes=2 ** 10)
        assert not res.converged
        assert res.nodes_used == 2 ** 10
        assert res.error_estimate >= abs(res.value - exact) / abs(res.value)


class TestStopRule:
    @given(st.sampled_from(range(len(ANALYTIC))), st.floats(0.0, 1.0),
           st.floats(-14.0, -6.0))
    @settings(max_examples=60, deadline=None)
    def test_never_more_nodes_and_within_tol(self, which, where, log_tol):
        make, exact_of, (lo, hi) = ANALYTIC[which]
        a, tol = lo + where * (hi - lo), 10.0 ** log_tol
        f, exact = make(a), exact_of(a)
        res = numerics.periodic_integrate(f, 2 * math.pi, tol, vectorized=True)
        assert res.converged
        assert res.nodes_used <= two_in_a_row_nodes(f, 2 * math.pi, tol)
        assert abs(res.value - exact) <= tol * max(1.0, abs(exact))

    def test_predicted_change_far_above_rounding_does_not_stop(self):
        # draw 7 of criterion 5 at r = 1: the changes at 32, 64 and 128
        # nodes are 2.2e-3, 9.8e-9 and 1.1e-12, so the change predicted at
        # 64 nodes, 4.3e-14, is 25 times too small; a stop there leaves a
        # residual of 1.2e-12
        rng = np.random.default_rng(105)
        pr = physical_parameters(0.05, 0.5, 1)
        case = [cli.sample_str_case(rng, pr) for _ in range(7)][-1]
        rep = verify.verify_str(case["spins"], case["alphas"], pr, tol=1e-6)
        assert rep.rel_residual <= 2e-14
        assert rep.numerics_meta["nodes"] == 128


class TestFirstLevelsInOneCall:
    @given(st.data(), st.integers(2, 32), st.floats(1.01, 5.0),
           st.floats(-14.0, -4.0), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_one_call_per_level(self, data, min_nodes, a, log_tol,
                                        vectorized, even):
        # max_nodes on either side of the 4 * min_nodes of the first call
        max_nodes = data.draw(st.one_of(
            st.integers(1, 4 * min_nodes - 1),
            st.integers(4 * min_nodes, 2 ** 12)))
        f = lambda t: (1.0 + 0.5j * np.cos(2 * t)) / (a - np.cos(t))
        args = (f, 2 * math.pi, 10.0 ** log_tol, min_nodes, max_nodes,
                vectorized, even)
        assert numerics.periodic_integrate(*args) == level_by_level(*args)

    def test_str_calls_two_fewer_than_levels(self, monkeypatch):
        pr = physical_parameters(0.05, 0.5, 1)
        case = cli.sample_str_case(np.random.default_rng(4), pr)
        calls = []
        integrand = models.star_integrand

        def counted(*args, **kwargs):
            calls.append(np.size(args[1].x))
            return integrand(*args, **kwargs)
        monkeypatch.setattr(models, "star_integrand", counted)
        rep = verify.verify_str(case["spins"], case["alphas"], pr)
        nodes = rep.numerics_meta["nodes"]
        levels = round(math.log2(nodes // 16)) + 1
        assert nodes == 16 * 2 ** (levels - 1) and levels >= 3
        # the first three levels (16 + 16 + 32 nodes) share one call
        assert len(calls) == levels - 2
        assert calls[0] == 64 and sum(calls) == nodes


class TestSymmetry:
    @pytest.mark.parametrize("which", range(len(ANALYTIC)))
    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("min_nodes", [16, 15])
    def test_even_matches_full_period(self, which, vectorized, min_nodes):
        make, exact_of, (lo, hi) = ANALYTIC[which]
        f = make((lo + hi) / 2)
        levels = []

        def counted(x):
            levels.append(np.size(x))
            return f(x) if vectorized else f(np.array(x)).item()
        kw = dict(min_nodes=min_nodes, vectorized=vectorized)
        full = numerics.periodic_integrate(f, 2 * math.pi, 1e-14, **kw)
        even = numerics.periodic_integrate(counted, 2 * math.pi, 1e-14,
                                           even=True, **kw)
        assert abs(even.value - full.value) <= 1e-15 * abs(full.value)
        if vectorized:
            # the level of n new nodes evaluates at most n/2 + 1 of them;
            # the first call holds the first level and the two refinements
            # after it, each later call one level
            new = [min_nodes, min_nodes] + [min_nodes * 2 ** k
                                            for k in range(1, len(levels) + 1)]
            most = ([sum(n // 2 + 1 for n in new[:3])]
                    + [n // 2 + 1 for n in new[3:]])
            assert all(k <= b for k, b in zip(levels, most))
            assert sum(levels) == even.nodes_used
        assert even.nodes_used <= full.nodes_used // 2 + len(levels)

    def test_even_bilateral_sum(self):
        f = lambda n: (0.4 + 0.1j) ** abs(n) / (1 + n * n)
        full = numerics.bilateral_sum(f, 1e-13)
        even = numerics.bilateral_sum(f, 1e-13, even=True)
        assert abs(even.value - full.value) <= 1e-15 * abs(full.value)
        assert even.terms_used == (full.terms_used + 1) // 2

    def test_even_bilateral_sum_power_law(self):
        a = 0.7
        exact = math.pi / math.tanh(math.pi * a) / a
        f = lambda n: 1.0 / (n * n + a * a)
        full = numerics.bilateral_sum(f, 1e-6, tail_exponent_hint=-2.0)
        even = numerics.bilateral_sum(f, 1e-6, tail_exponent_hint=-2.0,
                                      even=True)
        assert abs(even.value - full.value) <= 1e-14 * exact
        assert even.terms_used == (full.terms_used + 1) // 2


class TestLineIntegrate:
    def test_lorentzian(self):
        # int dx / (1+x^2) = pi, tail ~ x^{-2}
        res = numerics.line_integrate(lambda x: 1.0 / (1.0 + x * x), 1e-8)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-7 * math.pi

    def test_gaussian(self):
        res = numerics.line_integrate(lambda x: math.exp(-x * x), 1e-10)
        assert abs(res.value - math.sqrt(math.pi)) <= 1e-9

    def test_sharp_core_peak(self):
        # width-0.01 Lorentzian: its x^-2 tail needs T = 16, and on [-16, 16]
        # the step that resolves the peak takes exactly periodic_integrate's
        # default cap of 2^15 nodes, so a larger first T would not converge
        res = numerics.line_integrate(
            lambda x: 100.0 / (math.pi * (1.0 + (100.0 * x) ** 2)), 1e-8)
        assert abs(res.value - 1.0) <= 1e-6
        assert res.converged

    def test_fourth_power_decay(self):
        res = numerics.line_integrate(lambda x: 1.0 / (1.0 + x * x) ** 2, 1e-8)
        assert abs(res.value - math.pi / 2) <= 1e-7

    def test_sixth_power_decay(self):
        # the |x|^-6 decay of the Euler-gamma star-triangle integrand
        res = numerics.line_integrate(lambda x: 1.0 / (1.0 + x * x) ** 3, 1e-12)
        assert res.converged
        assert abs(res.value - 3 * math.pi / 8) <= 1e-12

    def test_no_decay_raises(self):
        with pytest.raises(NonConvergenceError):
            numerics.line_integrate(lambda x: 1.0 / (1.0 + abs(x)), 1e-8)


class TestBilateralSum:
    def test_geometric(self):
        q = 0.35
        res = numerics.bilateral_sum(lambda n: q ** abs(n), 1e-12)
        assert res.converged
        assert abs(res.value - (1 + q) / (1 - q)) <= 1e-11

    def test_coth_series(self):
        # sum_n 1/(n^2+a^2) = pi coth(pi a)/a, terms ~ n^{-2}
        a = 0.7
        exact = math.pi / math.tanh(math.pi * a) / a
        res = numerics.bilateral_sum(lambda n: 1.0 / (n * n + a * a), 1e-6,
                                     tail_exponent_hint=-2.0)
        err = abs(res.value - exact) / exact
        assert err <= 1e-5
        assert err <= 10 * res.tail_bound + 1e-12

    def test_finite_support(self):
        res = numerics.bilateral_sum(lambda n: 1.0 if abs(n) <= 3 else 0.0,
                                     1e-10)
        assert res.value == 7.0

    def test_harmonic_raises(self):
        with pytest.raises(NonConvergenceError):
            numerics.bilateral_sum(lambda n: 1.0 / (1.0 + abs(n)), 1e-10)

    def test_determinism(self):
        f = lambda n: (0.4 + 0.1j) ** abs(n) / (1 + n * n)
        v1 = numerics.bilateral_sum(f, 1e-13).value
        v2 = numerics.bilateral_sum(f, 1e-13).value
        assert v1 == v2
