"""Closed-form oracle tests for the integration and summation primitives."""

import math

import numpy as np
import pytest

from lenstri import numerics
from lenstri.params import InvalidParameterError, NonConvergenceError


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


class TestLineIntegrate:
    def test_lorentzian(self):
        # int dx / (1+x^2) = pi, tail ~ x^{-2}
        res = numerics.line_integrate(lambda x: 1.0 / (1.0 + x * x), 1e-8,
                                      tail_exponent_hint=-2.0)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-7 * math.pi

    def test_gaussian(self):
        res = numerics.line_integrate(lambda x: math.exp(-x * x), 1e-10)
        assert abs(res.value - math.sqrt(math.pi)) <= 1e-9

    def test_sharp_core_peak(self):
        # width-0.01 Lorentzian: needs core panel refinement, not cutoffs
        res = numerics.line_integrate(
            lambda x: 100.0 / (math.pi * (1.0 + (100.0 * x) ** 2)), 1e-8,
            tail_exponent_hint=-2.0)
        assert abs(res.value - 1.0) <= 1e-6

    def test_fitted_tail_exponent(self):
        res = numerics.line_integrate(lambda x: 1.0 / (1.0 + x * x) ** 2, 1e-8)
        assert abs(res.value - math.pi / 2) <= 1e-7

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
