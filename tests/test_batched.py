"""The batched evaluation path: an array argument must give what a loop of
scalar calls gives, with tail bounds at least the scalar ones, the pole
guard and the overflow check over the whole batch, and the vectorized
integrators must take the same refinement decisions as the scalar ones.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenstri import models, numerics, verify
from lenstri import special_functions as sf
from lenstri.models import Spin
from lenstri.params import (
    DEFAULT_POLICY,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
    physical_parameters,
)

REL = 1e-13
#: a batch bound may fall below the scalar one only by the rounding of |value|
BOUND_SLACK = 1e-12

modular_st = st.builds(complex, st.floats(-0.3, 0.3), st.floats(0.3, 0.7))
params_st = st.builds(NomeParameters, modular_st, modular_st, st.integers(1, 4))


def points(lo_im, hi_im, lo_re=-math.pi, hi_re=math.pi):
    """1-d arrays of 1..8 complex points in a strip."""
    pt = st.builds(complex, st.floats(lo_re, hi_re), st.floats(lo_im, hi_im))
    return st.lists(pt, min_size=1, max_size=8).map(
        lambda zs: np.array(zs, complex))


def assert_batch_matches(batch, scalars, atol=0.0):
    batch = np.asarray(batch)
    assert batch.shape == (len(scalars),)
    for got, want in zip(batch, scalars):
        assert abs(got - want) <= REL * abs(want) + atol


def check_with_bounds(f, zs):
    """f(array, with_bound=True) against f(scalar, with_bound=True)."""
    values, bounds = f(zs, with_bound=True)
    singles = [f(complex(z), with_bound=True) for z in zs]
    assert all(isinstance(v, complex) and isinstance(b, float)
               for v, b in singles)
    assert_batch_matches(values, [v for v, _ in singles])
    for got, (_, want) in zip(bounds, singles):
        assert got >= want * (1 - BOUND_SLACK)


class TestSpecialFunctions:
    @given(points(-0.3, 0.3, -1.0, 1.0),
           st.complex_numbers(max_magnitude=0.6))
    @settings(max_examples=40, deadline=None)
    def test_qpochhammer(self, xs, q):
        check_with_bounds(
            lambda x, with_bound: sf.qpochhammer_inf(x, q,
                                                     with_bound=with_bound),
            xs)

    @given(points(-0.3, 0.3), st.complex_numbers(min_magnitude=0.05,
                                                 max_magnitude=0.6))
    @settings(max_examples=40, deadline=None)
    def test_theta4(self, zs, p):
        check_with_bounds(
            lambda z, with_bound: sf.theta4(z, p, with_bound=with_bound), zs)

    @given(points(-0.2, 0.2), st.complex_numbers(min_magnitude=0.1,
                                                 max_magnitude=0.5),
           st.complex_numbers(min_magnitude=0.1, max_magnitude=0.5))
    @settings(max_examples=40, deadline=None)
    def test_elliptic_gamma(self, zs, p, q):
        check_with_bounds(
            lambda z, with_bound: sf.elliptic_gamma(z, p, q,
                                                    with_bound=with_bound),
            zs)

    @given(points(-0.2, 0.2), st.integers(-4, 4), params_st)
    @settings(max_examples=40, deadline=None)
    def test_lens_elliptic_gamma(self, zs, m, params):
        check_with_bounds(
            lambda z, with_bound: sf.lens_elliptic_gamma(
                z, m, params, with_bound=with_bound), zs)

    @given(points(0.1, 0.5), st.integers(-4, 4), params_st, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lens_gamma_appendix(self, zs, m, params, allow_zero):
        check_with_bounds(
            lambda z, with_bound: sf.lens_gamma_appendix(
                z, m, params, with_bound=with_bound, allow_zero=allow_zero),
            zs)

    @given(points(-0.3, 0.3), st.integers(-6, 6), params_st)
    @settings(max_examples=40, deadline=None)
    def test_lens_theta_array_z(self, zs, m, params):
        check_with_bounds(
            lambda z, with_bound: sf.lens_theta(z, m, params,
                                                with_bound=with_bound), zs)

    @given(points(-0.3, 0.3), st.lists(st.integers(-6, 6), min_size=8,
                                       max_size=8), params_st)
    @settings(max_examples=40, deadline=None)
    def test_lens_theta_array_z_and_m(self, zs, ms, params):
        ms = np.array(ms[:len(zs)])
        values, bounds = sf.lens_theta(zs, ms, params, with_bound=True)
        singles = [sf.lens_theta(complex(z), int(m), params, with_bound=True)
                   for z, m in zip(zs, ms)]
        assert_batch_matches(values, [v for v, _ in singles])
        for got, (_, want) in zip(bounds, singles):
            assert got >= want * (1 - BOUND_SLACK)

    @given(points(-0.3, 0.3), st.integers(-6, 6), params_st)
    @settings(max_examples=20, deadline=None)
    def test_varphi(self, zs, m, params):
        assert_batch_matches(sf.varphi(zs, m, params),
                             [sf.varphi(complex(z), m, params) for z in zs])

    @given(st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1,
                    max_size=8),
           st.complex_numbers(min_magnitude=0.05, max_magnitude=0.5),
           st.complex_numbers(min_magnitude=0.05, max_magnitude=0.5))
    @settings(max_examples=40, deadline=None)
    def test_kernel_tail_bound_covers_each_element(self, cs, a, b):
        # the batch's term counts come from its largest |c|; every element's
        # bound must still be at least the one it gets alone
        cs = np.array(cs, complex)
        try:
            singles = [sf._log_product_2d(complex(c), a, b, DEFAULT_POLICY)
                       for c in cs]
        except PoleHitError:
            with pytest.raises(PoleHitError):
                sf._log_product_2d(cs, a, b, DEFAULT_POLICY)
            return
        logs, tails = sf._log_product_2d(cs, a, b, DEFAULT_POLICY)
        for lg, tail, (lg1, tail1) in zip(logs, tails, singles):
            assert abs(cmath.exp(lg) - cmath.exp(lg1)) <= REL * abs(cmath.exp(lg1))
            assert tail >= tail1

    def test_blocks_split_a_large_grid(self):
        # |ratio| = 0.95 needs more than _BLOCK factors per element, so each
        # element's grid is multiplied out over several blocks
        a = b = 0.95
        c = np.array([0.2 + 0.1j, -0.3j])
        nj = sf._term_count(0.3, 0.95, DEFAULT_POLICY.term_epsilon,
                            DEFAULT_POLICY.max_product_index)
        assert nj * nj > sf._BLOCK
        logs, _ = sf._log_product_2d(c, a, b, DEFAULT_POLICY)
        for lg, ci in zip(logs, c):
            j = np.arange(nj)
            direct = np.sum(np.log(1 - ci * np.outer(a ** j, b ** j)))
            assert abs(cmath.exp(lg) - cmath.exp(direct)) <= 1e-12 * abs(cmath.exp(direct))

    def test_scalar_calls_stay_python_scalars(self):
        pr = physical_parameters(0.05, 0.5, 2)
        for value in (sf.lens_elliptic_gamma(0.3, 1, pr),
                      sf.lens_gamma_appendix(0.3 + 0.2j, 1, pr),
                      sf.lens_theta(0.3, 1, pr), sf.theta4(0.3, 0.2),
                      sf.qpochhammer_inf(0.3, 0.2),
                      models.weight_elliptic(0.3, Spin(0.4, 0), Spin(1.1, 1), pr),
                      models.q_function(0.3, 1, pr)):
            assert type(value) is complex
        assert type(models.weight_gamma(0.4, Spin(0.5, 0), Spin(1.0, 1))) is float


class TestPoleGuardAndOverflow:
    @given(st.floats(0.1, 0.5), st.floats(0.1, 0.5), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_one_pole_point_in_a_batch(self, p, q, where):
        # e^{-2iz} p q = 1 puts z on the pole lattice
        pole = -0.5j * cmath.log(p * q)
        zs = np.linspace(-1, 1, 6) + 0.05j
        zs[where] = pole
        with pytest.raises(PoleHitError):
            sf.elliptic_gamma(zs, p, q)

    def test_one_pole_point_in_an_appendix_batch(self):
        pr = physical_parameters(0.05, 0.5, 2)
        # m = 0: the first denominator factor is 1 - e^{iz}, zero at z = 0
        zs = np.array([0.3 + 0.2j, 0.0, -0.4 + 0.3j])
        with pytest.raises(PoleHitError):
            sf.lens_gamma_appendix(zs, 0, pr)

    @pytest.mark.parametrize("x", [1e200, np.array([0.5, 1e200])])
    def test_overflowing_pochhammer(self, x):
        with pytest.raises(NonConvergenceError):
            sf.qpochhammer_inf(x, 0.5)

    @pytest.mark.parametrize("z", [-100j, np.array([0.3, -100j])])
    def test_overflowing_double_product(self, z):
        with pytest.raises(NonConvergenceError):
            sf.elliptic_gamma(z, 0.3, 0.2)


class TestWeights:
    pr = physical_parameters(0.05, 0.5, 3)
    xs = np.linspace(0.0, math.pi, 9, endpoint=False)

    def check(self, f):
        assert_batch_matches(f(self.xs), [f(float(x)) for x in self.xs])

    @pytest.mark.parametrize("m", [0, 1])
    def test_weight_elliptic(self, m):
        eta = self.pr.eta.real
        self.check(lambda x: models.weight_elliptic(
            0.3 * eta, Spin(1.2, 1), Spin(x, m), self.pr))

    @pytest.mark.parametrize("via_theta4", [False, True])
    def test_single_spin_elliptic(self, via_theta4):
        self.check(lambda x: models.single_spin_elliptic(
            Spin(x, 1), self.pr, via_theta4=via_theta4))

    @pytest.mark.parametrize("n", [-2, 0, 3])
    def test_q_function_and_weight_qlimit(self, n):
        eta = self.pr.eta.real
        self.check(lambda x: models.q_function(x + 0.05j, n, self.pr))
        self.check(lambda x: models.weight_qlimit(
            0.4 * eta, Spin(0.6, -2), Spin(x, n), self.pr))
        self.check(lambda x: models.single_spin_qlimit(Spin(x, n), self.pr))

    @pytest.mark.parametrize("m", [-2, 0, 1])
    def test_gamma_limit(self, m):
        xs = np.linspace(-6.0, 6.0, 13)
        for f in (lambda x: models.weight_gamma(0.4, Spin(0.7, 1), Spin(x, m)),
                  lambda x: models.single_spin_gamma(Spin(x, m))):
            assert_batch_matches(f(xs), [f(float(x)) for x in xs])

    def test_weight_gamma_pole_in_batch(self):
        with pytest.raises(PoleHitError):
            models.weight_gamma(1.0, Spin(0.0, 0), Spin(np.array([0.5, 0.0]), 0))

    def test_rho_integrand(self):
        pr = physical_parameters(0.05, 0.5, 2)
        t = (0.1 + 0.3j, -0.2 + 0.25j, 0.05 + 0.2j, 0.1 + 0.3j, -0.05 + 0.2j)
        u = (1, 0, -1, 0, 0)
        # z = 0 is a genuine zero of the 1/Gamma(+-2z) factors: there both
        # paths give zero up to rounding, which is all that can be compared
        zs = np.linspace(0.0, 2 * math.pi, 11, endpoint=False)
        for y in range(2):
            scalars = [verify.rho_integrand(float(z), y, t, u, pr) for z in zs]
            assert_batch_matches(verify.rho_integrand(zs, y, t, u, pr), scalars,
                                 atol=REL * max(map(abs, scalars)))


# the integrands of test_numerics.py, written with numpy functions so that
# the same function serves one node or a node array
PERIODIC = [
    (lambda t: 1.0 / (2.0 + np.cos(t)), 1e-12, {}),
    (lambda t: np.exp(np.cos(t)) * np.cos(np.sin(t)), 1e-12, {}),
    (lambda t: np.cos(t) ** 2 + 1j * np.sin(t) ** 2, 1e-10, {}),
    (lambda t: np.abs(np.sin(t)), 1e-14, {"max_nodes": 64}),
    (lambda x: 1 / (1.000001 - np.cos(x)), 1e-10, {"max_nodes": 2 ** 10}),
]
LINE = [
    (lambda x: 1.0 / (1.0 + x * x), 1e-8, {"tail_exponent_hint": -2.0}),
    (lambda x: np.exp(-x * x), 1e-10, {}),
    (lambda x: 100.0 / (np.pi * (1.0 + (100.0 * x) ** 2)), 1e-8,
     {"tail_exponent_hint": -2.0}),
    (lambda x: 1.0 / (1.0 + x * x) ** 2, 1e-8, {}),
]


def same_result(a, b):
    assert abs(a.value - b.value) <= 1e-14 * max(1.0, abs(a.value))
    assert a.nodes_used == b.nodes_used
    assert a.converged == b.converged


class TestVectorizedIntegrators:
    @pytest.mark.parametrize("f,tol,kw", PERIODIC)
    def test_periodic(self, f, tol, kw):
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return f(x)
        scalar = numerics.periodic_integrate(f, 2 * math.pi, tol, **kw)
        batch = numerics.periodic_integrate(counted, 2 * math.pi, tol,
                                            vectorized=True, **kw)
        same_result(scalar, batch)
        # one call per refinement level: 16, 16, 32, 64, ...
        assert calls == [16] + [16 * 2 ** k for k in range(len(calls) - 1)]
        assert sum(calls) == batch.nodes_used

    @pytest.mark.parametrize("f,tol,kw", LINE)
    def test_line(self, f, tol, kw):
        same_result(numerics.line_integrate(f, tol, **kw),
                    numerics.line_integrate(f, tol, vectorized=True, **kw))

    def test_line_no_decay_raises_in_both_modes(self):
        f = lambda x: 1.0 / (1.0 + np.abs(x))
        for vectorized in (False, True):
            with pytest.raises(NonConvergenceError):
                numerics.line_integrate(f, 1e-8, vectorized=vectorized)
