"""Oracle and identity tests for the special-function layer.

Brute-force finite products serve as independent oracles for every
infinite-product evaluator; the identity tests then cross-check the
functions against each other.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenstri import special_functions as sf
from lenstri.params import (
    DEFAULT_POLICY,
    DivergentParameterError,
    InvalidParameterError,
    NomeParameters,
    PoleHitError,
    TruncationPolicy,
    physical_parameters,
)


def brute_pochhammer(x, q, n=300):
    acc = 1.0 + 0.0j
    for j in range(n):
        acc *= 1.0 - x * q ** j
    return acc


def brute_theta4(z, p, n=300):
    acc = brute_pochhammer(p * p, p * p, n)
    for k in range(1, n):
        acc *= (1 - cmath.exp(2j * z) * p ** (2 * k - 1))
        acc *= (1 - cmath.exp(-2j * z) * p ** (2 * k - 1))
    return acc


def brute_elliptic_gamma(z, p, q, n=60):
    acc = 1.0 + 0.0j
    for j in range(n):
        for k in range(n):
            acc *= ((1 - cmath.exp(2j * z) * p ** (2 * j + 1) * q ** (2 * k + 1))
                    / (1 - cmath.exp(-2j * z) * p ** (2 * j + 1) * q ** (2 * k + 1)))
    return acc


def brute_lens_gamma_appendix(z, m, params, n=80):
    r, p, q = params.r, params.p, params.q
    pq = p * q
    br = sf.mod_bracket(m, r)
    acc = cmath.exp(sf.varphi(z, m, params))
    for j in range(n):
        for k in range(n):
            acc *= ((1 - cmath.exp(-1j * z) * p ** -br * pq ** (j + 1) * p ** (r * (k + 1)))
                    / (1 - cmath.exp(1j * z) * p ** br * pq ** j * p ** (r * k)))
            acc *= ((1 - cmath.exp(-1j * z) * q ** (br - r) * pq ** (j + 1) * q ** (r * (k + 1)))
                    / (1 - cmath.exp(1j * z) * q ** (r - br) * pq ** j * q ** (r * k)))
    return acc


def random_params(rng, r=None):
    sigma = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.3, 0.7))
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.3, 0.7))
    return NomeParameters(sigma, tau, r or int(rng.integers(1, 5)))


class TestBrackets:
    def test_examples(self):
        assert sf.mod_bracket(-1, 4) == 3
        assert sf.mod_bracket(7, 3) == 1
        assert sf.bracket_pm(1, 3) == 2

    def test_rejects_bad_r(self):
        with pytest.raises(InvalidParameterError):
            sf.mod_bracket(1, 0)

    @given(st.integers(-500, 500), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_range_and_congruence(self, m, r):
        b = sf.mod_bracket(m, r)
        assert 0 <= b < r
        assert (b - m) % r == 0

    @given(st.integers(-200, 200), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_pm_symmetry(self, m, r):
        assert sf.bracket_pm(m, r) == sf.bracket_pm(-m, r)


class TestPochhammer:
    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            q = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            val = sf.qpochhammer_inf(x, q)
            ref = brute_pochhammer(x, q)
            assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_zero_argument(self):
        assert sf.qpochhammer_inf(0.0, 0.5) == 1.0

    def test_allows_exact_zero(self):
        # x=1 puts a zero in the very first factor
        assert sf.qpochhammer_inf(1.0, 0.3) == 0.0

    def test_tail_bound_is_honest(self):
        val, bound = sf.qpochhammer_inf(0.4 + 0.1j, 0.6, with_bound=True)
        ref = brute_pochhammer(0.4 + 0.1j, 0.6, 2000)
        assert abs(val - ref) <= bound + 1e-15

    def test_divergent_ratio_rejected(self):
        with pytest.raises(DivergentParameterError):
            sf.qpochhammer_inf(0.5, 1.0)


class TestTheta4:
    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))
            p = complex(rng.uniform(0.05, 0.6), rng.uniform(-0.2, 0.2))
            val = sf.theta4(z, p)
            ref = brute_theta4(z, p)
            assert abs(val - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_periodicity(self):
        v1 = sf.theta4(0.7, 0.3 + 0.1j)
        v2 = sf.theta4(0.7 + math.pi, 0.3 + 0.1j)
        assert abs(v1 - v2) <= 1e-13 * abs(v1)


class TestEllipticGamma:
    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            p = complex(rng.uniform(0.1, 0.5), rng.uniform(-0.2, 0.2))
            q = complex(rng.uniform(0.1, 0.5), rng.uniform(-0.2, 0.2))
            val = sf.elliptic_gamma(z, p, q)
            ref = brute_elliptic_gamma(z, p, q)
            assert abs(val - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_inversion(self):
        z, p, q = 0.4 + 0.1j, 0.35, 0.28 + 0.1j
        prod = sf.elliptic_gamma(z, p, q) * sf.elliptic_gamma(-z, p, q)
        assert abs(prod - 1.0) <= 1e-12

    def test_pole_guard(self):
        # e^{-2iz} p q = 1 puts the evaluation on the pole lattice
        p = q = 0.3
        z = -0.5j * cmath.log(p * q)
        with pytest.raises(PoleHitError):
            sf.elliptic_gamma(z, p, q)


class TestLensEllipticGamma:
    def test_r1_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = random_params(rng, r=1)
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            lhs = sf.lens_elliptic_gamma(z, 0, params)
            rhs = sf.elliptic_gamma(z, params.p, params.q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_index_periodicity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            params = random_params(rng)
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
            m = int(rng.integers(-5, 6))
            v1 = sf.lens_elliptic_gamma(z, m, params)
            v2 = sf.lens_elliptic_gamma(z, m + params.r, params)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))

    def test_inversion(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = random_params(rng)
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
            m = int(rng.integers(-4, 5))
            prod = (sf.lens_elliptic_gamma(z, m, params)
                    * sf.lens_elliptic_gamma(-z, -m, params))
            assert abs(prod - 1.0) <= 1e-12


class TestAppendixGamma:
    def test_against_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            params = random_params(rng)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.1, 0.5))
            m = int(rng.integers(-4, 5))
            val = sf.lens_gamma_appendix(z, m, params)
            ref = brute_lens_gamma_appendix(z, m, params)
            assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_inversion(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = random_params(rng)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.1, 0.4))
            m = int(rng.integers(-4, 5))
            prod = (sf.lens_gamma_appendix(z, m, params)
                    * sf.lens_gamma_appendix(2j * params.eta - z, -m, params))
            assert abs(prod - 1.0) <= 1e-11

    def test_shift_relation(self):
        # Gamma(z + pi sigma, m-1) = theta(z, m) Gamma(z, m)
        rng = np.random.default_rng(8)
        for _ in range(10):
            params = random_params(rng)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.1, 0.4))
            m = int(rng.integers(-4, 5))
            lhs = sf.lens_gamma_appendix(z + math.pi * params.sigma, m - 1, params)
            rhs = (sf.lens_theta(z, m, params)
                   * sf.lens_gamma_appendix(z, m, params))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


class TestLensTheta:
    def test_exponent_matches_varphi_difference(self):
        # the closed-form exponent equals the difference of the two
        # gamma-prefactor exponents produced by the shift relation
        rng = np.random.default_rng(9)
        for _ in range(20):
            params = random_params(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            m = int(rng.integers(-6, 7))
            diff = (sf.varphi(z + math.pi * params.sigma, m - 1, params)
                    - sf.varphi(z, m, params))
            assert abs(diff - sf.lens_theta_exponent(z, m, params)) <= 1e-12

    def test_reflection(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            params = random_params(rng)
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            m = int(rng.integers(-4, 5))
            lhs = sf.lens_theta(-z, -m, params)
            rhs = (-cmath.exp(1j * (2 * math.pi * sf.mod_bracket(m, params.r) - z)
                              / params.r)
                   * sf.lens_theta(z, m, params))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(11)
        for n in (-1, 1, 2):
            params = random_params(rng)
            r = params.r
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            m = int(rng.integers(-4, 5))
            lhs = sf.lens_theta(z + n * r * math.pi * params.tau, m, params)
            rhs = (cmath.exp(1j * n * (math.pi - z - math.pi * params.tau
                                       * (n * r - 1) / 2))
                   * sf.lens_theta(z, m, params))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def theta_std(z: complex, params: NomeParameters,
              policy: TruncationPolicy = DEFAULT_POLICY,
              with_bound: bool = False):
    """Index-free theta function (e^{iz}; q^r)_inf (e^{-iz} q^r; q^r)_inf."""
    qr = params.q ** params.r
    c1, b1 = sf._pochhammer_raw(cmath.exp(1j * z), qr, policy)
    c2, b2 = sf._pochhammer_raw(cmath.exp(-1j * z) * qr, qr, policy)
    value = c1 * c2
    bound = abs(c2) * b1 + abs(c1) * b2
    return sf._result(value, bound, with_bound)


class TestThetaStd:
    def test_shift_identity(self):
        # theta(z + pi tau r k) = theta(z) / ((-e^{iz})^k e^{i pi tau r k(k-1)/2})
        rng = np.random.default_rng(12)
        for k in (-1, 1, 2):
            params = random_params(rng)
            r = params.r
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            lhs = theta_std(z + math.pi * params.tau * r * k, params)
            rhs = (theta_std(z, params)
                   / ((-cmath.exp(1j * z)) ** k
                      * cmath.exp(1j * math.pi * params.tau * r * k * (k - 1) / 2)))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


class TestParams:
    def test_physical_regime(self):
        pr = physical_parameters(0.05, 0.5, 2)
        assert pr.physical_regime
        assert abs(pr.p - pr.q.conjugate()) < 1e-15
        assert abs(pr.eta.imag) < 1e-15 and pr.eta.real > 0

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InvalidParameterError):
            NomeParameters(0.5 - 0.1j, 0.5 + 0.5j)

    def test_doubled_squares_nomes(self):
        pr = physical_parameters(0.03, 0.4, 3)
        dbl = pr.doubled()
        assert abs(dbl.p - pr.p ** 2) < 1e-15
        assert abs(dbl.eta - 2 * pr.eta) < 1e-14
