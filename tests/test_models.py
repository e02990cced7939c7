"""Tests for the Boltzmann weights and their normalisation factors."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as euler_gamma

from lenstri import models
from lenstri.models import ModelFamily, Spin
from lenstri.params import (
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
    physical_parameters,
)
from lenstri.special_functions import bracket_pm, lens_elliptic_gamma


def brute_q_function(z, n, params, terms=200):
    p, q = params.p, params.q
    pq = p * q
    e2 = cmath.exp(2j * z)
    if n >= 0:
        cn, cd = e2 * q ** (2 * n) * pq, p ** (2 * n) * pq / e2
    else:
        cn, cd = e2 * p ** (-2 * n) * pq, q ** (-2 * n) * pq / e2
    acc = 1.0 + 0.0j
    for j in range(terms):
        acc *= (1 - cn * pq ** (2 * j)) / (1 - cd * pq ** (2 * j))
    return acc


class TestEpsilonFactor:
    def test_half_cases(self):
        assert models.epsilon_factor(0, 5) == 0.5
        assert models.epsilon_factor(2, 4) == 0.5
        assert models.epsilon_factor(1, 4) == 1

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            models.epsilon_factor(3, 4)


class TestSpinDomain:
    def test_elliptic_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            models.check_spin_domain(Spin(0.5, 3), ModelFamily.ELLIPTIC, 4)
        with pytest.raises(InvalidParameterError):
            models.check_spin_domain(Spin(4.0, 0), ModelFamily.ELLIPTIC, 4)

    def test_gamma_unrestricted(self):
        models.check_spin_domain(Spin(-7.0, 11), ModelFamily.GAMMA_LIMIT)


class TestKappa:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_elliptic_inversion(self, r):
        pr = physical_parameters(0.05, 0.5, r)
        alpha = 0.31 * pr.eta.real
        prod = models.kappa_elliptic(alpha, pr) * models.kappa_elliptic(-alpha, pr)
        assert abs(prod - 1.0) <= 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_elliptic_functional_equation(self, r):
        # kappa(eta-a)/kappa(a) equals the index-zero lens gamma factor
        pr = physical_parameters(0.05, 0.5, r)
        eta = pr.eta.real
        for alpha in (0.2 * eta, 0.45 * eta, 0.7 * eta):
            lhs = models.kappa_elliptic(eta - alpha, pr) / models.kappa_elliptic(alpha, pr)
            rhs = lens_elliptic_gamma(1j * (eta - 2 * alpha), 0, pr)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_qlimit_functional_equation(self):
        pr = physical_parameters(0.05, 0.5, 2)
        eta = pr.eta.real
        for alpha in (0.25 * eta, 0.6 * eta):
            lhs = models.kappa_qlimit(eta - alpha, pr) / models.kappa_qlimit(alpha, pr)
            rhs = models.q_function(1j * (eta - 2 * alpha), 0, pr)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_series_cached_per_nomes(self):
        # 36 misses of both kappas at one set of nomes build each family's
        # series for three lengths (16, 32 and 64 terms) and reuse them
        pr = physical_parameters(0.05, 0.5, 2)
        models._kappa_series.cache_clear()
        for f in np.linspace(0.05, 0.9, 18):
            models.kappa_elliptic.__wrapped__(f * pr.eta.real, pr)
            models.kappa_qlimit.__wrapped__(f * pr.eta.real, pr)
        info = models._kappa_series.cache_info()
        assert info.misses == 6 and info.hits == 30
        for series in models._kappa_series(pr, ModelFamily.ELLIPTIC, 16):
            assert not series.flags.writeable

    def test_large_alpha_no_overflow(self):
        pr = physical_parameters(0.05, 0.5, 1)
        alpha = 0.95 * pr.eta.real
        val = models.kappa_elliptic(alpha, pr)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestEllipticWeight:
    def setup_method(self):
        self.pr = physical_parameters(0.05, 0.5, 3)
        self.eta = self.pr.eta.real
        self.si, self.sj = Spin(0.8, 1), Spin(2.1, 0)
        self.alpha = 0.37 * self.eta

    def test_symmetry(self):
        w1 = models.weight_elliptic(self.alpha, self.si, self.sj, self.pr)
        w2 = models.weight_elliptic(self.alpha, self.sj, self.si, self.pr)
        assert abs(w1 - w2) <= 1e-14 * abs(w1)

    def test_inversion(self):
        prod = (models.weight_elliptic(self.alpha, self.si, self.sj, self.pr)
                * models.weight_elliptic(-self.alpha, self.si, self.sj, self.pr))
        assert abs(prod - 1.0) <= 1e-12

    def test_spin_transformations(self):
        w = models.weight_elliptic(self.alpha, self.si, self.sj, self.pr)
        flipped = models.weight_elliptic(
            self.alpha, Spin(-self.si.x, -self.si.m),
            Spin(-self.sj.x, -self.sj.m), self.pr)
        shifted = models.weight_elliptic(
            self.alpha, Spin(self.si.x + math.pi, self.si.m), self.sj, self.pr)
        wrapped = models.weight_elliptic(
            self.alpha, Spin(self.si.x, self.si.m + self.pr.r), self.sj, self.pr)
        for other in (flipped, shifted, wrapped):
            assert abs(w - other) <= 1e-13 * abs(w)

    def test_positive_in_physical_regime(self):
        w = models.weight_elliptic(self.alpha, self.si, self.sj, self.pr)
        assert abs(w.imag) <= 1e-14 * abs(w)
        assert w.real > 0

    def test_alpha_zero(self):
        assert models.weight_elliptic(0.0, self.si, self.sj, self.pr) == 1.0


class TestSingleSpinElliptic:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_two_forms_agree(self, r):
        rng = np.random.default_rng(100 + r)
        pr = physical_parameters(0.05, 0.5, r)
        for _ in range(12):
            s = Spin(float(rng.uniform(0.05, math.pi - 0.05)),
                     int(rng.integers(0, r // 2 + 1)))
            v1 = models.single_spin_elliptic(s, pr)
            v2 = models.single_spin_elliptic(s, pr, via_theta4=True)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_real_nonnegative(self):
        pr = physical_parameters(0.05, 0.5, 2)
        v = models.single_spin_elliptic(Spin(1.1, 1), pr)
        assert abs(v.imag) <= 1e-13 * abs(v)
        assert v.real > 0


class TestCentreWeight:
    @pytest.mark.parametrize("r", [1, 3, 4])
    def test_cached_equals_fresh(self, r):
        # S~ = S / (2 eps) bit for bit on S's domain 0 <= m <= r/2 (scaling
        # by a power of 2 is exact), and the mirror of it past r/2
        pr = physical_parameters(0.05, 0.5, r)
        x = np.linspace(0.0, math.pi, 33)
        m = np.arange(r)[:, None]
        models._centre_weight.cache_clear()
        cached = models.centre_weight(Spin(x, m), pr)
        assert models.centre_weight(Spin(x.copy(), m.copy()), pr) is cached
        assert models._centre_weight.cache_info().hits == 1
        for k in range(r):
            if k <= r // 2:
                single = models.single_spin_elliptic(Spin(x, k), pr,
                                                     via_theta4=True)
                fresh = single / (2 * models.epsilon_factor(k, r))
                assert np.array_equal(cached[k], fresh)
            else:
                mirror = models.single_spin_elliptic(
                    Spin(math.pi - x, r - k), pr, via_theta4=True) / 2
                assert np.allclose(cached[k], mirror, rtol=1e-14, atol=0)
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

    def test_cache_is_bounded(self):
        pr = physical_parameters(0.05, 0.5, 2)
        m = np.arange(2)[:, None]
        size = models._centre_weight.cache_info().maxsize
        assert size <= 64
        for n in range(16, 16 + 2 * size):
            models.centre_weight(Spin(np.linspace(0.0, 1.0, n), m), pr)
        assert models._centre_weight.cache_info().currsize == size


class TestQFunction:
    def test_against_brute_force(self):
        rng = np.random.default_rng(13)
        pr = physical_parameters(0.05, 0.5, 1)
        for n in (-3, -1, 0, 1, 2):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            val = models.q_function(z, n, pr)
            ref = brute_q_function(z, n, pr)
            assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_inversion(self):
        pr = physical_parameters(0.05, 0.5, 1)
        for n in (-2, 0, 3):
            z = 0.4 + 0.05j
            prod = models.q_function(z, n, pr) * models.q_function(-z, -n, pr)
            assert abs(prod - 1.0) <= 1e-12


class TestQLimitWeight:
    def setup_method(self):
        self.pr = physical_parameters(0.05, 0.5, 1)
        self.eta = self.pr.eta.real

    def test_symmetry_and_inversion(self):
        si, sj = Spin(0.6, -2), Spin(2.3, 1)
        a = 0.3 * self.eta
        w = models.weight_qlimit(a, si, sj, self.pr)
        assert abs(w - models.weight_qlimit(a, sj, si, self.pr)) <= 1e-13 * abs(w)
        prod = w * models.weight_qlimit(-a, si, sj, self.pr)
        assert abs(prod - 1.0) <= 1e-12

    def test_positive(self):
        w = models.weight_qlimit(0.4 * self.eta, Spin(0.6, -2), Spin(2.3, 1),
                                 self.pr)
        assert abs(w.imag) <= 1e-13 * abs(w)
        assert w.real > 0


def reference_weight(family, alpha, si, sj, pr):
    """W_alpha(si, sj) from the lens elliptic gamma function, or Q, at all
    four of its points; the spins may be arrays."""
    if family is ModelFamily.ELLIPTIC:
        def gamma(z, m):
            return lens_elliptic_gamma(z, m, pr)
    else:
        def gamma(z, m):
            return models.q_function(z, m, pr)
    dm, sm = si.m - sj.m, si.m + sj.m
    dx, sx = si.x - sj.x, si.x + sj.x
    ratio = (gamma(dx + 1j * alpha, dm) * gamma(sx + 1j * alpha, sm)
             / (gamma(dx - 1j * alpha, dm) * gamma(sx - 1j * alpha, sm)))
    if family is ModelFamily.ELLIPTIC:
        r = pr.r
        return (np.exp(-2 * alpha * (bracket_pm(dm, r) + bracket_pm(sm, r)) / r)
                / models.kappa_elliptic(alpha, pr) * ratio)
    return (np.exp(-2 * alpha * (np.abs(dm) + np.abs(sm)))
            / models.kappa_qlimit(alpha, pr) * ratio)


def rounding(alpha, pr):
    """Relative rounding allowed between two product forms of a weight: a
    few ulps, times the largest 1 / |1 - c| of its factors 1 - c; at real
    spins every |c| <= e^{-2 (eta - |alpha|)}, and c nears 1 (the pole
    lattice) as |alpha| nears eta."""
    return 8 * np.finfo(float).eps / -math.expm1(
        -2 * (pr.eta.real - abs(alpha)))


#: the families whose weights are products of gamma factors
PRODUCT_FAMILIES = [ModelFamily.ELLIPTIC, ModelFamily.Q_LIMIT]
conjugate_st = st.builds(
    lambda re, im, r: NomeParameters(complex(re, im), complex(-re, im), r),
    st.floats(-0.45, 0.45), st.floats(0.1, 1.5), st.integers(1, 6))
spin_st = st.builds(Spin, st.floats(0.0, math.pi, exclude_max=True),
                    st.integers(-6, 6))


class TestConjugateNomes:
    """At tau = -conj(sigma) the elliptic and q-limit weights evaluate half
    their gamma factors (the rest are conjugates); they must match the full
    product forms, and keep their pole guard."""

    @given(conjugate_st, st.floats(-0.99, 0.99), spin_st, spin_st,
           st.sampled_from(PRODUCT_FAMILIES))
    @settings(max_examples=150, deadline=None)
    def test_edge_weight_matches_full(self, pr, f, si, sj, family):
        alpha = f * pr.eta.real
        w = models.edge_weight(family, alpha, si, sj, pr)
        want = reference_weight(family, alpha, si, sj, pr)
        tol = rounding(alpha, pr)
        assert abs(w - want) <= tol * abs(want)
        assert abs(w.imag) <= tol * abs(w) and w.real > 0

    @given(conjugate_st, st.lists(st.floats(0.05, 1.0), min_size=3,
                                  max_size=3),
           st.tuples(spin_st, spin_st, spin_st),
           st.sampled_from(PRODUCT_FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_star_integrand_matches_full(self, pr, parts, spins, family):
        # crossed spectral parameters eta - alpha_i, sum alpha_i = eta
        eta = pr.eta.real
        crossed = [eta - eta * a / sum(parts) for a in parts]
        s0 = Spin(np.linspace(0.0, math.pi, 9), np.arange(pr.r)[:, None])
        v = models.star_integrand(family, s0, spins, crossed, pr)
        if family is ModelFamily.ELLIPTIC:
            want = models.centre_weight(s0, pr)
        else:
            want = models.single_spin_qlimit(s0, pr)
        tol = 0.0
        for a, s in zip(crossed, spins):
            want = want * reference_weight(family, a, s, s0, pr)
            tol += rounding(a, pr)
        # S(x0 = 0, m0 = 0) is a genuine zero, rounded apart by each form:
        # there only the scale of the other nodes is a measure
        assert np.all(np.abs(v - want)
                      <= tol * (np.abs(want) + np.abs(want).max() * 1e-3))

    @pytest.mark.parametrize("family", PRODUCT_FAMILIES)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("reduced", [True, False],
                             ids=["reduced", "full"])
    def test_pole_guard_on_both_paths(self, monkeypatch, family, sign,
                                      reduced):
        # alpha = +-eta with equal spins puts the edge row at 0 + i eta on
        # the pole lattice (a +i alpha row, or a -i alpha one); with the
        # predicate patched the full path runs at the same nomes
        pr = physical_parameters(0.05, 0.5, 2)
        if not reduced:
            monkeypatch.setattr(models, "_conjugate_nomes", lambda pr: False)
        s = Spin(0.7, 1)
        with pytest.raises(PoleHitError):
            models.edge_weight(family, sign * pr.eta.real, s, s, pr)
        with pytest.raises(PoleHitError):
            reference_weight(family, sign * pr.eta.real, s, s, pr)

    @pytest.mark.parametrize("family", PRODUCT_FAMILIES)
    def test_far_off_axis_raises(self, family):
        # |Q| or |v1| past 1e154 at alpha far beyond eta: the squares
        # overflow, which must raise rather than pass an inf on
        pr = physical_parameters(0.05, 0.5, 3)
        with pytest.raises(NonConvergenceError):
            models.edge_weight(family, 40.0, Spin(0.3, 1), Spin(1.2, 0), pr)

    @pytest.mark.parametrize("reduced", [True, False],
                             ids=["reduced", "full"])
    def test_single_spin_zero_not_guarded(self, monkeypatch, reduced):
        # S has a genuine double zero at x0 = 0, m0 = 0, a node of the
        # rinfstr trapezoid: Q's numerator vanishes there
        pr = physical_parameters(0.05, 0.5, 1)
        if not reduced:
            monkeypatch.setattr(models, "_conjugate_nomes", lambda pr: False)
        eta = pr.eta.real
        spins = (Spin(0.4, 0), Spin(1.3, 1), Spin(2.2, -1))
        v = models.star_integrand(
            ModelFamily.Q_LIMIT, Spin(np.array([0.0, 0.5]),
                                      np.array([[0], [1]])),
            spins, [0.6 * eta, 0.7 * eta, 0.7 * eta], pr)
        assert abs(v[0, 0]) <= 1e-12 * abs(v).max()


class TestGammaWeight:
    def test_symmetry_and_inversion(self):
        si, sj = Spin(0.5, 0), Spin(1.0, 1)
        w = models.weight_gamma(0.4, si, sj)
        assert abs(w - models.weight_gamma(0.4, sj, si)) <= 1e-13 * abs(w)
        assert abs(w * models.weight_gamma(-0.4, si, sj) - 1.0) <= 1e-12

    def test_direct_gamma_oracle(self):
        # independent arrangement in terms of Euler gamma values
        a, si, sj = 0.3, Spin(0.5, 0), Spin(1.0, 1)
        sm, dm = si.m + sj.m, si.m - sj.m
        sx, dx = si.x + sj.x, si.x - sj.x

        def pair(base, off):
            return (euler_gamma(complex(base, off / 2))
                    * euler_gamma(complex(base, -off / 2)))

        ref = (euler_gamma((1 + a) / 2) / euler_gamma((1 - a) / 2)
               * pair((1 - a - sm) / 2, sx) * pair((1 - a - dm) / 2, dx)
               / (pair((1 + a - sm) / 2, sx) * pair((1 + a - dm) / 2, dx)))
        val = models.weight_gamma(a, si, sj)
        assert abs(val - ref.real) <= 1e-12 * abs(ref.real)

    def test_pole_detection(self):
        # alpha and spins aligned so a gamma argument is a non-positive integer
        with pytest.raises(PoleHitError):
            models.weight_gamma(1.0, Spin(0.0, 0), Spin(0.0, 0))

    def test_single_spin(self):
        assert models.single_spin_gamma(Spin(2.0, 1)) == pytest.approx(
            5.0 / (4 * math.pi))


class TestDispatchers:
    def test_edge_weight_matches_family(self):
        pr = physical_parameters(0.05, 0.5, 2)
        si, sj = Spin(0.7, 1), Spin(1.9, 0)
        a = 0.3 * pr.eta.real
        assert models.edge_weight(ModelFamily.ELLIPTIC, a, si, sj, pr) == \
            models.weight_elliptic(a, si, sj, pr)
        assert models.edge_weight(ModelFamily.Q_LIMIT, a, si, sj, pr) == \
            models.weight_qlimit(a, si, sj, pr)
