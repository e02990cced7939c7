"""Tail bounds against an independent 30-digit oracle, and the truncation
caps.

The oracle multiplies each defining product out with mpmath at 30 digits,
factor by factor, until its factors drop below ORACLE_CUTOFF; what it
leaves out is far below double precision.  A computed value passes when
it lies within its returned tail bound plus SLACK times the oracle's
magnitude.  SLACK covers the rounding of double precision and nothing
else: the tail bounds themselves are near 1e-16.

The normalisations kappa are exponentials of bilateral series; the oracle
sums each defining series term by term at 30 digits, with no rewriting,
until its terms drop below ORACLE_CUTOFF, and kappa must match it to
KAPPA_REL relative.

Rounding is amplified near a zero of a factor, which no truncation bound
covers, so a draw with a factor within MARGIN of zero is not compared.
The pole guard is checked there instead, both ways: a PoleHitError must
come with a factor within 2 * POLE_FACTOR_EPS of zero, and a guarded
function must raise it when a factor is within POLE_FACTOR_EPS / 2.
"""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lenstri import models, numerics
from lenstri import special_functions as sf
from lenstri.params import (
    DEFAULT_POLICY,
    ContourViolationError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
    TruncationPolicy,
    physical_parameters,
)

DPS = 30
ORACLE_CUTOFF = mp.mpf("1e-25")
#: relative rounding allowed on top of the returned tail bound
SLACK = 1e-12
#: smallest |1 - x| over the factors of a draw that is compared
MARGIN = 1e-2
#: relative error allowed of kappa against its 30-digit series
KAPPA_REL = 1e-13


class Product:
    """A 30-digit product of factors (1 - x), with the smallest |1 - x|."""

    def __init__(self):
        self.value = mp.mpc(1)
        self.margin = mp.inf

    def pochhammer(self, x, q):
        """Multiply in (x; q)_inf = prod_{j>=0} (1 - x q^j)."""
        x, q = mp.mpc(x), mp.mpc(q)
        while abs(x) >= ORACLE_CUTOFF:
            self.value *= 1 - x
            self.margin = min(self.margin, abs(1 - x))
            x *= q
        return self

    def double(self, c, a, b):
        """Multiply in prod_{j,k>=0} (1 - c a^j b^k), row by row."""
        row, a = mp.mpc(c), mp.mpc(a)
        while abs(row) >= ORACLE_CUTOFF:
            self.pochhammer(row, b)
            row *= a
        return self

    def __truediv__(self, other):
        out = Product()
        out.value = self.value / other.value if other.value else mp.inf
        out.margin = min(self.margin, other.margin)
        return out

    def __mul__(self, other):
        out = Product()
        out.value = self.value * other.value
        out.margin = min(self.margin, other.margin)
        return out


def pole_checked(evaluate, margin, guarded):
    """evaluate(), or None after a PoleHitError that the margin explains;
    a guarded evaluation must raise it at a margin below the guard's."""
    try:
        out = evaluate()
    except PoleHitError:
        assert guarded and margin < 2 * sf.POLE_FACTOR_EPS
        return None
    assert not (guarded and margin < sf.POLE_FACTOR_EPS / 2)
    assume(margin >= MARGIN)
    return out


def compare(evaluate, oracle, guarded):
    """evaluate() -> (value, bound) against the oracle Product."""
    with mp.workdps(DPS):
        want = oracle()
        out = pole_checked(evaluate, want.margin, guarded)
        if out is not None:
            value, bound = out
            assert (abs(mp.mpc(value) - want.value)
                    <= bound + SLACK * abs(want.value))


def nome(max_abs):
    """A complex nome with 0 < |q| <= max_abs."""
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     st.floats(1e-3, max_abs), st.floats(-math.pi, math.pi))


def arg_z(max_im):
    return st.builds(complex, st.floats(-math.pi, math.pi),
                     st.floats(-max_im, max_im))


def modular(min_im):
    return st.builds(complex, st.floats(-0.5, 0.5), st.floats(min_im, 0.7))


def lens_params(min_im):
    return st.builds(NomeParameters, modular(min_im), modular(min_im),
                     st.integers(1, 32))


def elliptic_gamma(z, p, q):
    """prod_{j,k>=0} (1 - e^{2iz} p^{2j+1} q^{2k+1})
                   / (1 - e^{-2iz} p^{2j+1} q^{2k+1})"""
    e2 = mp.exp(2j * mp.mpc(z))
    return (Product().double(e2 * p * q, p * p, q * q)
            / Product().double(p * q / e2, p * p, q * q))


def pi_times(x):
    return mp.pi * mp.mpc(x)


def mp_exp_i(x):
    return mp.exp(1j * mp.mpc(x))


class TestAgainstOracle:
    @given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1,
                    max_size=3), nome(0.5), nome(0.5))
    @settings(max_examples=30, deadline=None)
    def test_log_product_2d(self, cs, a, b):
        # |c| up to 10 gives staircases of several rows, each of several
        # factors; the batch takes them from its largest |c|
        cs = np.array(cs, complex)
        with mp.workdps(DPS):
            wants = [Product().double(c, a, b) for c in cs]
            out = pole_checked(
                lambda: sf._log_product_2d(cs, a, b, DEFAULT_POLICY),
                min(w.margin for w in wants), guarded=True)
            if out is None:
                return
            for lg, tail, want in zip(*out, wants):
                diff = mp.mpc(lg) - mp.log(want.value)
                # the two logs may sit on different branches
                diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))
                assert abs(diff) <= tail + SLACK

    @given(arg_z(1.0), nome(0.7071), nome(0.7071))
    @settings(max_examples=25, deadline=None)
    def test_elliptic_gamma(self, z, p, q):
        compare(lambda: sf.elliptic_gamma(z, p, q, with_bound=True),
                lambda: elliptic_gamma(z, mp.mpc(p), mp.mpc(q)), guarded=True)

    # Im sigma, Im tau >= 0.112 keep the ratios (pq)^2 and p^{2r} below 0.25
    @given(arg_z(0.3), st.integers(-64, 64), lens_params(0.112))
    @settings(max_examples=20, deadline=None)
    def test_lens_elliptic_gamma(self, z, m, params):
        def oracle():
            r = params.r
            p, q = mp_exp_i(pi_times(params.sigma)), mp_exp_i(pi_times(params.tau))
            shift = mp.mpf(r) / 2 - m % r
            return (elliptic_gamma(z + shift * pi_times(params.sigma), p * q,
                                   p ** r)
                    * elliptic_gamma(z - shift * pi_times(params.tau), p * q,
                                     q ** r))
        compare(lambda: sf.lens_elliptic_gamma(z, m, params, with_bound=True),
                oracle, guarded=True)

    # Im sigma, Im tau >= 0.221 keep the ratios pq and p^r at most 0.5
    @given(arg_z(0.3), st.integers(-64, 64), lens_params(0.221))
    @settings(max_examples=20, deadline=None)
    def test_lens_gamma_appendix(self, z, m, params):
        def oracle():
            r = params.r
            sigma, tau = mp.mpc(params.sigma), mp.mpc(params.tau)
            p, q = mp_exp_i(pi_times(sigma)), mp_exp_i(pi_times(tau))
            pq, ei = p * q, mp_exp_i(z)
            br, brm = m % r, -m % r
            eta = -1j * mp.pi * (sigma + tau) / 2
            zeta = 1j * mp.pi * (1 + tau / 2 - sigma / 2)
            phi = ((-2 * eta - 2j * mp.mpc(z) + 2 * zeta * (br - brm) / 3)
                   * br * brm / (4 * r))
            out = (Product().double(pq * p ** (r - br) / ei, pq, p ** r)
                   / Product().double(ei * p ** br, pq, p ** r)
                   * Product().double(pq * q ** br / ei, pq, q ** r)
                   / Product().double(ei * q ** (r - br), pq, q ** r))
            out.value *= mp.exp(phi)
            return out
        compare(lambda: sf.lens_gamma_appendix(z, m, params, with_bound=True),
                oracle, guarded=True)

    @given(arg_z(0.5), nome(0.9487))
    @settings(max_examples=30, deadline=None)
    def test_theta4(self, z, p):
        # ratio p^2 up to 0.9
        def oracle():
            e2, mp_p = mp.exp(2j * mp.mpc(z)), mp.mpc(p)
            p2 = mp_p * mp_p
            return (Product().pochhammer(p2, p2)
                    * Product().pochhammer(e2 * mp_p, p2)
                    * Product().pochhammer(mp_p / e2, p2))
        compare(lambda: sf.theta4(z, p, with_bound=True), oracle,
                guarded=False)

    @given(st.complex_numbers(max_magnitude=10.0), nome(0.9))
    @settings(max_examples=30, deadline=None)
    def test_qpochhammer_inf(self, x, q):
        compare(lambda: sf.qpochhammer_inf(x, q, with_bound=True),
                lambda: Product().pochhammer(x, q), guarded=False)

    @given(arg_z(0.3), st.integers(-64, 64),
           st.builds(NomeParameters, modular(0.112),
                     # Im tau >= 0.0336 keeps |q| <= 0.9
                     st.builds(complex, st.floats(-0.5, 0.5),
                               st.floats(0.0336, 0.7)),
                     st.integers(1, 32)))
    @settings(max_examples=30, deadline=None)
    def test_lens_theta(self, z, m, params):
        def oracle():
            r = params.r
            tau = mp.mpc(params.tau)
            q = mp_exp_i(pi_times(tau))
            brm = -m % r
            zeta = 1j * mp.pi * (1 + tau / 2 - mp.mpc(params.sigma) / 2)
            phi = (zeta * (r - 1) * (r + 1) / 3
                   - 1j * mp.pi * (tau + 2) * (m % r) * brm
                   - 1j * (mp.mpc(z) + mp.pi) * (r - 1 - 2 * brm)) / (2 * r)
            out = (Product().pochhammer(mp_exp_i(z) * q ** brm, q ** r)
                   * Product().pochhammer(mp_exp_i(-z) * q ** (r - brm),
                                          q ** r))
            out.value *= mp.exp(phi)
            return out
        compare(lambda: sf.lens_theta(z, m, params, with_bound=True), oracle,
                guarded=False)


def kappa_oracle(alpha, pr, limit):
    """kappa_elliptic (limit=False) or kappa_qlimit (limit=True) from the
    defining series, summed at 30 digits."""
    with mp.workdps(DPS):
        p, q, r = mp.mpc(pr.p), mp.mpc(pr.q), pr.r
        # (e^{4 alpha}, pq, (pq)^2, p^r, q^r) to the power n = 1, 2, ...
        step = (mp.exp(4 * mp.mpf(alpha)), (p * q) ** r, (p * q) ** 2,
                p ** r, q ** r)
        power, total, n = step, mp.mpc(0), 1
        while True:
            size = 0
            for m, (e, wr, w2, pr_, qr) in ((n, power),
                                            (-n, [1 / x for x in power])):
                if limit:
                    term = -e / (m * (power[2] - 1 / power[2]))
                else:
                    term = (e * (wr - 1 / wr) / (m * (w2 - 1 / w2)
                                                 * (pr_ - 1 / pr_)
                                                 * (qr - 1 / qr)))
                total += term
                size += abs(term)
            if size < ORACLE_CUTOFF:
                return mp.exp(total)
            power, n = [x * y for x, y in zip(power, step)], n + 1


def assert_kappa(alpha, pr):
    for kappa, limit in ((models.kappa_elliptic, False),
                         (models.kappa_qlimit, True)):
        want = kappa_oracle(alpha, pr, limit)
        with mp.workdps(DPS):
            assert (abs(mp.mpc(kappa(alpha, pr)) - want)
                    <= KAPPA_REL * abs(want))


class TestKappaAgainstOracle:
    @given(st.builds(NomeParameters, modular(0.3), modular(0.3),
                     st.integers(1, 4)),
           st.floats(-0.995, 0.995))
    @settings(max_examples=20, deadline=None)
    def test_kappa(self, pr, fraction):
        # the terms fall by e^{-4(Re eta - |alpha|)}: slowest near the end
        assert_kappa(fraction * pr.eta.real, pr)

    @pytest.mark.parametrize("r,fraction", [(1, 0.995), (2, -0.995),
                                            (3, 0.995), (4, -0.995)])
    def test_kappa_near_eta(self, r, fraction):
        pr = physical_parameters(0.05, 0.5, r)
        assert_kappa(fraction * pr.eta.real, pr)


class TestCaps:
    """A truncation cap that is hit raises NonConvergenceError rather than
    truncating silently."""

    small = TruncationPolicy(max_product_index=5, max_sum_terms=5)

    def test_peel_count(self):
        # 10 * 0.5^j >= 0.05 for j < 8: eight rows to multiply out
        with pytest.raises(NonConvergenceError, match="product needs"):
            sf._log_product_2d(10.0, 0.5, 0.5, self.small)
        sf._log_product_2d(10.0, 0.5, 0.5, DEFAULT_POLICY)

    def test_staircase_total(self):
        # 0.9 * 0.8^(j+k) >= 0.05 for j + k < 13: 13 rows of at most 13
        # factors and a 12-term series each fit a cap of 20, their 91
        # factors in all do not
        policy = TruncationPolicy(max_product_index=20)
        with pytest.raises(NonConvergenceError, match="product needs"):
            sf._log_product_2d(0.9, 0.8, 0.8, policy)
        sf._log_product_2d(0.9, 0.8, 0.8, DEFAULT_POLICY)

    def test_series_length(self):
        # nothing to multiply out, but 0.01^{N+1} <= 1e-16 takes N = 7
        with pytest.raises(NonConvergenceError, match="log series needs"):
            sf._log_product_2d(0.01, 0.5, 0.5, self.small)
        sf._log_product_2d(0.01, 0.5, 0.5, DEFAULT_POLICY)

    def test_single_product(self):
        with pytest.raises(NonConvergenceError, match="product needs"):
            sf.qpochhammer_inf(0.5, 0.9, self.small)

    def test_bilateral_sum(self):
        def f(n):
            return 2.0 ** -abs(n)
        with pytest.raises(NonConvergenceError):
            numerics.bilateral_sum(f, 1e-14, max_terms=self.small.max_sum_terms)
        assert numerics.bilateral_sum(f, 1e-14).value == pytest.approx(3.0)

    def test_kappa_elliptic(self):
        pr = physical_parameters(0.05, 0.5, 2)
        alpha = 0.3 * pr.eta.real
        with pytest.raises(NonConvergenceError):
            models.kappa_elliptic(alpha, pr, self.small)
        models.kappa_elliptic(alpha, pr, DEFAULT_POLICY)

    def test_term_count_of_a_huge_argument(self):
        # eps / ac underflows to 0 for ac above about 2e307; the count
        # must come from the difference of the logs
        assert sf._term_count(1e308, 0.6, 1e-16, 10_000) == math.ceil(
            (math.log(1e-16) - math.log(1e308)) / math.log(0.6))


#: the errors by which a lenstri evaluation refuses an input
LENSTRI_ERRORS = (InvalidParameterError, NonConvergenceError, PoleHitError,
                  ContourViolationError)


#: the largest nome magnitude drawn, and the least Im sigma that keeps
#: |p| = e^{-pi Im sigma} at or below it
NEAR_UNIT = 1 - 1e-6
NEAR_UNIT_IM = -math.log(NEAR_UNIT) / math.pi


def answered(evaluate):
    """evaluate() returns or raises a lenstri error; any other exception
    or a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            evaluate()
        except LENSTRI_ERRORS:
            pass


class TestEveryInputAnswered:
    """Every public special function returns a value or raises a lenstri
    error, for nomes up to 1 - 1e-6 in magnitude and |Im z| up to 700;
    the caps bound the work that takes."""

    z_st = arg_z(700.0)
    m_st = st.integers(-8, 8)

    @given(z_st, nome(NEAR_UNIT), nome(NEAR_UNIT))
    @settings(max_examples=40, deadline=None)
    def test_elliptic_gamma(self, z, p, q):
        answered(lambda: sf.elliptic_gamma(z, p, q))

    # e^{-2iz} p within a factor 10 of the largest double
    @example(3.24 + 354.3j, NomeParameters(0.48 + 0.082j, -0.48 + 0.082j).p)
    @given(z_st, nome(NEAR_UNIT))
    @settings(max_examples=40, deadline=None)
    def test_theta4(self, z, p):
        answered(lambda: sf.theta4(z, p))

    @given(z_st, nome(NEAR_UNIT))
    @settings(max_examples=40, deadline=None)
    def test_qpochhammer_inf(self, z, q):
        answered(lambda: sf.qpochhammer_inf(cmath.exp(1j * z), q))

    @pytest.mark.parametrize("evaluate", [
        sf.lens_elliptic_gamma, sf.lens_gamma_appendix, sf.lens_theta,
        models.q_function])
    @example(z=3.24 + 354.3j, m=-2,
             params=NomeParameters(0.48 + 0.082j, -0.35 + 3.55e-7j, 4))
    @given(z=z_st, m=m_st, params=lens_params(NEAR_UNIT_IM))
    @settings(max_examples=40, deadline=None)
    def test_lens_functions(self, evaluate, z, m, params):
        answered(lambda: evaluate(z, m, params))


def peel_count_loop(ac, ratio, cap, used=0):
    """The staircase row count by counting, term by term: the reference
    for the count from logs."""
    n = 0
    while ac * ratio ** n >= sf._PEEL:
        n += 1
        if used + n > cap:
            raise NonConvergenceError("cap")
    return n


def series_length_loop(largest, eps, cap):
    """The log-series length by counting, term by term."""
    n = 0
    while largest ** (n + 1) > eps:
        n += 1
        if n > cap:
            raise NonConvergenceError("cap")
    return n


def outcome(f, *args):
    try:
        return f(*args)
    except NonConvergenceError:
        return "cap"


class TestStaircaseCounts:
    """The staircase counts come from logs; they must be what counting term
    by term gives, at exact boundaries ac ratio^k = _PEEL too."""

    caps = st.integers(1, 12_000)

    @settings(max_examples=200, deadline=None)
    @given(ac=st.floats(1e-3, 1e3),
           ratio=st.one_of(st.just(0.0), st.floats(0.0, 0.999),
                           st.sampled_from([0.5, 0.25, 0.125, 0.999])),
           cap=caps, used=st.integers(0, 12_000))
    def test_peel_count(self, ac, ratio, cap, used):
        used = min(used, cap)
        assert (outcome(sf._peel_count, ac, ratio, cap, used)
                == outcome(peel_count_loop, ac, ratio, cap, used))

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(0, 60),
           ratio=st.one_of(st.floats(0.05, 0.999),
                           st.sampled_from([0.5, 0.25, 0.125])),
           cap=caps, used=st.integers(0, 100))
    def test_peel_count_at_a_boundary(self, k, ratio, cap, used):
        # a power-of-two ratio puts ac ratio^k on _PEEL exactly
        ac = sf._PEEL / ratio ** k
        used = min(used, cap)
        for x in (ac, math.nextafter(ac, 0.0), math.nextafter(ac, math.inf)):
            assert (outcome(sf._peel_count, x, ratio, cap, used)
                    == outcome(peel_count_loop, x, ratio, cap, used))

    @settings(max_examples=200, deadline=None)
    @given(largest=st.floats(0.0, sf._PEEL, exclude_max=True),
           eps=st.floats(1e-300, 1e-1), cap=st.integers(1, 300))
    def test_series_length(self, largest, eps, cap):
        assert (outcome(sf._series_length, largest, eps, cap)
                == outcome(series_length_loop, largest, eps, cap))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 40), largest=st.floats(1e-3, sf._PEEL,
                                                   exclude_max=True))
    def test_series_length_at_a_boundary(self, n, largest):
        eps = largest ** (n + 1)
        for e in (eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)):
            if e > 0.0:
                assert (outcome(sf._series_length, largest, e, 10_000)
                        == outcome(series_length_loop, largest, e, 10_000))
