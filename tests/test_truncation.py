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

The lens functions' draws moved near the pole lattice check the guard
alone.  The only such draw that is not within MARGIN of a zero sits at
MARGIN, often far off the real axis, and there the roughly 6e-16
rounding of the function's own double inputs (its shifted phases and
p^r, q^r) is amplified past SLACK: at r = 4, sigma = tau = 0.25+0.2i,
z = -0.78-8.17i, lens_elliptic_gamma is off by 3.0e-12 relative, yet
within 4e-14 of the 30-digit products taken at those double inputs.
"""

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lenstri import models, numerics
from lenstri import special_functions as sf
from lenstri.params import (
    ContourViolationError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
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


def compare(evaluate, oracle, guarded, near=False):
    """evaluate() -> (value, bound) against the oracle Product.

    A value above the largest double must raise NonConvergenceError, a
    value below the least subnormal may (it underflows), and no other
    value may.  A draw moved near the pole lattice (near) checks the pole
    guard and that error alone, not the value."""
    with mp.workdps(DPS):
        want = oracle()
        big = abs(want.value) > sys.float_info.max
        tiny = abs(want.value) < math.ulp(0.0)
        try:
            out = pole_checked(evaluate, want.margin, guarded)
        except NonConvergenceError:
            assert big or tiny
            return
        assert out is None or not big
        if out is not None and not near:
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


def near_factor(k_max):
    """(in_den, j, k, e, t): a factor (j, k), j <= 2, k <= k_max, of a
    denominator (in_den) or a numerator product that a draw places 10^e
    e^{it} from zero."""
    return st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, k_max),
                     st.floats(-16.0, -2.0), st.floats(-math.pi, math.pi))


def lattice_phase(g, in_den, e, t):
    """The phase e2 at which the factor 1 - e2 g of a numerator (or
    1 - g / e2 of a denominator, in_den) is 10^e e^{it}."""
    x = 1 - 10 ** e * cmath.exp(1j * t)
    return g / x if in_den else x / g


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
                lambda: sf._log_product_2d(cs, a, b),
                min(w.margin for w in wants), guarded=True)
            if out is None:
                return
            for lg, tail, want in zip(*out, wants):
                diff = mp.mpc(lg) - mp.log(want.value)
                # the two logs may sit on different branches
                diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))
                assert abs(diff) <= tail + SLACK

    @given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1,
                    max_size=3), nome(0.9))
    @settings(max_examples=30, deadline=None)
    def test_log_product_single(self, cs, a):
        # b = 0: the single product (c; a)_inf, unguarded, as Q takes it; a
        # staircase of rows of one factor each, up to about 50 of them
        cs = np.array(cs, complex)
        with mp.workdps(DPS):
            wants = [Product().pochhammer(c, a) for c in cs]
            out = pole_checked(
                lambda: sf._log_product_2d(cs, a, 0.0, False),
                min(w.margin for w in wants), guarded=False)
            for lg, tail, want in zip(*out, wants):
                diff = mp.mpc(lg) - mp.log(want.value)
                diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))
                assert abs(diff) <= tail + SLACK

    # Im(sigma + tau) >= 0.0336 keeps |pq| <= 0.9, the ratio (pq)^2 <= 0.81.
    # near, when drawn, is (in_den, j, e, t): z is moved so that the factor
    # j of the denominator (in_den) or of the numerator is 10^e e^{it} from
    # zero
    @example(z=0j, n=0, params=physical_parameters(0.05, 0.5, 1),
             near=(True, 1, -16.0, 0.0))
    @given(arg_z(0.3), st.integers(-3, 3),
           st.builds(NomeParameters, modular(0.0168), modular(0.0168)),
           st.none() | st.tuples(st.booleans(), st.integers(0, 2),
                                 st.floats(-16.0, -2.0),
                                 st.floats(-math.pi, math.pi)))
    @settings(max_examples=60, deadline=None)
    def test_q_function(self, z, n, params, near):
        cn, cd = ((params.q, params.p) if n >= 0
                  else (params.p, params.q))
        cn, cd = cn ** (2 * abs(n)), cd ** (2 * abs(n))
        if near is not None:
            in_den, j, e, t = near
            g = (params.p * params.q) ** (2 * j + 1)
            # the factor is 1 - x
            x = 1 - 10 ** e * cmath.exp(1j * t)
            z = cmath.log(cd * g / x if in_den else x / (cn * g)) / 2j
        with mp.workdps(DPS):
            p = mp_exp_i(pi_times(params.sigma))
            q = mp_exp_i(pi_times(params.tau))
            pq, e2 = p * q, mp_exp_i(2 * mp.mpc(z))
            mn, md = (q, p) if n >= 0 else (p, q)
            num = Product().pochhammer(e2 * mn ** (2 * abs(n)) * pq, pq * pq)
            den = Product().pochhammer(md ** (2 * abs(n)) * pq / e2, pq * pq)
            # q_function guards its denominator only: a numerator factor at
            # zero is a genuine zero of Q
            value = pole_checked(lambda: models.q_function(z, n, params),
                                 den.margin, guarded=True)
            if value is None:
                return
            assume(num.margin >= MARGIN)
            want = (num / den).value
            # q_function returns no bound: its tails, below 1e-13 here, are
            # within SLACK
            assert abs(mp.mpc(value) - want) <= SLACK * abs(want)

    # near, when drawn, is (in_den, j, k, e, t): z is moved so that the
    # factor (j, k) of the denominator (in_den) or of the numerator is
    # 10^e e^{it} from zero; both products are guarded
    @given(arg_z(1.0), nome(0.7071), nome(0.7071),
           st.none() | near_factor(2))
    @settings(max_examples=50, deadline=None)
    def test_elliptic_gamma(self, z, p, q, near):
        if near is not None:
            in_den, j, k, e, t = near
            e2 = lattice_phase(p ** (2 * j + 1) * q ** (2 * k + 1), in_den,
                               e, t)
            z = cmath.log(e2) / 2j
        compare(lambda: sf.elliptic_gamma(z, p, q, with_bound=True),
                lambda: elliptic_gamma(z, mp.mpc(p), mp.mpc(q)), guarded=True)

    # Im sigma, Im tau >= 0.112 keep the ratios (pq)^2 and p^{2r} below 0.25.
    # near, when drawn, is (second, in_den, j, k, e, t): z is moved so that
    # the factor (j, k) of the denominator (in_den) or of the numerator of
    # the first (pq, p^r) or the second (pq, q^r) elliptic gamma factor is
    # 10^e e^{it} from zero, at r = 1..4 (a larger r puts the lattice far
    # off the real axis); all four products are guarded, and the draw
    # checks the guard alone (module docstring).  The first example is
    # below the least subnormal, the second a subnormal value that the
    # rounding to the subnormal grid moves by 2e-324, the last two are
    # beyond the largest double
    @example(z=-0.39269908169872464 + 19.577097397290995j, m=2,
             params=NomeParameters(0.25 + 0.112j, 0.5 + 0.7j, 4), near=None)
    @example(z=3.016725966225626 + 25.560998813366894j, m=6,
             params=NomeParameters(-0.169144080582724 + 0.45520794763152134j,
                                   0.3836102227979262 + 0.28666730090294995j,
                                   6), near=None)
    @example(z=0j, m=0, params=NomeParameters(0.5j, 0.5j, 4),
             near=(False, (False, 2, 1, -2.0, 0.0)))
    @example(z=0j, m=0, params=NomeParameters(0.625j, 0.125j, 4),
             near=(False, (False, 2, 1, -2.0, 0.0)))
    @example(z=0j, m=0, params=NomeParameters(0.5j, 0.125j, 4),
             near=(False, (False, 2, 1, -2.0, 0.0)))
    @given(arg_z(0.3), st.integers(-64, 64), lens_params(0.112),
           st.none() | st.tuples(st.booleans(), near_factor(1)))
    @settings(max_examples=40, deadline=None)
    def test_lens_elliptic_gamma(self, z, m, params, near):
        if near is not None:
            (second, (in_den, j, k, e, t)), r = near, 1 + (params.r - 1) % 4
            params = NomeParameters(params.sigma, params.tau, r)
            p, q = params.p, params.q
            # the factor's argument z -+ (r/2 - [[m]]) pi sigma (or tau)
            shift = (r / 2 - m % r) * math.pi * (
                -params.tau if second else params.sigma)
            e2 = lattice_phase((p * q) ** (2 * j + 1)
                               * (q if second else p) ** (r * (2 * k + 1)),
                               in_den, e, t)
            z = cmath.log(e2) / 2j - shift

        def oracle():
            r = params.r
            p, q = mp_exp_i(pi_times(params.sigma)), mp_exp_i(pi_times(params.tau))
            shift = mp.mpf(r) / 2 - m % r
            return (elliptic_gamma(z + shift * pi_times(params.sigma), p * q,
                                   p ** r)
                    * elliptic_gamma(z - shift * pi_times(params.tau), p * q,
                                     q ** r))
        compare(lambda: sf.lens_elliptic_gamma(z, m, params, with_bound=True),
                oracle, guarded=True, near=near is not None)

    # Im sigma, Im tau >= 0.221 keep the ratios pq and p^r at most 0.5.
    # near, when drawn, is (second, in_den, j, k, e, t): z is moved so that
    # the factor (j, k) of the denominator (in_den) or of the numerator of
    # the (pq, p^r) or the second (pq, q^r) product pair is 10^e e^{it}
    # from zero, at r = 1..4; numerators and denominators are all guarded,
    # and the draw checks the guard alone (module docstring); the example
    # is below the least subnormal
    @example(z=0.3217289637428391 - 34.326690596837246j, m=2,
             params=NomeParameters(-0.424870207745477 + 0.4629983608159871j,
                                   -0.2091784495806044 + 0.56492009262349j,
                                   4), near=None)
    @given(arg_z(0.3), st.integers(-64, 64), lens_params(0.221),
           st.none() | st.tuples(st.booleans(), near_factor(1)))
    @settings(max_examples=40, deadline=None)
    def test_lens_gamma_appendix(self, z, m, params, near):
        if near is not None:
            (second, (in_den, j, k, e, t)), r = near, 1 + (params.r - 1) % 4
            params = NomeParameters(params.sigma, params.tau, r)
            p, q = params.p, params.q
            br = m % r
            # denominator e^{iz} a, numerator (pq / e^{iz}) b, times
            # (pq)^j (p^r or q^r)^k
            a, b = ((q ** (r - br), q ** br) if second
                    else (p ** br, p ** (r - br)))
            g = (p * q) ** j * (q if second else p) ** (r * k)
            z = cmath.log(lattice_phase(a * g if in_den else p * q * b * g,
                                        not in_den, e, t)) / 1j

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
                oracle, guarded=True, near=near is not None)

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
    truncating silently; each test lowers the cap in the module that reads
    it, then checks the default cap."""

    def test_peel_count(self, monkeypatch):
        # 10 * 0.5^j >= 0.05 for j < 8: eight rows to multiply out
        monkeypatch.setattr(sf, "MAX_PRODUCT_INDEX", 5)
        with pytest.raises(NonConvergenceError, match="product needs"):
            sf._log_product_2d(10.0, 0.5, 0.5)
        monkeypatch.undo()
        sf._log_product_2d(10.0, 0.5, 0.5)

    def test_staircase_total(self, monkeypatch):
        # 0.9 * 0.8^(j+k) >= 0.05 for j + k < 13: 13 rows of at most 13
        # factors and a 12-term series each fit a cap of 20, their 91
        # factors in all do not
        monkeypatch.setattr(sf, "MAX_PRODUCT_INDEX", 20)
        with pytest.raises(NonConvergenceError, match="product needs"):
            sf._log_product_2d(0.9, 0.8, 0.8)
        monkeypatch.undo()
        sf._log_product_2d(0.9, 0.8, 0.8)

    def test_series_length(self, monkeypatch):
        # nothing to multiply out, but 0.01^{N+1} <= 1e-16 takes N = 7
        monkeypatch.setattr(sf, "MAX_PRODUCT_INDEX", 5)
        with pytest.raises(NonConvergenceError, match="log series needs"):
            sf._log_product_2d(0.01, 0.5, 0.5)
        monkeypatch.undo()
        sf._log_product_2d(0.01, 0.5, 0.5)

    def test_single_product(self, monkeypatch):
        monkeypatch.setattr(sf, "MAX_PRODUCT_INDEX", 5)
        with pytest.raises(NonConvergenceError, match="product needs"):
            sf.qpochhammer_inf(0.5, 0.9)
        monkeypatch.undo()
        sf.qpochhammer_inf(0.5, 0.9)

    def test_bilateral_sum(self):
        def f(n):
            return 2.0 ** -abs(n)
        with pytest.raises(NonConvergenceError):
            numerics.bilateral_sum(f, 1e-14, max_terms=5)
        assert numerics.bilateral_sum(f, 1e-14).value == pytest.approx(3.0)

    def test_kappa_elliptic(self, monkeypatch):
        pr = physical_parameters(0.05, 0.5, 2)
        alpha = 0.3 * pr.eta.real
        # kappa is cached per (alpha, params): a value cached under the
        # other cap would hide the count
        models.kappa_elliptic.cache_clear()
        monkeypatch.setattr(models, "MAX_SUM_TERMS", 5)
        with pytest.raises(NonConvergenceError, match="kappa series needs"):
            models.kappa_elliptic(alpha, pr)
        monkeypatch.undo()
        models.kappa_elliptic.cache_clear()
        models.kappa_elliptic(alpha, pr)

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
    # the exponential prefactor overflows double precision: lens_theta's
    # e^{phi} c1 c2, lens_gamma_appendix's exp of phi and the product logs
    @example(z=168j, m=0, params=NomeParameters(0.5j, 0.625j, 10))
    @example(z=50j, m=0, params=NomeParameters(0.1 + 0.5j, -0.1 + 2j, 2))
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


def peel_count(ac, ratio, cap, used=0):
    """A staircase row count as _log_product_2d takes it: the terms at or
    above _PEEL are those above the double below it."""
    return sf._term_count(ac, ratio, math.nextafter(sf._PEEL, 0.0), cap, used)


def series_length(largest, eps, cap):
    """The log-series length as _log_product_2d takes it."""
    return sf._term_count(1.0, largest, eps, cap, -1, "log series") - 1


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
        assert (outcome(peel_count, ac, ratio, cap, used)
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
            assert (outcome(peel_count, x, ratio, cap, used)
                    == outcome(peel_count_loop, x, ratio, cap, used))

    @settings(max_examples=200, deadline=None)
    @given(largest=st.floats(0.0, sf._PEEL, exclude_max=True),
           eps=st.floats(1e-300, 1e-1), cap=st.integers(1, 300))
    def test_series_length(self, largest, eps, cap):
        assert (outcome(series_length, largest, eps, cap)
                == outcome(series_length_loop, largest, eps, cap))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 40), largest=st.floats(1e-3, sf._PEEL,
                                                   exclude_max=True))
    def test_series_length_at_a_boundary(self, n, largest):
        eps = largest ** (n + 1)
        for e in (eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)):
            if e > 0.0:
                assert (outcome(series_length, largest, e, 10_000)
                        == outcome(series_length_loop, largest, e, 10_000))


def term_count_loop(first, ratio, floor, cap, used=0):
    """_term_count by counting term by term: first * ratio**n in double
    precision while ratio**n is a normal double, and at 60 digits past it,
    where the double product would underflow."""
    def term(n):
        power = ratio ** n
        if power >= sys.float_info.min:
            return first * power
        with mp.workdps(60):
            return mp.mpf(first) * mp.mpf(ratio) ** n
    n = 0
    while used + n <= cap and term(n) > floor:
        n += 1
    if used + n > cap:
        raise NonConvergenceError("cap")
    return n


def kappa_count_args(bound, rho, cap):
    """_kappa_log's count: the tail 2 bound rho^{N+1} / (1 - rho) after N
    terms within 100 term_epsilon."""
    return (2.0 * bound * rho / (1.0 - rho), rho, 1e-14, cap, 0)


def rinfstr_count_args(eta, rel, m_star, cap):
    """verify_star_triangles's count of the m-sum rows after row m* + 1."""
    rho = math.exp(-4 * eta)
    return (rho * rho / (1 - rho), rho, 1e-4 * rel, cap, m_star + 2)


class TestTermCount:
    """_term_count is what counting term by term gives, for the arguments
    of each of its call sites, and for a first term near the largest
    double, where ratio**n underflows before the terms reach the floor."""

    caps = st.integers(1, 12_000)
    ratios = st.one_of(st.floats(0.0, 0.999),
                       st.sampled_from([0.0, 0.5, 0.25, 0.999]))
    products = st.tuples(st.floats(0.0, 1e3), ratios, st.just(1e-16), caps,
                         st.just(0))
    rows = st.tuples(st.floats(0.0, 1e3), ratios,
                     st.just(math.nextafter(sf._PEEL, 0.0)), caps,
                     st.integers(0, 12_000))
    series = st.tuples(st.just(1.0), st.floats(0.0, sf._PEEL, exclude_max=True),
                       st.floats(1e-300, 1e-1), st.integers(1, 300), st.just(-1))
    kappas = st.builds(kappa_count_args, st.floats(1.0, 10.0),
                       st.floats(1e-6, 0.99), caps)
    rinfstrs = st.builds(rinfstr_count_args, st.floats(0.05, 8.0),
                         st.floats(1e-12, 1e-2), st.integers(0, 10), caps)
    huge = st.tuples(st.floats(1e300, 1.7e308), st.floats(0.01, 0.7),
                     st.floats(1e-20, 1e-1), caps, st.just(0))

    @settings(max_examples=300, deadline=None)
    @example((1e308, 0.6, 1e-16, 10_000, 0))
    @given(st.one_of(products, rows, series, kappas, rinfstrs, huge))
    def test_matches_the_loop(self, args):
        assert outcome(sf._term_count, *args) == outcome(term_count_loop, *args)
