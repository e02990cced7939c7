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

from lenstri import cli, models, numerics, verify
from lenstri import special_functions as sf
from lenstri.models import Spin
from lenstri.params import (
    MAX_PRODUCT_INDEX,
    TERM_EPSILON,
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


def check_with_bounds(f, zs, *per_point):
    """f(array, ..., with_bound=True) against f(scalar, ...,
    with_bound=True).  Each further argument is a scalar shared by every
    point or a list with one value per point (up to 8), which f gets as an
    array."""
    args = [np.array(a[:len(zs)]) if isinstance(a, list) else a
            for a in per_point]
    values, bounds = f(zs, *args, with_bound=True)
    singles = [f(complex(z), *(a[i] if isinstance(a, list) else a
                               for a in per_point), with_bound=True)
               for i, z in enumerate(zs)]
    assert all(isinstance(v, complex) and isinstance(b, float)
               for v, b in singles)
    assert_batch_matches(values, [v for v, _ in singles])
    for got, (_, want) in zip(bounds, singles):
        assert got >= want * (1 - BOUND_SLACK)


def per_point(values):
    """One value shared by every point, or one value per point."""
    return st.one_of(values, st.lists(values, min_size=8, max_size=8))


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

    @given(points(-0.2, 0.2), per_point(st.integers(-4, 4)), params_st)
    @settings(max_examples=40, deadline=None)
    def test_lens_elliptic_gamma(self, zs, ms, params):
        check_with_bounds(
            lambda z, m, with_bound: sf.lens_elliptic_gamma(
                z, m, params, with_bound=with_bound), zs, ms)

    @given(points(0.1, 0.5), per_point(st.integers(-4, 4)), params_st,
           per_point(st.booleans()))
    @settings(max_examples=40, deadline=None)
    def test_lens_gamma_appendix(self, zs, ms, params, allow_zero):
        check_with_bounds(
            lambda z, m, zero_ok, with_bound: sf.lens_gamma_appendix(
                z, m, params, with_bound=with_bound, allow_zero=zero_ok),
            zs, ms, allow_zero)

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
        check_with_bounds(
            lambda z, m, with_bound: sf.lens_theta(z, m, params,
                                                   with_bound=with_bound),
            zs, ms)

    @given(points(-0.3, 0.3), per_point(st.integers(-6, 6)), params_st)
    @settings(max_examples=40, deadline=None)
    def test_q_function(self, zs, ns, params):
        batch = models.q_function(
            zs, np.array(ns[:len(zs)]) if isinstance(ns, list) else ns,
            params)
        singles = [models.q_function(
            complex(z), ns[i] if isinstance(ns, list) else ns, params)
            for i, z in enumerate(zs)]
        assert all(type(v) is complex for v in singles)
        assert_batch_matches(batch, singles)

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
            singles = [sf._log_product_2d(complex(c), a, b)
                       for c in cs]
        except PoleHitError:
            with pytest.raises(PoleHitError):
                sf._log_product_2d(cs, a, b)
            return
        logs, tails = sf._log_product_2d(cs, a, b)
        for lg, tail, (lg1, tail1) in zip(logs, tails, singles):
            assert abs(cmath.exp(lg) - cmath.exp(lg1)) <= REL * abs(cmath.exp(lg1))
            assert tail >= tail1

    @pytest.mark.parametrize("c", [0j, np.zeros(3, complex), np.zeros(0)])
    def test_zero_c_gives_an_empty_grid(self, c):
        logs, tails = sf._log_product_2d(c, 0.3, 0.2)
        assert np.shape(logs) == np.shape(tails) == np.shape(c)
        assert (logs == 0).all() and (tails == 0).all()
        values, bounds = sf._pochhammer_raw(c, 0.5)
        assert (values == 1).all() and (bounds == 0).all()

    def test_blocks_split_a_large_grid(self, monkeypatch):
        # |ratio| = 0.999 needs more than _BLOCK factors per element, so each
        # element's grid is multiplied out over several blocks
        a = 0.999
        c = np.array([0.2 + 0.1j, -0.3j])
        monkeypatch.setattr(sf, "MAX_PRODUCT_INDEX", 50_000)
        nj = sf._term_count(0.3, a, sf.TERM_EPSILON, sf.MAX_PRODUCT_INDEX)
        assert nj > sf._BLOCK
        values, _ = sf._pochhammer_raw(c, a)
        for value, ci in zip(values, c):
            direct = cmath.exp(np.sum(np.log(1 - ci * a ** np.arange(nj))))
            assert abs(value - direct) <= 1e-12 * abs(direct)

    @given(st.lists(st.complex_numbers(max_magnitude=1e200,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=9),
           st.complex_numbers(max_magnitude=1e200, allow_nan=False,
                              allow_infinity=False),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_factor_grid_matches_the_blocks(self, cs, g, guarded, pole):
        # a one-factor grid's direct 1 - g c against the blocks over the
        # grid [g, 0], whose second factor is exactly 1: the same errors,
        # and values that differ at most by the rounding of g c (numpy
        # multiplies a pair by other loops than a grid of two)
        c = np.array(cs, complex)
        if pole and g != 0:
            c[0] = 1 / g

        def product(grid):
            try:
                return sf._product(c, np.array(grid, complex), guarded)
            except (PoleHitError, NonConvergenceError) as exc:
                return type(exc)
        one, blocks = product([g]), product([g, 0])
        if isinstance(blocks, type):
            assert one is blocks
        else:
            assert np.all(np.abs(one - blocks)
                          <= 4e-16 * (1 + np.abs(g * c)))

    def test_large_ratios_match_the_direct_product(self):
        # |ratio| = 0.95: hundreds of factors are multiplied out and the
        # series coefficients carry 1/((1 - a^n)(1 - b^n)) near 400
        a = b = 0.95
        c = np.array([0.2 + 0.1j, -0.3j])
        nj = sf._term_count(0.3, 0.95, TERM_EPSILON, MAX_PRODUCT_INDEX)
        logs, _ = sf._log_product_2d(c, a, b)
        for lg, ci in zip(logs, c):
            j = np.arange(nj)
            direct = np.sum(np.log(1 - ci * np.outer(a ** j, b ** j)))
            assert abs(cmath.exp(lg) - cmath.exp(direct)) <= 1e-12 * abs(cmath.exp(direct))

    @given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1,
                    max_size=8),
           st.complex_numbers(max_magnitude=0.9),
           st.complex_numbers(max_magnitude=0.9))
    @settings(max_examples=60, deadline=None)
    def test_staircase_holds_the_factors_at_or_above_peel(self, cs, a, b):
        # every factor with |c a^j b^k| >= _PEEL is multiplied out under the
        # pole guard, every other one goes to the series with |x| < _PEEL,
        # and the tail bound is the count-free one of the staircase
        seen = []
        staircase = sf._staircase

        def recorded(*args):
            seen.append(args)
            return staircase(*args)
        cs = np.array(cs, complex)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sf, "_staircase", recorded)
            try:
                _, tails = sf._log_product_2d(cs, a, b)
            except PoleHitError:
                return
        (_, _, rows, _), = seen
        top, aa, ab = np.abs(cs).max(), abs(a), abs(b)
        assert rows == tuple(sorted(rows, reverse=True))
        for j in range(len(rows) + 2):
            row_top = top * aa ** j
            k_j = rows[j] if j < len(rows) else 0
            assert k_j == 0 or row_top * ab ** (k_j - 1) >= sf._PEEL
            assert row_top * ab ** k_j < sf._PEEL
        want = (np.minimum(np.abs(cs), TERM_EPSILON)
                * ((len(rows) + 1) / ((1 - sf._PEEL) * (1 - aa) * (1 - ab))))
        assert np.array_equal(tails, want)

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

    def test_guard_is_per_element(self):
        # c = 1 makes the j = k = 0 factor exactly zero
        c = np.array([1.0, 0.5])
        logs, _ = sf._log_product_2d(c, 0.3, 0.2,
                                     pole_guard=np.array([False, True]))
        assert cmath.exp(logs[0]) == 0 and cmath.exp(logs[1]) != 0
        with pytest.raises(PoleHitError):
            sf._log_product_2d(c, 0.3, 0.2,
                               pole_guard=np.array([True, False]))

    def test_allow_zero_rows_beside_guarded_rows(self):
        pr = physical_parameters(0.05, 0.5, 2)
        m, pq = 1, pr.p * pr.q
        # the first numerator factor 1 - e^{-iz} pq p^{r-[[m]]} vanishes here
        zero = -1j * cmath.log(pq * pr.p ** (pr.r - m))
        zs, ms, allow_zero = sf.stack_rows((zero, m, True),
                                           (0.3 + 0.2j, m, False))
        values = sf.lens_gamma_appendix(zs, ms, pr, allow_zero=allow_zero)
        want = sf.lens_gamma_appendix(0.3 + 0.2j, m, pr)
        assert abs(values[0]) <= 1e-12 * abs(want)
        assert abs(values[1] - want) <= REL * abs(want)
        with pytest.raises(PoleHitError):
            sf.lens_gamma_appendix(zs, ms, pr,
                                   allow_zero=np.array([False, True]))

    @pytest.mark.parametrize("x", [1e200, np.array([0.5, 1e200])])
    def test_overflowing_pochhammer(self, x):
        with pytest.raises(NonConvergenceError):
            sf.qpochhammer_inf(x, 0.5)

    @pytest.mark.parametrize("z", [-100j, np.array([0.3, -100j])])
    def test_overflowing_double_product(self, z):
        with pytest.raises(NonConvergenceError):
            sf.elliptic_gamma(z, 0.3, 0.2)

    # e^{iz} overflows, so a product argument is inf or nan; a numpy
    # RuntimeWarning on the way fails the test too (pyproject.toml)
    @pytest.mark.parametrize("z", [400j, -400j, 800j, -800j,
                                   np.array([0.3, -800j])])
    @pytest.mark.parametrize("evaluate", [
        lambda z, pr: sf.elliptic_gamma(z, 0.3, 0.2),
        lambda z, pr: sf.lens_elliptic_gamma(z, 1, pr),
        lambda z, pr: sf.lens_gamma_appendix(z, 1, pr),
        lambda z, pr: sf.theta4(z, 0.3),
        lambda z, pr: sf.lens_theta(z, 1, pr),
        lambda z, pr: models.q_function(z, 1, pr),
    ], ids=["elliptic_gamma", "lens_elliptic_gamma", "lens_gamma_appendix",
            "theta4", "lens_theta", "q_function"])
    def test_argument_far_off_the_real_axis(self, evaluate, z):
        with pytest.raises(NonConvergenceError):
            evaluate(z, physical_parameters(0.05, 0.5, 3))

    @pytest.mark.parametrize("x", [math.inf, complex(math.nan, 0.0),
                                   np.array([0.5, complex(math.inf, 1.0)])])
    def test_nonfinite_pochhammer_argument(self, x):
        with pytest.raises(NonConvergenceError):
            sf.qpochhammer_inf(x, 0.5)


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

    def test_arrays_in_alpha_and_integer_parts(self):
        # three weights on axis 0, sectors m on axis 1, angles on axis 2
        eta = self.pr.eta.real
        alphas = np.array([0.2, 0.3, 0.5])[:, None, None] * eta
        si = Spin(np.array([0.4, 1.3, 2.2])[:, None, None],
                  np.array([0, 1, 1])[:, None, None])
        ms = np.array([0, 1])[:, None]
        s0 = Spin(self.xs, ms)
        for weight in (models.weight_elliptic, models.weight_qlimit):
            batch = weight(alphas, si, s0, self.pr)
            assert batch.shape == (3, 2, len(self.xs))
            for i, j, k in np.ndindex(batch.shape):
                want = weight(float(alphas[i, 0, 0]),
                              Spin(float(si.x[i, 0, 0]), int(si.m[i, 0, 0])),
                              Spin(float(self.xs[k]), int(ms[j, 0])), self.pr)
                assert abs(batch[i, j, k] - want) <= REL * abs(want)
        for single in (lambda s: models.single_spin_elliptic(
                           s, self.pr, via_theta4=True),
                       lambda s: models.single_spin_elliptic(s, self.pr),
                       lambda s: models.single_spin_qlimit(s, self.pr)):
            # off x = 0, where S has a genuine zero that the gamma form's
            # pole guard rejects
            xs = self.xs + 0.1
            batch = single(Spin(xs, ms))
            assert batch.shape == (2, len(xs))
            for j, k in np.ndindex(batch.shape):
                want = single(Spin(float(xs[k]), int(ms[j, 0])))
                assert type(want) is complex
                assert abs(batch[j, k] - want) <= REL * abs(want)

    def test_epsilon_factor_array(self):
        assert list(models.epsilon_factor(np.arange(3), 4)) == [0.5, 1.0, 0.5]
        assert type(models.epsilon_factor(1, 4)) is float

    @pytest.mark.parametrize("m", [-2, 0, 1])
    def test_gamma_limit(self, m):
        xs = np.linspace(-6.0, 6.0, 13)
        for f in (lambda x: models.weight_gamma(0.4, Spin(0.7, 1), Spin(x, m)),
                  lambda x: models.single_spin_gamma(Spin(x, m))):
            assert_batch_matches(f(xs), [f(float(x)) for x in xs])

    def test_weight_gamma_alpha_array_is_bit_identical(self):
        for a in (0.2, 0.55, 0.8):
            for si, sj in ((Spin(0.3, 0), Spin(-1.2, 1)),
                           (Spin(1.7, -2), Spin(0.4, 3))):
                both = models.weight_gamma(np.array([a, -a]), si, sj)
                assert both.tolist() == [models.weight_gamma(a, si, sj),
                                         models.weight_gamma(-a, si, sj)]

    @pytest.mark.parametrize("r", [1, 3])
    def test_star_triangle_right_side(self, r):
        # the three weights of a right side as one call
        pr = physical_parameters(0.05, 0.5, r)
        case = cli.sample_str_case(np.random.default_rng(7), pr)
        (si, sj, sk), (ai, aj, ak) = case["spins"], case["alphas"]
        for weight in (models.weight_elliptic, models.weight_qlimit):
            batch = weight(*verify._rhs_edges(case["spins"], case["alphas"]),
                           pr)
            want = [weight(ai, sj, sk, pr), weight(aj, si, sk, pr),
                    weight(ak, sj, si, pr)]
            assert_batch_matches(batch, want)

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
        mp = verify.constant_form(t, u, pr)
        for y in range(2):
            scalars = [verify.master_integrand(float(z), y, mp) for z in zs]
            assert_batch_matches(verify.master_integrand(zs, y, mp), scalars,
                                 atol=REL * max(map(abs, scalars)))


class TestKernelCalls:
    """A weight, or a quadrature integrand, makes one kernel call per nome
    grid: the factors that share a grid are stacked into one batch."""

    @staticmethod
    def calls_per_level(monkeypatch, verify_case, kernel="_log_product_2d"):
        """The shapes of the first argument of each kernel call made by each
        integrand call (one refinement level) of verify_case(), one list
        per level."""
        integrate = numerics.periodic_integrate
        calls, per_level = [], []
        kernel_fn = getattr(sf, kernel)

        def counted_kernel(c, *args, **kwargs):
            calls.append(np.shape(c))
            return kernel_fn(c, *args, **kwargs)

        def counted_integrate(f, *args, **kwargs):
            def level(x):
                calls.clear()
                value = f(x)
                per_level.append(list(calls))
                return value
            return integrate(level, *args, **kwargs)
        monkeypatch.setattr(sf, kernel, counted_kernel)
        monkeypatch.setattr(numerics, "periodic_integrate", counted_integrate)
        verify_case()
        assert per_level
        return per_level

    @pytest.mark.parametrize("tau,calls", [(-0.05 + 0.5j, 1),
                                           (-0.05 + 0.7j, 2)],
                             ids=["pair", "off_pair"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_str_calls_per_level(self, monkeypatch, r, tau, calls):
        pr = NomeParameters(0.05 + 0.5j, tau, r)
        case = cli.sample_str_case(np.random.default_rng(4), pr)
        levels = self.calls_per_level(monkeypatch, lambda: verify.verify_str(
            case["spins"], case["alphas"], pr))
        # all sectors and three edge weights in one batch: at tau =
        # -conj(sigma) one elliptic gamma batch of the (pq, p^r) factors,
        # elsewhere lens_elliptic_gamma's two; the single-spin weight is a
        # theta product
        assert [len(level) for level in levels] == [calls] * len(levels)

    @pytest.mark.parametrize("tau,rows", [(-0.05 + 0.5j, 7),
                                          (-0.05 + 0.7j, 14)],
                             ids=["pair", "off_pair"])
    def test_rinfstr_one_product_per_level(self, monkeypatch, tau, rows):
        pr = NomeParameters(0.05 + 0.5j, tau, 1)
        case = cli.sample_rinfstr_case(np.random.default_rng(4), pr)
        levels = self.calls_per_level(
            monkeypatch, lambda: verify.verify_rinfstr(case["spins"],
                                                       case["alphas"], pr),
            kernel="_product")
        # the single-spin weight and three edge weights in one Q batch of
        # numerators and denominators (axis 0): at tau = -conj(sigma) one
        # single-spin row and the +i alpha rows of the edges, elsewhere
        # all fourteen rows
        assert all(len(level) == 1 and level[0][:2] == (2, rows)
                   for level in levels)

    @staticmethod
    def calls(monkeypatch, kernel, run, module=sf):
        """Calls of the module's function kernel made by run()."""
        count = [0]
        kernel_fn = getattr(module, kernel)

        def counted(*args, **kwargs):
            count[0] += 1
            return kernel_fn(*args, **kwargs)
        monkeypatch.setattr(module, kernel, counted)
        run()
        return count[0]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_thtfunct_one_call_per_instance(self, monkeypatch, r):
        pr = physical_parameters(0.05, 0.5, r)
        case = cli.sample_thtfunct_case(np.random.default_rng(4), pr)
        # three points, both sides, in one lens_theta call
        assert self.calls(monkeypatch, "_pochhammer_raw",
                          lambda: verify.verify_theta_difference(
                              case["z"], case["y"], case["t"], case["u"],
                              pr)) == 1

    @pytest.mark.parametrize("tau,calls", [(-0.05 + 0.5j, 1),
                                           (-0.05 + 0.7j, 2)],
                             ids=["pair", "off_pair"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_inversion_one_weight_call(self, monkeypatch, r, tau, calls):
        pr = NomeParameters(0.05 + 0.5j, tau, r)
        case = cli.sample_inversion_case(np.random.default_rng(4), pr)
        # W_alpha and W_{-alpha} in one weight call, one kernel call per
        # nome grid: at tau = -conj(sigma) only the (pq, p^r) grid
        assert self.calls(monkeypatch, "_log_product_2d",
                          lambda: verify.verify_inversion_first(
                              case["family"], case["alpha"], case["spins"],
                              pr)) == calls
        assert self.calls(monkeypatch, "_pochhammer_raw",
                          lambda: verify.verify_inversion_first(
                              models.ModelFamily.Q_LIMIT, case["alpha"],
                              case["spins"], pr)) == 1

    @pytest.mark.parametrize("verify_case,weight", [
        (verify.verify_str, "weight_elliptic"),
        (verify.verify_rinfstr, "weight_qlimit")])
    def test_star_triangle_right_side_one_weight_call(self, monkeypatch,
                                                      verify_case, weight):
        pr = physical_parameters(0.05, 0.5, 1)
        case = cli.sample_str_case(np.random.default_rng(4), pr)
        assert self.calls(monkeypatch, weight,
                          lambda: verify_case(case["spins"], case["alphas"],
                                              pr),
                          module=models) == 1

    def test_theta4_one_call(self, monkeypatch):
        calls = []
        kernel = sf._pochhammer_raw

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(sf, "_pochhammer_raw", counted)
        sf.theta4(np.linspace(-1.0, 1.0, 5), 0.3 + 0.1j)
        # the constant (p^2; p^2) rides in the e^{+-2iz} batch
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [1, 3])
    def test_rho_integrand_two_in_total(self, monkeypatch, r):
        pr = physical_parameters(0.05, 0.5, r)
        case = cli.sample_iconst_case(np.random.default_rng(4), pr)
        levels = self.calls_per_level(
            monkeypatch, lambda: verify.verify_I_constant(case["t"], case["u"],
                                                          pr))
        assert max(map(len, levels)) <= 2

    @pytest.mark.parametrize("r", [1, 3])
    def test_master_integrand_two_in_total(self, monkeypatch, r):
        pr = physical_parameters(0.05, 0.5, r)
        case = cli.sample_master_case(np.random.default_rng(4), pr)
        levels = self.calls_per_level(
            monkeypatch, lambda: verify.verify_master(case["mp"]))
        assert max(map(len, levels)) <= 2


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
    (lambda x: 1.0 / (1.0 + x * x), 1e-8, {}),
    (lambda x: np.exp(-x * x), 1e-10, {}),
    (lambda x: 100.0 / (np.pi * (1.0 + (100.0 * x) ** 2)), 1e-8, {}),
    (lambda x: 1.0 / (1.0 + x * x) ** 2, 1e-8, {}),
    (lambda x: 1.0 / (1.0 + x * x) ** 3, 1e-12, {}),
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
        # one call for the first level and the two refinements after it
        # (16 + 16 + 32 nodes), then one per later level: 64, 128, ...
        assert calls == [64] + [16 * 2 ** k for k in range(2, len(calls) + 1)]
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
