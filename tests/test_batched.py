"""The batched evaluation path: an array argument must give what a loop of
scalar calls gives, with tail bounds at least the scalar ones, the pole
guard and the overflow check over the whole batch, and the vectorized
integrators must take the same refinement decisions as the scalar ones.
"""

import cmath
import math
import warnings

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

    def test_a_grid_longer_than_a_block(self, monkeypatch):
        # |ratio| = 0.999 under a raised cap needs more than _BLOCK factors
        # per element, so each block holds one element's whole grid
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

    # each value is below the least subnormal (its modulus by 30-digit
    # mpmath in the comment), far off the real axis: its finite log
    # underflows to 0, which must raise rather than claim an exact 0
    @pytest.mark.parametrize("evaluate", [
        # 1.37e-345
        lambda: sf.lens_elliptic_gamma(
            -0.39269908169872464 + 19.577097397290995j, 2,
            NomeParameters(0.25 + 0.112j, 0.5 + 0.7j, 4), with_bound=True),
        # 1.67e-368
        lambda: sf.lens_elliptic_gamma(
            -1.4094992314937438 + 19.05634720448787j, -1,
            NomeParameters(-0.2803553703218472 + 0.47482098504459j,
                           -0.4671728938185248 + 0.19243856148514443j, 3),
            with_bound=True),
        # 8.86e-331
        lambda: sf.lens_gamma_appendix(
            0.3217289637428391 - 34.326690596837246j, 2,
            NomeParameters(-0.424870207745477 + 0.4629983608159871j,
                           -0.2091784495806044 + 0.56492009262349j, 4),
            with_bound=True),
        # 1.85e-393
        lambda: sf.lens_gamma_appendix(
            0.44197357607392673 - 22.818731726662918j, 5,
            NomeParameters(0.14684358771432193 + 0.5593257392219679j,
                           0.39628341246049825 + 0.4856980860516549j, 1),
            with_bound=True),
        # the last one, beside an ordinary element of its batch
        lambda: sf.lens_gamma_appendix(
            np.array([0.3 + 0.2j, 0.44197357607392673 - 22.818731726662918j]),
            5, NomeParameters(0.14684358771432193 + 0.5593257392219679j,
                              0.39628341246049825 + 0.4856980860516549j, 1)),
    ], ids=["lens_elliptic_gamma_1e-345", "lens_elliptic_gamma_2e-368",
            "lens_gamma_appendix_9e-331", "lens_gamma_appendix_2e-393",
            "lens_gamma_appendix_batch"])
    def test_underflowing_value(self, evaluate):
        with pytest.raises(NonConvergenceError):
            evaluate()

    @pytest.mark.parametrize("form", [
        lambda logs: logs,
        # the product of two exps, as lens_elliptic_gamma takes its
        # factors: the halves of -800 and of -700 have nonzero exps
        lambda logs: (logs / 2, logs / 2),
    ], ids=["one_exp", "product_of_exps"])
    def test_underflow_is_per_element(self, form):
        # a finite log below the double range raises, and a log of -inf
        # is an exact 0 beside ordinary elements
        def exp(logs):
            return sf._exp_result(form(np.array(logs)), np.zeros(len(logs)),
                                  True)
        with pytest.raises(NonConvergenceError):
            exp([0.5, -np.inf, -800.0])
        values, bounds = exp([0.5, -np.inf, -700.0])
        assert values[1] == 0 and bounds[1] == 0
        assert values[0] != 0 and values[2] != 0

    def test_product_modulus_past_the_largest_double(self):
        # a denominator product of the first factor has finite parts but a
        # modulus past the largest double: log|p| = +inf would make the
        # factor's log -inf and its value a false exact 0 (the value is
        # 1.6e-317 by 30-digit mpmath)
        with pytest.raises(NonConvergenceError):
            sf.lens_elliptic_gamma(
                -1.8802004151460832 + 22.267753392741376j, 0,
                NomeParameters(0.042646562393463316 + 0.1196660429510115j,
                               -0.036158213305674036 + 1.0841244357435709j,
                               4))

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


star_nomes_st = st.builds(
    lambda re, im, im_tau, pair, r: NomeParameters(
        complex(re, im), complex(-re, im if pair else im_tau), r),
    st.floats(-0.45, 0.45), st.floats(0.1, 1.5), st.floats(0.1, 1.5),
    st.booleans(), st.integers(1, 6))
star_spin_st = st.builds(Spin, st.floats(0.0, math.pi, exclude_max=True),
                         st.integers(-6, 6))
#: a right side folded into an integrand batch shares its truncation depth
#: and its kappa series: a few ulps per gamma row
ULPS_PER_ROW = 4 * np.finfo(float).eps


class TestFoldedRightSide:
    """A right side whose rows ride in the first integrand batch must give
    the product of the separately evaluated weights or Gamma."""

    @given(star_nomes_st, st.lists(st.floats(0.01, 1.0), min_size=3,
                                   max_size=3),
           st.tuples(star_spin_st, star_spin_st, star_spin_st),
           st.sampled_from([models.ModelFamily.ELLIPTIC,
                            models.ModelFamily.Q_LIMIT]))
    @settings(max_examples=80, deadline=None)
    def test_star_triangle(self, pr, parts, spins, family):
        eta = pr.eta.real
        alphas = [eta * a / sum(parts) for a in parts]
        crossed = [eta - a for a in alphas]
        edges = verify._rhs_edges(spins, alphas)
        kappas = models.kappa(family, np.array(alphas + crossed), pr)
        s0 = Spin(np.linspace(0.0, math.pi, 9), np.arange(pr.r)[:, None])
        value, rhs = models.star_integrand(
            family, s0, spins, crossed, pr, kappas=kappas[3:],
            right_side=(*edges, kappas[:3]))
        want = models.edge_weight(family, *edges, pr).prod()
        assert abs(rhs - want) <= 12 * ULPS_PER_ROW * abs(want)
        alone = models.star_integrand(family, s0, spins, crossed, pr)
        # S(x0 = 0, m0 = 0) of the q-limit is a genuine zero, rounded
        # apart by each batch: there only the scale of the other nodes is
        # a measure
        assert np.all(np.abs(value - alone) <= 12 * ULPS_PER_ROW * (
            np.abs(alone) + np.abs(alone).max() * 1e-3))

    @given(st.integers(1, 4), st.sampled_from([-0.05 + 0.5j, -0.05 + 0.7j]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_master(self, r, tau, seed):
        pr = NomeParameters(0.05 + 0.5j, tau, r)
        mp = cli.sample_master_case(np.random.default_rng(seed), pr)["mp"]
        t, u = mp.t, mp.u
        z = np.linspace(0.0, 2 * math.pi, 7, endpoint=False) + 0.1
        y = np.arange(r)[:, None]
        value, rhs = verify.master_integrand(z, y, mp, right_side=True)
        want = sf.lens_gamma_appendix(*sf.stack_rows(
            *[(t[i] + t[j], u[i] + u[j]) for i in range(6)
              for j in range(i + 1, 6)]), pr).prod()
        assert abs(rhs - want) <= 15 * ULPS_PER_ROW * abs(want)
        alone = verify.master_integrand(z, y, mp)
        assert np.all(np.abs(value - alone)
                      <= 14 * ULPS_PER_ROW * np.abs(alone))


class TestLogSpaceIntegrands:
    """The integrands sum their rows' logs and leave log space once per
    value: they must give the products of the public weights and Gamma."""

    @pytest.mark.parametrize("family,tau", [
        (models.ModelFamily.ELLIPTIC, -0.05 + 0.5j),
        (models.ModelFamily.ELLIPTIC, -0.05 + 0.7j),
        (models.ModelFamily.Q_LIMIT, -0.05 + 0.5j)],
        ids=["elliptic-pair", "elliptic-off_pair", "qlimit-pair"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_star_integrand_is_product_of_weights(self, family, tau, r):
        pr = NomeParameters(0.05 + 0.5j, tau, r)
        elliptic = family is models.ModelFamily.ELLIPTIC
        sample = cli.sample_str_case if elliptic else cli.sample_rinfstr_case
        case = sample(np.random.default_rng(11), pr)
        crossed = [pr.eta.real - a for a in case["alphas"]]
        # off x0 = 0, where S has a genuine zero
        s0 = Spin(np.linspace(0.05, math.pi - 0.05, 7),
                  np.arange(r if elliptic else 4)[:, None])
        got = models.star_integrand(family, s0, case["spins"], crossed, pr)
        want = (models.centre_weight(s0, pr) if elliptic
                else models.single_spin_qlimit(s0, pr))
        for a, s in zip(crossed, case["spins"]):
            want = want * models.edge_weight(family, a, s, s0, pr)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_master_integrand_is_product_of_gammas(self):
        pr = physical_parameters(0.05, 0.5, 2)
        mp = cli.sample_master_case(np.random.default_rng(3), pr)["mp"]
        # z = 0, y = 0 is a genuine zero of 1/Gamma(+-2z, +-2y); complex z
        # take the same path as real nodes
        z = np.array([0.0, 0.4, 1.3 + 0.05j, 2.9 - 0.03j])
        y = np.arange(2)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = verify.master_integrand(z, y, mp)
        i2eta = 2j * pr.eta
        for k, j in np.ndindex(got.shape):
            zk, yk = z[j], int(y[k, 0])
            # 1/Gamma(+-2z, +-2y) through the inversion relation
            want = (sf.lens_gamma_appendix(i2eta - 2 * zk, -2 * yk, pr,
                                           allow_zero=True)
                    * sf.lens_gamma_appendix(i2eta + 2 * zk, 2 * yk, pr,
                                             allow_zero=True))
            for t, u in zip(mp.t, mp.u):
                want *= (sf.lens_gamma_appendix(t + zk, u + yk, pr)
                         * sf.lens_gamma_appendix(t - zk, u - yk, pr))
            assert abs(got[k, j] - want) <= 1e-13 * abs(want)
        assert got[0, 0] == 0

    @pytest.mark.parametrize("family,r", [
        (models.ModelFamily.ELLIPTIC, 1), (models.ModelFamily.ELLIPTIC, 3),
        (models.ModelFamily.Q_LIMIT, 1)],
        ids=["elliptic-1", "elliptic-3", "qlimit-1"])
    def test_one_exp_per_node_and_sector(self, monkeypatch, family, r):
        # a str or rinfstr integrand call at the conjugate nomes takes one
        # exp per (node, sector) to leave log space, one per node for the
        # rows' phases and a few per edge: not one or two per row and node.
        # Its sectors are Z_r, or the rinfstr m-sum's m0 = 0..M-1
        pr = physical_parameters(0.05, 0.5, r)
        elliptic = family is models.ModelFamily.ELLIPTIC
        sample = cli.sample_str_case if elliptic else cli.sample_rinfstr_case
        case = sample(np.random.default_rng(4), pr)
        sectors = r if elliptic else verify.verify_star_triangles(
            family, [(case["spins"], case["alphas"])],
            pr)[0].numerics_meta["m_terms"]
        crossed = [pr.eta.real - a for a in case["alphas"]]
        kappas = models.kappa(family, crossed, pr)
        nodes = numerics.Trapezoid(math.pi, 1, even=elliptic).nodes
        s0 = Spin(nodes, np.arange(sectors)[:, None])

        def run():
            return models.star_integrand(family, s0, case["spins"], crossed,
                                         pr, kappas=kappas)
        run()   # the single-spin weight is cached per node grid
        counted = [0]
        exp = np.exp

        def counting(x, *args, **kwargs):
            counted[0] += np.size(x)
            return exp(x, *args, **kwargs)
        monkeypatch.setattr(np, "exp", counting)
        run()
        rows = 12
        assert counted[0] <= nodes.size * (sectors + 1) + rows * sectors


class TestGridCaches:
    """The rows of an integrand that depend on the nomes and the node grid
    alone are evaluated once per grid, kept read-only in a bounded cache."""

    CACHES = [
        (models._centre_weight, lambda pr: np.arange(pr.r)[:, None]),
        (models._single_spin_qlimit, lambda pr: np.arange(4)[:, None]),
        (verify._inverse_measure, lambda pr: np.arange(pr.r)[:, None])]

    @pytest.mark.parametrize("cache,sectors", CACHES,
                             ids=["centre", "qlimit", "master"])
    def test_once_per_grid_read_only_bounded(self, cache, sectors):
        pr = physical_parameters(0.05, 0.5, 2)
        x = np.linspace(0.1, 3.0, 9)
        m = sectors(pr)
        cache.cache_clear()
        value = cache(pr, x, m)
        assert cache(pr, x.copy(), m.copy()) is value
        assert cache.cache_info().misses == 1
        with pytest.raises(ValueError):
            value[0, 0] = 0.0
        size = cache.cache_info().maxsize
        assert size <= 64
        for n in range(16, 16 + 2 * size):
            cache(pr, np.linspace(0.1, 1.0, n), m)
        assert cache.cache_info().currsize == size

    def test_scalar_and_complex_arguments(self):
        # scalars and complex nodes take the cached path too, as 0-d and
        # complex arrays
        pr = physical_parameters(0.05, 0.5, 2)
        mp = cli.sample_master_case(np.random.default_rng(5), pr)["mp"]
        for z in (0.7, 0.7 + 0.02j):
            for y in (0, 1):
                one = verify.master_integrand(z, y, mp)
                assert type(one) is complex
                many = verify.master_integrand(np.array([z, 1.1]), y, mp)
                assert abs(many[0] - one) <= REL * abs(one)


class TestKernelCalls:
    """A weight, or a quadrature integrand, makes one kernel call per nome
    grid: the factors that share a grid are stacked into one batch."""

    #: the kernels that the special functions call (``_product`` runs
    #: inside both), and the weight-level functions of models
    KERNELS = ("_log_product_2d", "_pochhammer_raw")
    WEIGHTS = ("weight_elliptic", "weight_qlimit", "weight_gamma",
               "edge_weight", "q_function", "single_spin_elliptic",
               "single_spin_qlimit", "kappa_elliptic", "kappa_qlimit")

    @classmethod
    def batches(cls, monkeypatch, run, owner=models,
                integrand="star_integrand"):
        """What run() calls, split by the calls of owner.integrand (the
        integrand batches).  Returns, per batch, the (name, shape of the
        first argument) of each kernel and weight call made in it and the
        keyword arguments of the batch; the calls made outside every
        batch; the node counts of the batches the stepper takes; and
        the number of kappa series evaluations."""
        per_batch, outside, sizes, series = [], [], [], [0]
        current = [outside]

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                current[0].append((name, np.shape(args[0])))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, call)
        for name in cls.KERNELS:
            counted(sf, name)
        for name in cls.WEIGHTS:
            counted(models, name)
        batch_fn = getattr(owner, integrand)
        kappa_log = models._kappa_log
        take = numerics.Trapezoid.take

        def batch(*args, **kwargs):
            per_batch.append(([], kwargs))
            saved, current[0] = current[0], per_batch[-1][0]
            try:
                return batch_fn(*args, **kwargs)
            finally:
                current[0] = saved

        def counted_series(*args, **kwargs):
            series[0] += 1
            return kappa_log(*args, **kwargs)

        def counted_take(steps, values, tol):
            sizes.append(steps.nodes.size)
            return take(steps, values, tol)
        monkeypatch.setattr(owner, integrand, batch)
        monkeypatch.setattr(models, "_kappa_log", counted_series)
        monkeypatch.setattr(numerics.Trapezoid, "take", counted_take)
        run()
        assert per_batch
        return per_batch, outside, sizes, series[0]

    @pytest.mark.parametrize("tau,calls", [(-0.05 + 0.5j, 1),
                                           (-0.05 + 0.7j, 2)],
                             ids=["pair", "off_pair"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_str_calls_per_level(self, monkeypatch, r, tau, calls):
        pr = NomeParameters(0.05 + 0.5j, tau, r)
        case = cli.sample_str_case(np.random.default_rng(4), pr)
        run = lambda: verify.verify_star_triangles(
            models.ModelFamily.ELLIPTIC, [(case["spins"], case["alphas"])],
            pr)[0]
        run()   # the centre weight is cached per node grid
        batches, outside, sizes, _ = self.batches(monkeypatch, run)
        # all sectors and three edge weights in one batch per level: at
        # tau = -conj(sigma) one elliptic gamma batch of the (pq, p^r)
        # factors, elsewhere lens_elliptic_gamma's two; the single-spin
        # weight is a theta product
        assert outside == [] and len(batches) == len(sizes)
        assert [[name for name, _ in calls_made]
                for calls_made, _ in batches] == (
            [["_log_product_2d"] * calls] * len(batches))

    @pytest.mark.parametrize("tau,rows,rhs_rows", [(-0.05 + 0.5j, 6, 6),
                                                   (-0.05 + 0.7j, 12, 12)],
                             ids=["pair", "off_pair"])
    def test_rinfstr_one_product_per_level(self, monkeypatch, tau, rows,
                                           rhs_rows):
        pr = NomeParameters(0.05 + 0.5j, tau, 1)
        case = cli.sample_rinfstr_case(np.random.default_rng(4), pr)
        run = lambda: verify.verify_star_triangles(
            models.ModelFamily.Q_LIMIT, [(case["spins"], case["alphas"])],
            pr)[0]
        sectors = run().numerics_meta["m_terms"]
        batches, outside, sizes, _ = self.batches(monkeypatch, run)
        # three edge weights in one Q batch of numerators and denominators
        # (axis 0), one log kernel call: at tau = -conj(sigma) the +i alpha
        # rows of the edges, elsewhere all twelve rows, per sector and node;
        # the first batch adds the right side's +i alpha rows (6), or all
        # its rows (12).  The single-spin weight is cached per grid, warm
        # after run()
        assert outside == [] and len(batches) == len(sizes)
        want = [rows * sectors * n for n in sizes]
        want[0] += rhs_rows
        assert [[c for c in calls_made if c[0] in self.KERNELS]
                for calls_made, _ in batches] == [
            [("_log_product_2d", (2, k))] for k in want]

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
                          lambda: verify.verify_theta_differences(
                              [(case["z"], case["y"], case["t"], case["u"])],
                              pr)) == 1

    @pytest.mark.parametrize("tau,calls", [(-0.05 + 0.5j, 1),
                                           (-0.05 + 0.7j, 2)],
                             ids=["pair", "off_pair"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_inversion_one_weight_call(self, monkeypatch, r, tau, calls):
        pr = NomeParameters(0.05 + 0.5j, tau, r)
        case = cli.sample_inversion_case(np.random.default_rng(4), pr)
        # W_alpha and W_{-alpha} in one weight call, one kernel call per
        # nome grid: at tau = -conj(sigma) only the (pq, p^r) grid; Q's
        # numerators and denominators share the grid (pq)^{2j}
        assert self.calls(monkeypatch, "_log_product_2d",
                          lambda: verify.verify_inversions(
                              [(case["family"], case["alpha"],
                                case["spins"])], pr)) == calls
        assert self.calls(monkeypatch, "_log_product_2d",
                          lambda: verify.verify_inversions(
                              [(models.ModelFamily.Q_LIMIT, case["alpha"],
                                case["spins"])], pr)) == 1

    @staticmethod
    def integrand_batches(identity, pr):
        """(run, owner module, integrand name, kernel, calls per batch,
        rows per sector and node, right-side rows, sectors) of an instance
        of a quadrature identity at the nomes pr."""
        rng = np.random.default_rng(4)
        r = pr.r
        if identity in ("str", "rinfstr"):
            sample = (cli.sample_str_case if identity == "str"
                      else cli.sample_rinfstr_case)
            case = sample(rng, pr)
            family = (models.ModelFamily.ELLIPTIC if identity == "str"
                      else models.ModelFamily.Q_LIMIT)
            run = lambda: verify.verify_star_triangles(
                family, [(case["spins"], case["alphas"])], pr)[0]
            if identity == "str":
                return (run, models, "star_integrand", "_log_product_2d", 1,
                        12, 12, r)
            return (run, models, "star_integrand", "_log_product_2d", 1, 6, 6,
                    run().numerics_meta["m_terms"])
        if identity == "master":
            mp = cli.sample_master_case(rng, pr)["mp"]
            run = lambda: verify.verify_masters([mp])[0]
        else:
            case = cli.sample_iconst_case(rng, pr)
            run = lambda: verify.verify_I_constants([(case["t"], case["u"])],
                                                    pr)[0]
        # the (pq, p^r) and the (pq, q^r) grid of lens_gamma_appendix, each
        # with a numerator and a denominator row per Gamma; the
        # 1/Gamma(+-2z, +-2y) pair is cached per grid
        return (run, verify, "master_integrand", "_log_product_2d", 2, 12,
                15, r)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("identity", ["str", "rinfstr", "master",
                                          "iconst"])
    def test_no_call_outside_integrand_batches(self, monkeypatch, identity,
                                               r):
        # at the conjugate nomes, once the caches that depend on the nomes
        # or the node grid alone are warm (the single-spin weights, the
        # master measure and normalisation): every kernel call is in an
        # integrand batch, one batch per trapezoid level, today's kernel
        # calls per batch, and the right side's rows in the first batch,
        # which holds both integrals of iconst
        pr = physical_parameters(0.05, 0.5, r)
        (run, owner, integrand, kernel, calls, rows, rhs_rows,
         sectors) = self.integrand_batches(identity, pr)
        run()
        batches, outside, sizes, series = self.batches(monkeypatch, run,
                                                       owner, integrand)
        assert outside == []
        # kappa of all six spectral parameters in one series evaluation
        assert series == (1 if identity in ("str", "rinfstr") else 0)
        assert len(batches) == len(sizes)
        first = [bool(kw.get("right_side")) for _, kw in batches]
        integrals = 2 if identity == "iconst" else 1
        assert first.count(True) == 1 and first[0]
        # a first batch evaluates the first call's nodes, which the
        # integrator then takes from it
        n = iter(sizes)
        for (calls_made, _), with_rhs in zip(batches, first):
            k = rows * sectors * next(n) + (rhs_rows if with_rhs else 0)
            if owner is models:
                assert calls_made == [(kernel, (2, k))] * calls
                continue
            # master and iconst: the integrals that have not stopped on
            # axis 1, every one of them in the first batch
            active = calls_made[0][1][1]
            assert calls_made == [(kernel, (2, active, k))] * calls
            assert active == integrals if with_rhs else active <= integrals

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
        batches, _, _, _ = self.batches(
            monkeypatch, lambda: verify.verify_I_constants(
                [(case["t"], case["u"])], pr),
            verify, "master_integrand")
        assert max(len(calls_made) for calls_made, _ in batches) <= 2

    @pytest.mark.parametrize("r", [1, 3])
    def test_master_integrand_two_in_total(self, monkeypatch, r):
        pr = physical_parameters(0.05, 0.5, r)
        case = cli.sample_master_case(np.random.default_rng(4), pr)
        batches, _, _, _ = self.batches(
            monkeypatch, lambda: verify.verify_masters([case["mp"]]), verify,
            "master_integrand")
        assert max(len(calls_made) for calls_made, _ in batches) <= 2


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
