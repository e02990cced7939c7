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
    refinement level, summing each level's values the same way.  Its node
    count is that of the levels summed, or of the levels that
    periodic_integrate's first call evaluates if that is more: all levels
    up to the first that brings the evaluated nodes to 4 min_nodes, or up
    to max_nodes."""
    def level_nodes(index, total):
        if even:
            index = index[2 * index <= total]
        return index

    def level_sum(index, total):
        weights = 1.0
        if even:
            index = level_nodes(index, total)
            own = (index == 0) | (2 * index == total)
            weights = np.where(own, 1.0, 2.0)
        x = index * (period / total)
        values = (np.asarray(f(x)) if vectorized
                  else np.array([f(t) for t in x.tolist()]))
        return (values * weights).sum().item(), index.size

    n = first = min_nodes
    evaluated = level_nodes(np.arange(n), n).size
    while evaluated < 4 * min_nodes and first < max_nodes:
        first *= 2
        evaluated += level_nodes(np.arange(1, first, 2), first).size

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
            return numerics.QuadratureResult(cur, err, max(used, evaluated),
                                             True)
        prev, last = cur, err
    return numerics.QuadratureResult(cur, err, max(used, evaluated), False)


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

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    @pytest.mark.parametrize("integrate", [
        lambda f, tol: numerics.periodic_integrate(f, 2 * math.pi, tol),
        lambda f, tol: numerics.line_integrate(f, tol),
        lambda f, tol: numerics.bilateral_sum(f, tol),
    ], ids=["periodic", "line", "bilateral"])
    def test_rejects_bad_tol(self, integrate, tol):
        def f(x):
            raise AssertionError("integrand called with a bad tol")
        with pytest.raises(InvalidParameterError):
            integrate(f, tol)

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
        rep = verify.verify_star_triangles(
            models.ModelFamily.ELLIPTIC, [(case["spins"], case["alphas"])],
            pr, tol=1e-6)[0]
        assert rep.rel_residual <= 2e-14
        # the even integrand's first call evaluates 65 nodes, the mirror
        # halves of the levels up to 128; the error estimate is the change
        # at 128 nodes, where a stop at 64 would report 9.8e-9
        assert rep.numerics_meta["nodes"] == 65
        assert rep.numerics_meta["quad_error"] <= 2e-12


class TestFirstLevelsInOneCall:
    @given(st.data(), st.integers(2, 32), st.floats(1.01, 5.0),
           st.floats(-14.0, -4.0), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_one_call_per_level(self, data, min_nodes, a, log_tol,
                                        vectorized, even):
        # max_nodes on either side of the last level of the first call:
        # 4 * min_nodes, or 8 * min_nodes with even=True
        max_nodes = data.draw(st.one_of(
            st.integers(1, 4 * min_nodes - 1),
            st.integers(4 * min_nodes, 8 * min_nodes - 1),
            st.integers(8 * min_nodes, 2 ** 12)))
        f = lambda t: (1.0 + 0.5j * np.cos(2 * t)) / (a - np.cos(t))
        args = (f, 2 * math.pi, 10.0 ** log_tol, min_nodes, max_nodes,
                vectorized, even)
        assert numerics.periodic_integrate(*args) == level_by_level(*args)

    def test_counts_a_level_evaluated_but_not_reached(self):
        # a constant stops at the second refinement, 4 * 16 nodes, but the
        # first call over a mirror half also evaluated the third (9 + 8 +
        # 16 + 32 nodes)
        calls = []

        def f(x):
            calls.append(x.size)
            return np.ones_like(x)
        for even, nodes in ((False, 64), (True, 65)):
            res = numerics.periodic_integrate(f, 2 * math.pi, 1e-10,
                                              vectorized=True, even=even)
            assert res.converged and res.value == 2 * math.pi
            assert res.nodes_used == nodes and calls[-1] == nodes
        assert len(calls) == 2

    @staticmethod
    def str_calls(monkeypatch, seed):
        """Node counts of the integrand calls of a str verification of
        draw seed at r = 1, and its report."""
        pr = physical_parameters(0.05, 0.5, 1)
        case = cli.sample_str_case(np.random.default_rng(seed), pr)
        calls = []
        integrand = models.star_integrand

        def counted(*args, **kwargs):
            calls.append(np.size(args[1].x))
            return integrand(*args, **kwargs)
        monkeypatch.setattr(models, "star_integrand", counted)
        return calls, verify.verify_star_triangles(
            models.ModelFamily.ELLIPTIC, [(case["spins"], case["alphas"])],
            pr)[0]

    def test_str_calls_three_fewer_than_levels(self, monkeypatch):
        # draw 0 stops at 256 nodes, the fifth level
        calls, rep = self.str_calls(monkeypatch, 0)
        nodes = rep.numerics_meta["nodes"]
        # the integrand is even: a stop at n nodes has evaluated n / 2 + 1
        levels = round(math.log2(2 * (nodes - 1) // 16)) + 1
        assert nodes == 8 * 2 ** (levels - 1) + 1 and levels == 5
        # the first four levels (9 + 8 + 16 + 32 nodes) share one call
        assert len(calls) == levels - 3
        assert calls[0] == 65 and sum(calls) == nodes

    def test_str_draw_within_128_nodes_makes_one_call(self, monkeypatch):
        # draw 4 stops within 128 nodes, all of them in the first call
        calls, rep = self.str_calls(monkeypatch, 4)
        assert calls == [65] and rep.numerics_meta["nodes"] == 65
        assert rep.passed


class TestNodeLayout:
    @staticmethod
    def written_out(period, min_nodes, max_nodes, even):
        """The first call's nodes, level by level: min_nodes nodes, then the
        odd multiples of period / n for n = 2 min_nodes, ... until 4
        min_nodes are evaluated or max_nodes is reached; with even=True
        the nodes k period / n with 2 k <= n."""
        levels, n = [np.arange(min_nodes)], min_nodes
        keep = (lambda k, n: k[2 * k <= n]) if even else (lambda k, n: k)
        levels[0] = keep(levels[0], n)
        count = levels[0].size
        while count < 4 * min_nodes and n < max_nodes:
            n *= 2
            levels.append(keep(np.arange(1, n, 2), n))
            count += levels[-1].size
        return np.concatenate([k * (period / (min_nodes * 2 ** i))
                               for i, k in enumerate(levels)])

    @pytest.mark.parametrize("period,min_nodes,max_nodes,even", [
        (math.pi, 16, 2 ** 15, True), (2 * math.pi, 16, 2 ** 15, False),
        (2 * math.pi, 16, 2 ** 15, True), (1.0, 5, 48, True),
        (3.0, 7, 20, False), (2.0, 4, 4, False)])
    def test_cached_layout_is_read_only_and_fresh(self, period, min_nodes,
                                                  max_nodes, even):
        setting = (period, min_nodes, max_nodes, even)
        nodes = numerics.Trapezoid(period, 1, *setting[1:]).nodes
        assert nodes is numerics.Trapezoid(period, 2, *setting[1:]).nodes
        cached, fresh = (numerics._first_call(*setting),
                         numerics._first_call.__wrapped__(*setting))
        assert np.array_equal(nodes, self.written_out(*setting))
        for got, want in zip(cached[:2], fresh[:2]):
            assert not got.flags.writeable
            assert np.array_equal(got, want)
        assert cached[3] == fresh[3]
        for got, want in zip(cached[2], fresh[2]):
            assert np.array_equal(got, want)
            assert not isinstance(got, np.ndarray) or not got.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 1.0
        # the integrator's first call gets this very array, each later one
        # a cached, read-only refinement equal to a fresh one
        calls = []

        def f(x):
            calls.append(x)
            return 1 / (1.5 - np.cos(2 * math.pi * x / period))
        numerics.periodic_integrate(f, period, 1e-14, min_nodes, max_nodes,
                                    vectorized=True, even=even)
        assert calls[0] is nodes
        n = cached[3]
        for x in calls[1:]:
            n *= 2
            want = numerics._refinement.__wrapped__(period, n, even)[0]
            assert not x.flags.writeable and np.array_equal(x, want)


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
            # the first call holds the first level and the three
            # refinements after it (n up to 8 min_nodes), each later call
            # one level
            new = [min_nodes, min_nodes] + [min_nodes * 2 ** k
                                            for k in range(1, len(levels) + 3)]
            most = ([sum(n // 2 + 1 for n in new[:4])]
                    + [n // 2 + 1 for n in new[4:]])
            assert all(k <= b for k, b in zip(levels, most))
            assert sum(levels) == even.nodes_used
        # the first call evaluates the levels up to 8 min_nodes, also where
        # the full period stops at 4 min_nodes
        assert even.nodes_used <= (max(full.nodes_used, 8 * min_nodes) // 2
                                   + len(levels))

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


class TestLineIntegrals:
    # a Lorentzian, whose x^-2 tail is the slowest any row may have, beside
    # fast-decaying rows; at tol 1e-3 each of them alone cuts the line at
    # T = 8, and so does the batch
    ROWS = (lambda x: 1.0 / (1.0 + x * x), lambda x: np.exp(-x * x),
            lambda x: 1.0 / (1.0 + x * x) ** 3,
            lambda x: np.cos(x) / (1.0 + x * x) ** 2)

    def test_rows_stop_at_their_own_levels(self):
        calls = []

        def f(x, rows):
            calls.append(list(rows))
            return np.array([self.ROWS[i](x) for i in rows])
        batch = numerics.line_integrals(f, len(self.ROWS), 1e-3)
        alone = [numerics.line_integrate(g, 1e-3, vectorized=True)
                 for g in self.ROWS]
        assert batch == alone
        # the end points, the first levels, then the rows that have not
        # stopped: the Lorentzian stops first
        assert [res.nodes_used for res in batch] == [64, 128, 128, 128]
        assert calls == [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3]]

    def test_slowest_row_sets_the_half_width(self, monkeypatch):
        # at tol 1e-8 the Lorentzian alone needs T = 32, where 1/cosh T is
        # within tol; the batch cuts every row there, and each row still
        # stops at its own level, within tol
        periods, trapezoid = [], numerics.Trapezoid

        class Recorded(trapezoid):
            def __init__(self, period, *args, **kwargs):
                periods.append(period)
                super().__init__(period, *args, **kwargs)
        monkeypatch.setattr(numerics, "Trapezoid", Recorded)
        batch = numerics.line_integrals(
            lambda x, rows: np.array([self.ROWS[i](x) for i in rows]),
            len(self.ROWS), 1e-8)
        lorentzian = numerics.line_integrate(self.ROWS[0], 1e-8)
        assert periods == [64.0, 64.0]
        assert batch[0] == lorentzian
        assert [res.nodes_used for res in batch] == [512, 1024, 512, 8192]
        exact = (math.pi, math.sqrt(math.pi), 3 * math.pi / 8,
                 math.pi / math.e)
        assert all(res.converged and abs(res.value - v) <= 1e-8 * v
                   for res, v in zip(batch, exact))


class TestRun:
    # 1 / (b - cos x) over a period, 2 pi / sqrt(b^2 - 1): at tol 1e-10
    # the integrals stop at levels of 64 to 512 nodes
    B = (1.01, 1.02, 1.05, 1.1, 1.3, 2.0, 5.0)

    def integrand(self, calls=None):
        """f of ``Trapezoid.run`` for the integrals of B, their exact
        values as right sides; each call's (nodes, run, first) is added to
        calls."""
        def f(x, run, first):
            if calls is not None:
                calls.append((x.size, list(run), first))
            sides = [2 * math.pi / math.sqrt(self.B[i] ** 2 - 1) for i in run]
            return (np.array([1 / (self.B[i] - np.cos(x)) for i in run]),
                    sides if first else [])
        return f

    def stepped(self, tol=1e-10, rows=0, first_rows=0, calls=None):
        steps = numerics.Trapezoid(2 * math.pi, len(self.B))
        sides = steps.run(self.integrand(calls), tol, rows, first_rows)
        return steps.results, sides

    def test_runs_give_the_one_run_results(self, monkeypatch):
        # 1 row per node and 40 per integral in the first batch, below 300
        # rows: runs of 2 integrals in the first batch (64 nodes), of 4 at
        # the level of 64 new nodes, of 2 at 128 and of 1 at 256
        one_run, _ = self.stepped()
        monkeypatch.setattr(numerics, "BATCH_ROWS", 300)
        calls = []
        runs, _ = self.stepped(rows=1, first_rows=40, calls=calls)
        assert runs == one_run
        assert all(res.converged for res in runs)
        assert [run for _, run, _ in calls] == [
            [0, 1], [2, 3], [4, 5], [6], [0, 1, 2, 3], [4], [0, 1], [2],
            [0]]

    def test_no_call_reaches_the_row_limit(self, monkeypatch):
        monkeypatch.setattr(numerics, "BATCH_ROWS", 300)
        calls = []
        self.stepped(rows=1, first_rows=40, calls=calls)
        rows = [len(run) * (size + 40 * first) for size, run, first in calls]
        assert max(rows) < 300
        # the first batch's runs as large as the limit lets them be
        assert rows[:3] == [2 * 104] * 3

    def test_sides_in_integral_order_set_the_tolerance(self, monkeypatch):
        monkeypatch.setattr(numerics, "BATCH_ROWS", 300)
        exact = [2 * math.pi / math.sqrt(b * b - 1) for b in self.B]
        seen = []

        def tol(sides):
            seen.append(list(sides))
            return [1e-10 * abs(h) for h in sides]
        results, sides = self.stepped(tol, rows=1, first_rows=40)
        assert sides == exact
        assert seen == [exact]
        fixed, _ = self.stepped([1e-10 * h for h in exact], 1, 40)
        assert results == fixed

    def test_rows_zero_makes_one_call_per_batch(self, monkeypatch):
        monkeypatch.setattr(numerics, "BATCH_ROWS", 1)
        calls = []
        self.stepped(calls=calls)
        assert [(size, run) for size, run, _ in calls] == [
            (64, [0, 1, 2, 3, 4, 5, 6]), (64, [0, 1, 2, 3, 4]),
            (128, [0, 1, 2]), (256, [0])]
        assert [first for _, _, first in calls] == [True] + [False] * 3


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
