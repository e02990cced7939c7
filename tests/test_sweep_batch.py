"""A sweep's samples verified together: every trapezoid level of the
star-triangle, master and iconst samples is one integrand batch over the
samples (an iconst sample's two integrals) that have not stopped, the
inversion samples are one weight call and the thtfunct samples one lens
theta call, and each sample's rows are a truncation group of their own,
so every row is bit for bit the report its draw gets alone."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenstri import cli, models, numerics, verify
from lenstri import special_functions as sf
from lenstri.params import NomeParameters, NonConvergenceError, PoleHitError


def sweep_rows(capsys, tmp_path, argv):
    """The rows of ``lenstri sweep`` argv, the summary last."""
    target = tmp_path / "rows.jsonl"
    assert cli.main(["sweep", *argv, "--out", str(target)]) in (0, 1)
    capsys.readouterr()
    return target.read_text().splitlines()


def row_alone(ident, params, seed, index):
    """The sweep row of sample index, verified alone."""
    rep, status = cli._verify_one(ident, params, ident.tol,
                                  cli._sample(ident, params, seed, index))
    row = {"sample_index": index, "status": status}
    if rep is not None:
        row.update(cli.report_to_dict(rep), seed=seed)
    return cli.to_json(row)


#: (identity, r, tau, sigma): at r = 4 six samples hold more gamma rows
#: than one batch takes (``models.STAR_BATCH_ROWS``), and so do six
#: master samples near the unit circle
SWEEPS = [("str", 1, None), ("str", 2, None), ("str", 3, None),
          ("str", 4, None), ("str", 2, "-0.05+0.7j"), ("rinfstr", 1, None),
          ("rinfstr", 2, "-0.05+0.7j"), ("str", 2, None, "0.05+0.12j"),
          ("master", 1, None), ("master", 2, None), ("master", 3, None),
          ("iconst", 2, None), ("master", 2, None, "0.05+0.12j"),
          ("master", 2, "-0.05+0.7j")]

#: (identity, r, samples) of the sweeps whose first six rows are those of
#: a sweep of six samples; 33 samples are a batch of SWEEP_BATCH and one
#: of a single sample
COUNTS = [("str", 2, 11), ("rinfstr", 1, 11), ("inversion", 2, 11),
          ("thtfunct", 3, 11), ("master", 3, 11), ("iconst", 2, 11),
          ("inversion", 2, 33), ("thtfunct", 3, 33)]

#: each sweepable quadrature identity's own verifier, of one draw
ALONE = {
    "str": lambda c, pr: verify.verify_star_triangles(
        models.ModelFamily.ELLIPTIC, [(c["spins"], c["alphas"])], pr)[0],
    "rinfstr": lambda c, pr: verify.verify_star_triangles(
        models.ModelFamily.Q_LIMIT, [(c["spins"], c["alphas"])], pr)[0],
    "master": lambda c, pr: verify.verify_masters([c["mp"]])[0],
    "iconst": lambda c, pr: verify.verify_I_constants([(c["t"], c["u"])],
                                                      pr)[0]}


class TestRows:
    @pytest.mark.parametrize("sweep", SWEEPS,
                             ids=["-".join(map(str, s)) for s in SWEEPS])
    def test_each_row_is_its_draw_alone(self, capsys, tmp_path, sweep):
        identity, r, tau, *sigma = sweep
        argv = [identity, "--r", str(r), "--seed", "5", "--samples", "6"]
        cfg = {"r": r, "tau": tau}
        if tau is not None:
            argv.append(f"--tau={tau}")
        if sigma:
            argv.append(f"--sigma={sigma[0]}")
            cfg["sigma"] = sigma[0]
        rows = sweep_rows(capsys, tmp_path, argv)
        ident = cli.IDENTITIES[identity]
        params = cli.build_params(cfg)
        for index, row in enumerate(rows[:-1]):
            assert row == row_alone(ident, params, 5, index)
            rep = ALONE[identity](cli._sample(ident, params, 5, index),
                                  params)
            assert json.loads(row)["lhs"] == [rep.lhs.real, rep.lhs.imag]
            assert json.loads(row)["rhs"] == [rep.rhs.real, rep.rhs.imag]

    @pytest.mark.parametrize("identity,r,samples", COUNTS, ids=[
        f"{i}-{r}" + (f"-{n}" if n != 11 else "") for i, r, n in COUNTS])
    def test_rows_do_not_depend_on_the_sample_count(self, capsys, tmp_path,
                                                    identity, r, samples):
        rows = [sweep_rows(capsys, tmp_path,
                           [identity, "--r", str(r), "--seed", "6",
                            "--samples", str(n)])
                for n in (6, samples)]
        assert rows[0][:-1] == rows[1][:6]

    @pytest.mark.parametrize("error,status", [
        (NonConvergenceError, "non-converged"),
        (PoleHitError, "non-converged")])
    def test_an_error_in_a_batch(self, capsys, tmp_path, monkeypatch, error,
                                 status):
        # sample 3's kappa raises: the batch is verified sample by sample,
        # sample 3 gets the status it gets alone and every other sample
        # its row
        argv = ["str", "--r", "2", "--seed", "5", "--samples", "6"]
        clean = sweep_rows(capsys, tmp_path, argv)
        alpha = json.loads(clean[3])["parameter_record"]["alphas"][0]
        kappa = models.kappa

        def failing(family, alphas, params, **kwargs):
            if alpha in np.asarray(alphas):
                raise error("forced")
            return kappa(family, alphas, params, **kwargs)
        monkeypatch.setattr(models, "kappa", failing)
        rows = sweep_rows(capsys, tmp_path, argv)
        assert json.loads(rows[3]) == {"sample_index": 3, "status": status}
        assert rows[:3] + rows[4:-1] == clean[:3] + clean[4:-1]
        assert json.loads(rows[-1])["skipped"] == 1

    def test_a_contour_violation_in_a_master_batch(self, capsys, tmp_path,
                                                   monkeypatch):
        # sample 3's pole margin reads 0: the batch is verified sample by
        # sample, sample 3 gets contour-violation and every other sample
        # its row
        argv = ["master", "--r", "2", "--seed", "5", "--samples", "6"]
        clean = sweep_rows(capsys, tmp_path, argv)
        t0 = complex(*json.loads(clean[3])["parameter_record"]["t"][0])
        diagnostics = verify.pole_diagnostics

        def failing(t, params):
            return 0.0 if t[0] == t0 else diagnostics(t, params)
        monkeypatch.setattr(verify, "pole_diagnostics", failing)
        rows = sweep_rows(capsys, tmp_path, argv)
        assert json.loads(rows[3]) == {"sample_index": 3,
                                       "status": "contour-violation"}
        assert rows[:3] + rows[4:-1] == clean[:3] + clean[4:-1]
        assert json.loads(rows[-1])["skipped"] == 1


#: (identity, r, tau, sigma) of the closed-form sweeps: 40 samples, two
#: batches
CLOSED = [("inversion", 1, None), ("inversion", 3, None),
          ("inversion", 6, None), ("inversion", 2, "-0.05+0.7j"),
          ("inversion", 4, None, "0.05+0.12j"), ("thtfunct", 1, None),
          ("thtfunct", 4, None), ("thtfunct", 6, None),
          ("thtfunct", 2, "-0.05+0.7j"), ("thtfunct", 3, None, "0.05+0.12j")]


class TestClosedFormRows:
    @pytest.mark.parametrize("sweep", CLOSED,
                             ids=["-".join(map(str, s)) for s in CLOSED])
    def test_each_row_is_its_draw_alone(self, capsys, tmp_path, sweep):
        identity, r, tau, *sigma = sweep
        argv = [identity, "--r", str(r), "--seed", "5", "--samples", "40"]
        cfg = {"r": r, "tau": tau}
        if tau is not None:
            argv.append(f"--tau={tau}")
        if sigma:
            argv.append(f"--sigma={sigma[0]}")
            cfg["sigma"] = sigma[0]
        rows = sweep_rows(capsys, tmp_path, argv)
        ident = cli.IDENTITIES[identity]
        params = cli.build_params(cfg)
        assert len(rows) == 41
        for index, row in enumerate(rows[:-1]):
            assert json.loads(row)["status"] == "ok"
            assert row == row_alone(ident, params, 5, index)
            if identity == "inversion":
                # the weights of the draw's scalar spins, in one call
                case = cli._sample(ident, params, 5, index)
                alpha = case["alpha"]
                w1, w2 = models.edge_weight(
                    case["family"], np.array([alpha, -alpha]),
                    *case["spins"], params)
                lhs = w1 * w2
                assert json.loads(row)["lhs"] == [lhs.real, lhs.imag]

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
    def test_lens_theta_groups(self, r):
        # the lens theta arguments of ten thtfunct draws, in one call,
        # one group each: each group's values are those of a call of its
        # own
        pr = cli.build_params({"r": r})
        ident = cli.IDENTITIES["thtfunct"]
        cases = [cli._sample(ident, pr, 5, i) for i in range(10)]
        x, m = verify._theta_arguments(
            np.array([[c["z"], c["z"] + 0.5, 1.0 - c["z"]] for c in cases]),
            np.array([c["y"] for c in cases]),
            np.array([c["t"] for c in cases]),
            np.array([c["u"] for c in cases]))
        assert x.shape == m.shape == (10, 9 + 14 * 3)
        values = sf.lens_theta(x, m, pr, group_axis=-2, with_bound=True)
        for i in range(10):
            want = sf.lens_theta(x[i].copy(), m[i].copy(), pr,
                                 with_bound=True)
            assert np.array_equal(values[0][i], want[0])
            assert np.array_equal(values[1][i], want[1])

    @pytest.mark.parametrize("error", [NonConvergenceError, PoleHitError])
    def test_an_inversion_error_in_a_batch(self, capsys, tmp_path,
                                           monkeypatch, error):
        # sample 3's kappa raises: the batch is verified sample by sample
        argv = ["inversion", "--r", "2", "--seed", "5", "--samples", "6"]
        clean = sweep_rows(capsys, tmp_path, argv)
        alpha = json.loads(clean[3])["parameter_record"]["alpha"]
        kappa = models.kappa

        def failing(family, alphas, params, **kwargs):
            if alpha in np.asarray(alphas):
                raise error("forced")
            return kappa(family, alphas, params, **kwargs)
        monkeypatch.setattr(models, "kappa", failing)
        self.assert_sample_3_alone(sweep_rows(capsys, tmp_path, argv), clean)

    @pytest.mark.parametrize("error", [NonConvergenceError, PoleHitError])
    def test_a_thtfunct_error_in_a_batch(self, capsys, tmp_path, monkeypatch,
                                         error):
        # a lens theta call holding sample 3's arguments raises
        argv = ["thtfunct", "--r", "3", "--seed", "5", "--samples", "6"]
        clean = sweep_rows(capsys, tmp_path, argv)
        t = [complex(*v) for v in
             json.loads(clean[3])["parameter_record"]["t"]]
        marker = t[0] + t[1]     # its first lens theta argument
        lens_theta = sf.lens_theta

        def failing(z, *args, **kwargs):
            if (np.asarray(z) == marker).any():
                raise error("forced")
            return lens_theta(z, *args, **kwargs)
        monkeypatch.setattr(sf, "lens_theta", failing)
        self.assert_sample_3_alone(sweep_rows(capsys, tmp_path, argv), clean)

    @staticmethod
    def assert_sample_3_alone(rows, clean):
        """Sample 3 of six has the status it gets alone, and every other
        sample its row."""
        assert json.loads(rows[3]) == {"sample_index": 3,
                                       "status": "non-converged"}
        assert rows[:3] + rows[4:-1] == clean[:3] + clean[4:-1]
        assert json.loads(rows[-1])["skipped"] == 1


class TestBatchCalls:
    @pytest.mark.parametrize("r", [1, 2])
    def test_one_integrand_batch_per_level(self, monkeypatch, r):
        # six samples, one star_integrand call per trapezoid level and one
        # kernel call in it, the samples on the leading axis of its rows
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, r)
        ident = cli.IDENTITIES["str"]
        cases = [cli._sample(ident, pr, 7, i) for i in range(6)]
        levels = []
        integrand, kernel = models.star_integrand, sf._log_product_2d

        def counted_integrand(family, s0, spins, *args, **kwargs):
            levels.append([np.size(spins[0].x), []])
            return integrand(family, s0, spins, *args, **kwargs)

        def counted_kernel(c, *args, **kwargs):
            levels[-1][1].append(np.shape(c))
            return kernel(c, *args, **kwargs)
        monkeypatch.setattr(models, "star_integrand", counted_integrand)
        monkeypatch.setattr(sf, "_log_product_2d", counted_kernel)
        reports = cli._sweep_batch(ident, pr, ident.tol, cases)
        nodes = max(rep.numerics_meta["nodes"] for rep, _ in reports)
        assert len(levels) == round(math.log2((nodes - 1) / 64)) + 1
        assert levels[0][0] == 6
        assert all(len(shapes) == 1 and shapes[0][-2] == n
                   for n, shapes in levels if n > 1)

    @pytest.mark.parametrize("identity,samples,integrals",
                             [("master", 3, 3), ("iconst", 1, 2)])
    def test_one_master_integrand_call_per_level(self, monkeypatch,
                                                 identity, samples,
                                                 integrals):
        # three master samples, or the two integrals of one iconst
        # sample: one master_integrand call per trapezoid level, holding
        # every integral that has not stopped
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, 2)
        ident = cli.IDENTITIES[identity]
        cases = [cli._sample(ident, pr, 7, i) for i in range(samples)]
        calls, levels = [], []
        integrand, take = verify.master_integrand, numerics.Trapezoid.take

        def counted_integrand(z, y, mp, **kwargs):
            calls.append(1 if isinstance(mp, verify.MasterParameters)
                         else len(mp))
            return integrand(z, y, mp, **kwargs)

        def counted_take(steps, values, tol):
            levels.append(len(values))
            return take(steps, values, tol)
        monkeypatch.setattr(verify, "master_integrand", counted_integrand)
        monkeypatch.setattr(numerics.Trapezoid, "take", counted_take)
        reports = cli._sweep_batch(ident, pr, ident.tol, cases)
        assert [status for _, status in reports] == ["ok"] * samples
        assert calls == levels
        assert calls[0] == integrals


    def test_strmsg_one_integrand_call_per_chunk_batch(self, monkeypatch):
        # a seed-5 strmsg draw: each chunk of verify.STRMSG_CHUNK m-terms
        # makes one star_integrand call at the end points +-sinh T and one
        # per stepper batch, holding every m-term of the chunk that has not
        # stopped
        ident = cli.IDENTITIES["strmsg"]
        case = cli._sample(ident, None, 5, 0)
        calls, batches = [], []
        integrand, take = models.star_integrand, numerics.Trapezoid.take

        def counted_integrand(family, s0, *args, **kwargs):
            calls.append(np.broadcast(s0.x, s0.m).shape)
            return integrand(family, s0, *args, **kwargs)

        def counted_take(steps, values, tol):
            batches.append(values.shape)
            return take(steps, values, tol)
        monkeypatch.setattr(models, "star_integrand", counted_integrand)
        monkeypatch.setattr(numerics.Trapezoid, "take", counted_take)
        rep, status = cli._verify_one(ident, None, ident.tol, case)
        assert status == "ok"
        chunks = -(-rep.numerics_meta["m_terms"] // verify.STRMSG_CHUNK)
        ends = [shape for shape in calls if shape[-1] == 2]
        assert ends == [(verify.STRMSG_CHUNK, 2)] * chunks
        assert [shape for shape in calls if shape[-1] != 2] == batches
        assert len(calls) == chunks + len(batches)
        assert len(calls) < rep.numerics_meta["m_terms"]

    @staticmethod
    def calls_per_batch(monkeypatch, identity, pr, samples, module, name,
                        arg):
        """The argument arg of each call of module.name, per sample of a
        ``samples``-sample sweep verified alone, and per batch of the
        sweep."""
        calls, fn = [], getattr(module, name)

        def counted(*args, **kwargs):
            calls[-1].append(args[arg])
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        ident = cli.IDENTITIES[identity]
        cases = [cli._sample(ident, pr, 7, i) for i in range(samples)]
        alone = []
        for case in cases:
            calls.append([])
            cli._verify_one(ident, pr, ident.tol, case)
            alone.append(calls.pop())
        batches = []
        for lo in range(0, samples, cli.SWEEP_BATCH):
            calls.append([])
            cli._sweep_batch(ident, pr, ident.tol,
                             cases[lo:lo + cli.SWEEP_BATCH])
            batches.append(calls.pop())
        return alone, batches

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_inversion_one_log_call_per_truncation(self, monkeypatch, r):
        # twenty samples share a few truncation keys: each batch makes
        # one _truncated_log call per key of its samples, which alone
        # make one call each
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, r)
        alone, batches = self.calls_per_batch(
            monkeypatch, "inversion", pr, 20, sf, "_truncated_log", 5)
        assert all(len(keys) == 1 for keys in alone)
        for b, keys in enumerate(batches):
            mine = alone[b * cli.SWEEP_BATCH:(b + 1) * cli.SWEEP_BATCH]
            assert sorted(keys) == sorted({k for k, in mine})
        assert sum(map(len, batches)) < 20

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_thtfunct_one_product_per_term_count(self, monkeypatch, r):
        # ten samples, one lens theta call: one _pochhammer_raw call, and
        # one product per term count of its samples
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, r)
        alone, (grids,) = self.calls_per_batch(
            monkeypatch, "thtfunct", pr, 10, sf, "_product", 1)
        assert all(len(g) == 1 for g in alone)
        assert sorted(g.size for g in grids) == sorted(
            {g.size for g, in alone})
        monkeypatch.undo()
        _, (calls,) = self.calls_per_batch(
            monkeypatch, "thtfunct", pr, 10, sf, "_pochhammer_raw", 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_thtfunct_sides_in_one_pass(self, monkeypatch, r):
        # ten samples, one _theta_sides call over all their points, each
        # sample a row of its case axis
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, r)
        alone, (calls,) = self.calls_per_batch(
            monkeypatch, "thtfunct", pr, 10, verify, "_theta_sides", 1)
        assert [[np.shape(z) for z in zs] for zs in alone] == [[(1, 3)]] * 10
        assert [np.shape(z) for z in calls] == [(10, 3)]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_inversion_sweep_one_weight_call(self, capsys, tmp_path,
                                             monkeypatch, r):
        # a sweep of 20 samples is one batch, and so one weight call
        calls, edge_weight = [], models.edge_weight

        def counted(*args, **kwargs):
            calls.append(args[1])
            return edge_weight(*args, **kwargs)
        monkeypatch.setattr(models, "edge_weight", counted)
        rows = sweep_rows(capsys, tmp_path, ["inversion", "--r", str(r),
                                             "--seed", "7", "--samples",
                                             "20"])
        assert json.loads(rows[-1])["passes"] == 20
        assert [np.shape(alpha) for alpha in calls] == [(20, 2)]


#: a batch of truncation groups: 2..5 groups of one shape, each with its
#: own scale of |c| (so its own staircase, or a staircase it shares with
#: others), and a block size that cuts the groups' products into several
#: blocks of even size (``_product``), whose boundaries fall elsewhere in
#: a group's call of its own
groups_st = st.tuples(
    st.integers(2, 5), st.integers(1, 40),
    st.lists(st.sampled_from([0.3, 1.5]) | st.floats(0.05, 3.0),
             min_size=5, max_size=5),
    st.sampled_from([16, 33, 45, 64, 2 ** 14]),
    st.integers(0, 2 ** 32 - 1))


class TestTruncationGroups:
    @given(groups_st, st.sampled_from([(0.3 + 0.2j, 0.4 - 0.1j),
                                       (0.6j, 0.05), (0.25, 0.0)]),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_each_group_as_alone(self, draw, ratios, guarded):
        n, width, scales, block, seed = draw
        rng = np.random.default_rng(seed)
        c = (rng.normal(size=(2, n, width))
             + 1j * rng.normal(size=(2, n, width)))
        c *= np.array(scales[:n])[:, None] / np.abs(c).max()
        a, b = ratios
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sf, "_BLOCK", block)
            log, tail = sf._log_product_2d(c, a, b, guarded, group_axis=-2)
            for g in range(n):
                alone = np.ascontiguousarray(c[:, g, :])
                want, want_tail = sf._log_product_2d(alone, a, b, guarded)
                assert np.array_equal(log[:, g, :], want)
                assert np.array_equal(tail[:, g, :], want_tail)

    @given(groups_st, st.sampled_from([0.3 + 0.2j, 0.6j, 0.05, 0.9]),
           st.booleans(), st.integers(2, 300))
    @settings(max_examples=150, deadline=None)
    def test_each_pochhammer_group_as_alone(self, draw, ratio, stacked,
                                            block):
        # stacked: two products per element, as lens_theta lays them out;
        # else one, so that a group of width 1 holds one element.  The
        # block holds a few of the 10-80 factors of a product, or fewer
        n, width, scales, _, seed = draw
        rng = np.random.default_rng(seed)
        lead = (2,) if stacked else ()
        c = (rng.normal(size=lead + (n, width))
             + 1j * rng.normal(size=lead + (n, width)))
        c *= np.array(scales[:n])[:, None] / np.abs(c).max()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sf, "_BLOCK", block)
            value, tail = sf._pochhammer_raw(c, ratio, group_axis=-2)
            for g in range(n):
                alone = np.ascontiguousarray(c[..., g, :])
                want, want_tail = sf._pochhammer_raw(alone, ratio)
                assert np.array_equal(value[..., g, :], want)
                assert np.array_equal(tail[..., g, :], want_tail)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_each_master_integral_as_alone(self, r):
        # the integrals at t and at the shifted t of three iconst draws,
        # on one stepper: each gets the result and the right side it gets
        # alone, though their largest |c| differ
        pr = cli.build_params({"r": r})
        ident = cli.IDENTITIES["iconst"]
        mps = []
        for i in range(3):
            case = cli._sample(ident, pr, 5, i)
            t, u = case["t"], case["u"]
            mps += [verify.constant_form(t, u, pr),
                    verify.constant_form(
                        (t[0] + math.pi * pr.sigma,) + tuple(t[1:]),
                        (u[0] - 1,) + tuple(u[1:]), pr)]
        tols = [1e-7, 1e-8] * 3
        results, sides = verify._master_integral(mps, tols, scaled=True)
        for mp, tol, res, side in zip(mps, tols, results, sides):
            assert verify._master_integral([mp], [tol], scaled=True) == (
                [res], [side])


class TestProductBlocks:
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 7),
           st.integers(2, 60), st.sampled_from([0.3 + 0.2j, 0.6j, -0.9]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_values_do_not_depend_on_the_blocks(self, factors, cols, extra,
                                                n, ratio, guarded, seed):
        # a grid of at most _BLOCK / 2 factors and n >= 2 elements: the
        # products of a call cut into blocks equal those of one block.
        # |c| <= 0.9 keeps every factor 1 - c g away from zero
        rng = np.random.default_rng(seed)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c *= 0.9 / np.abs(c).max()
        grid = ratio ** np.arange(factors)
        whole = sf._product(c, grid, guarded)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sf, "_BLOCK", factors * cols + extra % factors)
            assert np.array_equal(sf._product(c, grid, guarded), whole)


class TestPhaseShift:
    def test_lens_gamma_phase_does_not_depend_on_the_batch_size(self):
        # 20,000 points, past the size at which numpy would evaluate a
        # phase shift product in place of its gathered operand: the values
        # of one call equal those of calls of 1,000 points.  Real z with m
        # in 0..2, and z = x + 0.3i with m in -6..6 for the four shifted
        # product arguments of lens_gamma_appendix
        pr = NomeParameters(0.05 + 0.5j, -0.05 + 0.5j, 3)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, math.pi, 20000)
        inputs = [(sf.lens_elliptic_gamma, x, rng.integers(0, 3, x.size)),
                  (sf.lens_gamma_appendix, x + 0.3j,
                   rng.integers(-6, 7, x.size))]
        for fn, z, m in inputs:
            whole = fn(z, m, pr)
            parts = np.concatenate([fn(z[i:i + 1000], m[i:i + 1000], pr)
                                    for i in range(0, z.size, 1000)])
            assert np.array_equal(whole, parts)
