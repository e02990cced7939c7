"""A sweep's star-triangle samples verified together: every trapezoid
level is one integrand batch over the samples that have not stopped, and
each sample's rows are a truncation group of their own, so every row is
bit for bit the report its draw gets alone."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenstri import cli, models, verify
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
    rep, status = cli._sweep_one(ident, params, ident.tol, seed, index)
    row = {"sample_index": index, "status": status}
    if rep is not None:
        row.update(cli.report_to_dict(rep), seed=seed)
    return cli.to_json(row)


#: (identity, r, tau, sigma): at r = 4 six samples hold more gamma rows
#: than one batch takes (``models.STAR_BATCH_ROWS``)
SWEEPS = [("str", 1, None), ("str", 2, None), ("str", 3, None),
          ("str", 4, None), ("str", 2, "-0.05+0.7j"), ("rinfstr", 1, None),
          ("rinfstr", 2, "-0.05+0.7j"), ("str", 2, None, "0.05+0.12j")]


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
            case = cli._sample(ident, params, 5, index)
            rep = (verify.verify_str if identity == "str"
                   else verify.verify_rinfstr)(case["spins"],
                                               case["alphas"], params)
            assert json.loads(row)["lhs"] == [rep.lhs.real, rep.lhs.imag]

    @pytest.mark.parametrize("identity,r", [("str", 2), ("rinfstr", 1)])
    def test_rows_do_not_depend_on_the_sample_count(self, capsys, tmp_path,
                                                    identity, r):
        rows = [sweep_rows(capsys, tmp_path,
                           [identity, "--r", str(r), "--seed", "6",
                            "--samples", str(n)])
                for n in (6, 11)]
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


#: a batch of truncation groups: 2..5 groups of one shape, each with its
#: own scale of |c| (so its own staircase, or a staircase it shares with
#: others), and a block size that splits the groups' products into
#: several blocks, one of one element too
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
