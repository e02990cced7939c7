"""Command-line front end: single evaluations, identity verification,
seeded randomized sweeps, and contour pole diagnostics.

Reports serialize to JSON (one object per line for sweeps) or CSV with
complex values split into re/im columns.  Floats use Python's shortest
round-trip representation, so a fixed seed reproduces output byte for
byte; wall-clock times are kept out of the rows of ``verify`` and
``sweep`` for the same reason (each prints its timing to stderr).

Random sampling uses numpy's default PCG64 generator seeded with the
--seed value.  Samplers, in draw order:
  * star-triangle families: alphas = eta*(0.10 + 0.70*Dirichlet(1,1,1)),
    then per spin an angle (uniform) and an integer part (uniform range
    for the family);
  * master/constant-form: Im(t) = span*(0.4/n + 0.6*Dirichlet(2,...,2)),
    Re(t) uniform in (-0.8, 0.8) recentered to zero mean, integers u
    uniform in [-2, 2] (zero-sum for the six-variable form);
  * theta difference: t as above with span 1.6*eta, z uniform in the
    period strip.
Each identity has one runner (``Identity``): a batch runner over a list
of cases, or, for ``strmsg``, ``cov`` and the unswept identities, a
runner of one case.  ``verify`` runs its one case as a batch of one where
there is a batch runner.  Sweeps draw their samples in sample order and
verify them in batches of up to ``SWEEP_BATCH`` = 32 (``Identity.batch``,
else one after another), so that a sweep of the default 10 samples is one
batch: a star-triangle, master or constant-form batch shares each
trapezoid level's integrand call (an iconst sample's two integrals are
two of its integrals), an inversion batch one weight call and a thtfunct
batch one lens theta call and one array pass over its sides, and every
report is the one its draw gets alone.

``main`` sets glibc's malloc thresholds once per process
(``_steady_heap``), so that the arrays of a batch are reused from the heap
instead of being handed back to the system and faulted in again at every
level.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import models, verify
from . import special_functions as sf
from .models import ModelFamily, Spin
from .params import (
    TERM_EPSILON,
    ContourViolationError,
    InvalidParameterError,
    NomeParameters,
    NonConvergenceError,
    PoleHitError,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3

CSV_COLUMNS = ["sample_index", "identity_name", "status", "lhs_re", "lhs_im",
               "rhs_re", "rhs_im", "abs_residual", "rel_residual",
               "tolerance", "passed", "seed"]


def _json_default(obj):
    """What json.dumps cannot write itself: a complex number (numpy's too)
    as an [re, im] pair, another numpy scalar as the Python one.  numpy
    floats are float subclasses, which the encoder writes by
    float.__repr__, as Python floats."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def to_json(obj) -> str:
    """obj, with report contents in it, as one line of JSON."""
    return json.dumps(obj, default=_json_default)


def report_to_dict(rep: verify.VerificationReport) -> dict:
    """The report as a dict for ``to_json``."""
    return {
        "identity_name": rep.identity_name,
        "parameter_record": rep.parameter_record,
        "lhs": complex(rep.lhs),
        "rhs": complex(rep.rhs),
        "abs_residual": rep.abs_residual,
        "rel_residual": rep.rel_residual,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "checks": rep.checks,
        "numerics_meta": rep.numerics_meta,
    }


def _csv_row(index, rep: Optional[verify.VerificationReport], status, seed):
    """One CSV_COLUMNS row; the report's columns stay empty without a
    report.  The csv module writes each value by str, so a float, numpy's
    too, in the shortest form that reads back, as in the JSON rows."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(sample_index=index, status=status, seed=seed)
    if rep is not None:
        lhs, rhs = complex(rep.lhs), complex(rep.rhs)
        row.update(identity_name=rep.identity_name, lhs_re=lhs.real,
                   lhs_im=lhs.imag, rhs_re=rhs.real, rhs_im=rhs.imag,
                   abs_residual=rep.abs_residual,
                   rel_residual=rep.rel_residual, tolerance=rep.tolerance,
                   passed=rep.passed)
    return row


def config_number(kind, value, name: str):
    """kind(value), kind being int or float, for a number read from the
    config or the command line; a value that is not such a number is an
    invalid parameter."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{name} must be {kind.__name__}, got {value!r}") from None


def _seed(cfg: dict) -> int:
    """The sampling seed; numpy's generators take non-negative seeds only."""
    seed = config_number(int, cfg.get("seed", 0), "seed")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return seed


def parse_complex(text) -> complex:
    """A complex number written as a string ('a+bj' or 'a+bi') or given as
    a number (as JSON config files give it)."""
    if isinstance(text, (int, float, complex)) and not isinstance(text, bool):
        return complex(text)
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except (AttributeError, ValueError):
        raise InvalidParameterError(f"cannot parse complex number {text!r}")


def _config_list(values, name: str):
    """values, which must be a list (a JSON array)."""
    if not isinstance(values, (list, tuple)):
        raise InvalidParameterError(f"{name} must be a list, got {values!r}")
    return values


def parse_spin(text: str) -> Spin:
    """Spin given as 'x:m' on the command line or [x, m] in config files."""
    if isinstance(text, (list, tuple)):
        x, m = text[0], text[1]
    elif isinstance(text, str):
        x, _, m = text.partition(":")
        m = m or 0
    else:
        raise InvalidParameterError(f"cannot parse spin {text!r}")
    return Spin(config_number(float, x, "spin angle"),
                config_number(int, m, "spin integer part"))


def parse_t(values) -> tuple:
    """Complex t values given as strings, numbers or [re, im] pairs."""
    def one(v):
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(config_number(float, v[0], "Re t"),
                           config_number(float, v[1], "Im t"))
        return parse_complex(v)
    return tuple(one(v) for v in _config_list(values, "t"))


def parse_u(values) -> tuple:
    """Integer u values."""
    return tuple(config_number(int, v, "u") for v in _config_list(values, "u"))


def build_params(cfg: dict) -> NomeParameters:
    sigma = parse_complex(cfg.get("sigma", "0.05+0.5j"))
    tau = (parse_complex(cfg["tau"]) if cfg.get("tau") is not None
           else -sigma.conjugate())
    return NomeParameters(sigma, tau, config_number(int, cfg.get("r", 1), "r"))


# ---------------------------------------------------------------------------
# samplers (documented in the module docstring; keep draw order stable)


def sample_alphas(rng, eta: float):
    return tuple(eta * (0.10 + 0.70 * rng.dirichlet([1.0, 1.0, 1.0])))


def _sample_spins(rng, n: int, x_range, m_range):
    """n spins, each an angle uniform in x_range and then an integer part
    uniform in the half-open m_range."""
    return tuple(Spin(float(rng.uniform(*x_range)),
                      int(rng.integers(*m_range))) for _ in range(n))


def sample_str_case(rng, params: NomeParameters):
    alphas = sample_alphas(rng, params.eta.real)
    spins = _sample_spins(rng, 3, (0.0, math.pi), (0, params.r // 2 + 1))
    return {"spins": spins, "alphas": alphas}


def sample_rinfstr_case(rng, params: NomeParameters):
    alphas = sample_alphas(rng, params.eta.real)
    return {"spins": _sample_spins(rng, 3, (0.0, math.pi), (-3, 4)),
            "alphas": alphas}


def sample_strmsg_case(rng, params=None):
    alphas = sample_alphas(rng, 1.0)
    return {"spins": _sample_spins(rng, 3, (-2.0, 2.0), (-3, 4)),
            "alphas": alphas}


def _sample_t(rng, n: int, span: float, floor: float = 0.0):
    """n points t whose imaginary parts sum to span: each is the floor
    plus a share of at least 0.4 / n of what the span leaves after n
    floors."""
    share = 0.4 / n + 0.6 * rng.dirichlet([2.0] * n)
    im = floor + (span - n * floor) * share
    re = rng.uniform(-0.8, 0.8, n)
    re -= re.sum() / n   # re.mean(), without its Python-level wrapper
    return [complex(a, b) for a, b in zip(re.tolist(), im.tolist())]


def sample_master_case(rng, params: NomeParameters):
    # the sixth t and u are drawn to keep the draw order, then replaced by
    # the constant form's t_6 = 2i eta - sum t, u_6 = -sum u
    t = _sample_t(rng, 6, (2j * params.eta).imag)
    u = [int(v) for v in rng.integers(-2, 3, 6)]
    return {"mp": verify.constant_form(t[:5], u[:5], params)}


def sample_iconst_case(rng, params: NomeParameters):
    # Im A = span.  The shifted t (Im A + pi Im sigma) must stay below
    # Im(2i eta) by the contour margin; where a span of 0.4 Im(2i eta)
    # leaves no room for that (Im tau <= 0.74 Im sigma at a real eta),
    # every draw would be rejected, so the span is 0.9 of the room there
    width = (2j * params.eta).imag
    margin = verify.CONTOUR_MARGIN_FRACTION * abs(params.eta)
    room = width - math.pi * params.sigma.imag - margin
    span = 0.4 * width if 0.4 * width < room else 0.9 * room
    # each Im t_i is at least 0.08 span; where that is under the contour
    # margin, a small share would be rejected, so each starts at 1.25
    # margins (or span / 5, if the span holds fewer than five of those)
    floor = min(1.25 * margin, span / 5) if 0.08 * span < margin else 0.0
    t = _sample_t(rng, 5, span, floor)
    u = tuple(int(v) for v in rng.integers(-2, 3, 5))
    return {"t": tuple(t), "u": u}


def sample_thtfunct_case(rng, params: NomeParameters):
    t = _sample_t(rng, 5, 1.6 * params.eta.real)
    u = tuple(int(v) for v in rng.integers(-2, 3, 5))
    y = int(rng.integers(0, params.r))
    z = complex(rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.1, 0.1))
    return {"z": z, "y": y, "t": tuple(t), "u": u}


def sample_inversion_case(rng, params: NomeParameters):
    spins = _sample_spins(rng, 2, (0.0, math.pi), (0, params.r // 2 + 1))
    return {"family": ModelFamily.ELLIPTIC,
            "alpha": float(rng.uniform(0.1, 0.9) * params.eta.real),
            "spins": spins}


# ---------------------------------------------------------------------------
# explicit cases from the config; None when the config holds none


def parse_spins_case(cfg: dict, params: NomeParameters):
    if "spins" in cfg:
        spins = _config_list(cfg["spins"], "spins")
        alphas = _config_list(cfg["alphas"], "alphas")
        return {"spins": tuple(parse_spin(s) for s in spins),
                "alphas": tuple(config_number(float, a, "alphas")
                                for a in alphas)}


def parse_master_case(cfg: dict, params: NomeParameters):
    if "t" in cfg:
        return {"mp": verify.MasterParameters(
            parse_t(cfg["t"]), parse_u(cfg["u"]), params)}


def parse_tu_case(cfg: dict, params: NomeParameters):
    if "t" in cfg:
        return {"t": parse_t(cfg["t"]), "u": parse_u(cfg["u"])}


def parse_thtfunct_case(cfg: dict, params: NomeParameters):
    case = parse_tu_case(cfg, params)
    if case is not None:
        case["z"] = parse_complex(cfg.get("z", "0.8+0.02j"))
        case["y"] = config_number(int, cfg.get("y", 0), "y")
    return case


def parse_brackets_case(cfg: dict, params: NomeParameters):
    return {"r_max": config_number(int, cfg.get("r_max", 64), "r_max")}


def parse_bridge_case(cfg: dict, params: NomeParameters):
    return {"z": parse_complex(cfg.get("z", 0.37 + 0.21j)),
            "m": config_number(int, cfg.get("m", 1), "m")}


def parse_limit_r_case(cfg: dict, params: NomeParameters):
    return {"z": parse_complex(cfg["z"]) if "z" in cfg else 0.3,
            "m": config_number(int, cfg.get("m", 1), "m")}


def parse_limit_hbar_case(cfg: dict, params: NomeParameters):
    return {"alpha": config_number(float, cfg.get("alpha", 0.4), "alpha"),
            "x": config_number(float, cfg.get("x", 1.0), "x"),
            "m": config_number(int, cfg.get("m", 0), "m")}


# ---------------------------------------------------------------------------
# identity table


@dataclass(frozen=True)
class Identity:
    """One checkable identity.  ``parse(cfg, params)`` reads an explicit
    case from the config (None: the config holds none) and ``sample(rng,
    params)`` draws one (None: the identity cannot be swept).  ``tol`` is
    the default tolerance, or None for an identity whose checks set their
    own bounds and take none.  Each identity has one runner: ``batch(cases,
    params, tol)`` verifies a list of cases together and returns their
    reports, in order, each the one its case gets alone, and a lenstri
    error raised in it is raised for all of them (every sweepable identity
    but ``strmsg`` and ``cov`` has one); ``run(case, params, tol)``
    verifies one case (the others).  Runners look verifiers up on the
    ``verify`` module at call time, never at import."""
    name: str
    tol: Optional[float]
    parse: Optional[Callable[[dict, NomeParameters], Optional[dict]]]
    sample: Optional[Callable[..., dict]]
    run: Optional[Callable[[dict, NomeParameters, Optional[float]],
                           verify.VerificationReport]] = None
    batch: Optional[Callable[[list, NomeParameters, Optional[float]],
                             list]] = None

    def case(self, cfg: dict, params: NomeParameters, seed: int) -> dict:
        """An explicit case from the config if present, else one seeded draw."""
        case = self.parse(cfg, params) if self.parse else None
        if case is None:
            case = self.sample(np.random.default_rng(seed), params)
        return case

    def verify_one(self, case: dict, params: NomeParameters,
                   tol: Optional[float]) -> verify.VerificationReport:
        """The report of one case: its batch of one, where there is a
        batch runner."""
        if self.batch is not None:
            return self.batch([case], params, tol)[0]
        return self.run(case, params, tol)


def _stars(cases: list) -> list:
    """(spins, alphas) of each star-triangle case."""
    return [(c["spins"], c["alphas"]) for c in cases]


IDENTITIES = {ident.name: ident for ident in (
    Identity("str", 1e-6, parse_spins_case, sample_str_case,
             batch=lambda cs, pr, tol: verify.verify_star_triangles(
                 ModelFamily.ELLIPTIC, _stars(cs), pr, tol)),
    Identity("rinfstr", 1e-6, parse_spins_case, sample_rinfstr_case,
             batch=lambda cs, pr, tol: verify.verify_star_triangles(
                 ModelFamily.Q_LIMIT, _stars(cs), pr, tol)),
    Identity("strmsg", 1e-4, parse_spins_case, sample_strmsg_case,
             run=lambda c, pr, tol: verify.verify_strmsg(
                 c["spins"], c["alphas"], tol)),
    Identity("master", 1e-6, parse_master_case, sample_master_case,
             batch=lambda cs, pr, tol: verify.verify_masters(
                 [c["mp"] for c in cs], tol)),
    Identity("iconst", 1e-6, parse_tu_case, sample_iconst_case,
             batch=lambda cs, pr, tol: verify.verify_I_constants(
                 [(c["t"], c["u"]) for c in cs], pr, tol)),
    Identity("thtfunct", 1e-8, parse_thtfunct_case, sample_thtfunct_case,
             batch=lambda cs, pr, tol: verify.verify_theta_differences(
                 [(c["z"], c["y"], c["t"], c["u"]) for c in cs], pr, tol)),
    Identity("inversion", 1e-10, None, sample_inversion_case,
             batch=lambda cs, pr, tol: verify.verify_inversions(
                 [(c["family"], c["alpha"], c["spins"]) for c in cs], pr,
                 tol)),
    Identity("cov", 1e-8, parse_spins_case, sample_str_case,
             run=lambda c, pr, tol: verify.verify_cov_consistency(
                 c["spins"], c["alphas"], pr, tol)),
    Identity("brackets", None, parse_brackets_case, None,
             run=lambda c, pr, tol: verify.verify_bracket_identities(
                 c["r_max"])),
    Identity("bridge", 1e-10, parse_bridge_case, None,
             run=lambda c, pr, tol: verify.verify_gamma_phi_bridge(
                 c["z"], c["m"], pr, tol)),
    Identity("limit_r", None, parse_limit_r_case, None,
             run=lambda c, pr, tol: verify.verify_limit_r_to_inf(
                 c["z"], c["m"], pr)),
    Identity("limit_hbar", None, parse_limit_hbar_case, None,
             run=lambda c, pr, tol: verify.verify_limit_hbar(
                 c["alpha"], c["x"], c["m"])),
)}


def _tolerance(cfg: dict, ident: Identity) -> Optional[float]:
    """--tol if given, else the identity's default; it must be a positive
    finite number.  An identity without a tolerance takes no --tol."""
    if ident.tol is None:
        if cfg.get("tol") is not None:
            raise InvalidParameterError(
                f"{ident.name} takes no tolerance; its checks set their own")
        return None
    tol = (ident.tol if cfg.get("tol") is None
           else config_number(float, cfg["tol"], "tol"))
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(
            f"tol must be a positive finite number, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# evaluation registry


def _eval_registry(cfg, params):
    z = parse_complex(cfg["z"]) if "z" in cfg else 0.0
    m = config_number(int, cfg.get("m", 0), "m")
    alpha = config_number(float, cfg.get("alpha", 0.3), "alpha")
    spins = [parse_spin(s)
             for s in _config_list(cfg.get("spins", []), "spins")]
    return {
        "mod_bracket": lambda: sf.mod_bracket(m, params.r),
        "bracket_pm": lambda: sf.bracket_pm(m, params.r),
        "epsilon_factor": lambda: float(models.epsilon_factor(m, params.r)),
        "lens_elliptic_gamma": lambda: sf.lens_elliptic_gamma(
            z, m, params, with_bound=True),
        "lens_gamma_appendix": lambda: sf.lens_gamma_appendix(
            z, m, params, with_bound=True),
        "lens_theta": lambda: sf.lens_theta(z, m, params, with_bound=True),
        "theta4": lambda: sf.theta4(z, params.p, with_bound=True),
        "q_function": lambda: models.q_function(z, m, params),
        "kappa_elliptic": lambda: models.kappa_elliptic(alpha, params),
        "kappa_qlimit": lambda: models.kappa_qlimit(alpha, params),
        "weight_elliptic": lambda: models.weight_elliptic(
            alpha, spins[0], spins[1], params),
        "weight_qlimit": lambda: models.weight_qlimit(
            alpha, spins[0], spins[1], params),
        "weight_gamma": lambda: models.weight_gamma(alpha, spins[0], spins[1]),
        "single_spin_elliptic": lambda: models.single_spin_elliptic(
            spins[0], params),
        "single_spin_qlimit": lambda: models.single_spin_qlimit(
            spins[0], params),
        "single_spin_gamma": lambda: models.single_spin_gamma(spins[0]),
    }


# ---------------------------------------------------------------------------
# subcommand drivers


def _write(cfg: dict, text: str) -> None:
    """Write the finished output text to the --out file, or to stdout."""
    if cfg.get("out"):
        with open(cfg["out"], "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    """CSV_COLUMNS rows, with their header, as text."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def run_eval(cfg: dict) -> int:
    params = build_params(cfg)
    name = cfg.get("identity")
    registry = _eval_registry(cfg, params)
    if name not in registry:
        print(f"unknown evaluation target {name!r}; choose from "
              f"{sorted(registry)}", file=sys.stderr)
        return EXIT_INVALID
    value = registry[name]()
    record = {"function": name}
    if isinstance(value, tuple):
        value, bound = value
        record["tail_bound"] = bound
        record["term_epsilon"] = TERM_EPSILON
    record["value"] = value
    _write(cfg, to_json(record) + "\n")
    return EXIT_PASS


def run_verify(cfg: dict) -> int:
    identity = cfg.get("identity")
    ident = IDENTITIES.get(identity)
    if ident is None:
        print(f"unknown identity {identity!r}; choose from "
              f"{sorted(IDENTITIES)}", file=sys.stderr)
        return EXIT_INVALID
    params = build_params(cfg)
    seed = _seed(cfg)
    tol = _tolerance(cfg, ident)
    t0 = time.perf_counter()
    rep = ident.verify_one(ident.case(cfg, params, seed), params, tol)
    elapsed = time.perf_counter() - t0
    if cfg.get("format", "json") == "csv":
        _write(cfg, _csv_text([_csv_row(0, rep, "ok", seed)]))
    else:
        _write(cfg, to_json({**report_to_dict(rep), "seed": seed}) + "\n")
    print(f"verify finished in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if rep.passed else EXIT_FAIL


#: the most samples a sweep verifies in one batch, so that a closed-form
#: sweep of up to 32 samples is one weight or lens theta call: a
#: quadrature batch holds every level's rows of all of them at once, in
#: runs below ``models.STAR_BATCH_ROWS`` Gamma rows
SWEEP_BATCH = 32


def _sweep_batch(ident: Identity, params, tol, cases) -> list:
    """(report, status) of each case; the report is None unless the
    status is ok.  The cases of an identity with a batch runner are
    verified together; a lenstri error raised for several of them
    verifies each alone, so that each gets its own status."""
    if len(cases) > 1 and ident.batch is not None:
        try:
            return [(rep, "ok") for rep in ident.batch(cases, params, tol)]
        except (ContourViolationError, NonConvergenceError, PoleHitError):
            pass
    return [_verify_one(ident, params, tol, case) for case in cases]


def _verify_one(ident: Identity, params, tol, case):
    """(report, status) of one case; the report is None unless the status
    is ok."""
    try:
        return ident.verify_one(case, params, tol), "ok"
    except ContourViolationError:
        return None, "contour-violation"
    except (NonConvergenceError, PoleHitError):
        return None, "non-converged"


def _sample(ident: Identity, params, seed: int, index: int) -> dict:
    """Sample ``index`` of a sweep: a draw of its own generator."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return ident.sample(rng, params)


def run_sweep(cfg: dict) -> int:
    identity = cfg.get("identity")
    ident = IDENTITIES.get(identity)
    if ident is None or ident.sample is None:
        sweepable = sorted(name for name, i in IDENTITIES.items() if i.sample)
        print(f"identity {identity!r} does not support sweeps; choose from "
              f"{sweepable}", file=sys.stderr)
        return EXIT_INVALID
    params = build_params(cfg)
    seed = _seed(cfg)
    samples = config_number(int, cfg.get("samples", 10), "samples")
    if samples < 1:
        print("samples must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    tol = _tolerance(cfg, ident)
    t0 = time.perf_counter()
    results = []
    for lo in range(0, samples, SWEEP_BATCH):
        index = range(lo, min(lo + SWEEP_BATCH, samples))
        results += zip(index, *zip(*_sweep_batch(
            ident, params, tol, [_sample(ident, params, seed, i)
                                 for i in index])))
    elapsed = time.perf_counter() - t0

    reports = [rep for _, rep, _ in results if rep is not None]
    fails = sum(not rep.passed for rep in reports)
    if cfg.get("format", "json") == "csv":
        _write(cfg, _csv_text(_csv_row(i, rep, status, seed)
                              for i, rep, status in results))
    else:
        lines = []
        for i, rep, status in results:
            row = {"sample_index": i, "status": status}
            if rep is not None:
                row.update(report_to_dict(rep), seed=seed)
            lines.append(to_json(row) + "\n")
        summary = {"summary": True, "identity": identity, "samples": samples,
                   "seed": seed, "passes": len(reports) - fails,
                   "failures": fails, "skipped": samples - len(reports),
                   "max_rel_residual": max(
                       (rep.rel_residual for rep in reports), default=0.0)}
        lines.append(to_json(summary) + "\n")
        _write(cfg, "".join(lines))
    # wall-clock timing goes to stderr only, keeping files byte-reproducible
    print(f"sweep finished in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_FAIL if fails else EXIT_PASS


def run_poles(cfg: dict) -> int:
    params = build_params(cfg)
    if "t" not in cfg or "u" not in cfg:
        print("poles requires t and u tuples (via --config)", file=sys.stderr)
        return EXIT_INVALID
    t = parse_t(cfg["t"])
    u = parse_u(cfg["u"])
    if len(t) not in (5, 6) or len(u) != len(t):
        print("t and u must both have five (or six) entries", file=sys.stderr)
        return EXIT_INVALID
    margin = verify.pole_diagnostics(t[:5], params)
    record = {"t": list(t), "u": list(u), "margin": margin,
              "safe": margin >= verify.CONTOUR_MARGIN_FRACTION * abs(params.eta)}
    _write(cfg, to_json(record) + "\n")
    return EXIT_PASS


#: each subcommand's function, by name; the subcommands share one set of
#: flags.  The functions are looked up at call time, as the identity
#: runners are, so that a wrapper patched onto this module (a tracer's)
#: is what runs
COMMANDS = {"eval": lambda cfg: run_eval(cfg),
            "verify": lambda cfg: run_verify(cfg),
            "sweep": lambda cfg: run_sweep(cfg),
            "poles": lambda cfg: run_poles(cfg)}


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, and building it costs about 2 ms."""
    parser = argparse.ArgumentParser(
        prog="lenstri",
        description="evaluate and verify lattice-model weight identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("identity", nargs="?", help="identity or function name")
        sp.add_argument("--r", type=int)
        sp.add_argument("--sigma")
        sp.add_argument("--tau")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--format", choices=("json", "csv"))
        sp.add_argument("--out")
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--z", help="complex argument for eval/verify targets")
        sp.add_argument("--m", type=int)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--spins", nargs="*", help="spins as x:m tokens")
        sp.add_argument("--alphas", nargs="*", type=float)
    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """The config file's settings, overridden by every flag given."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None and val != []:
            cfg[key] = val
    return cfg


@lru_cache(maxsize=None)
def _steady_heap() -> None:
    """Once per process, where glibc's mallopt is there: keep freed memory
    of up to 64 MiB at the top of the heap (M_TRIM_THRESHOLD, -1) and take
    blocks below 32 MiB from the heap (M_MMAP_THRESHOLD, -3).  By default
    glibc trims the heap as a batch's arrays are freed and grows it again
    for the next level's, faulting their pages in each time.  Setting
    either value turns off glibc's own threshold adjustment, so both are
    set: a fixed 128 KiB mmap threshold alone would map every batch array
    afresh.  A mallopt that is missing or refuses (returns 0) leaves the
    allocator as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


def main(argv=None) -> int:
    _steady_heap()
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](merge_config(args))
    except (InvalidParameterError, ContourViolationError, FileNotFoundError,
            KeyError, IndexError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonConvergenceError, PoleHitError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
