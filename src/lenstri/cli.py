"""Command-line front end: single evaluations, identity verification,
seeded randomized sweeps, and contour pole diagnostics.

Reports serialize to JSON (one object per line for sweeps) or CSV with
complex values split into re/im columns.  Floats use Python's shortest
round-trip representation, so a fixed seed reproduces output byte for
byte; per-case wall-clock times are kept out of sweep rows for the same
reason (the summary timing goes to stderr).

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
Sweeps verify their samples one after another, in sample order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import models, verify
from . import special_functions as sf
from .models import ModelFamily, Spin
from .params import (
    DEFAULT_POLICY,
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


def _jsonable(obj):
    """Recursively convert report contents to JSON-safe values; complex
    numbers become [re, im] pairs and numpy scalars Python ones."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_to_dict(rep: verify.VerificationReport, include_runtime=True) -> dict:
    meta = dict(rep.numerics_meta)
    if not include_runtime:
        meta.pop("runtime", None)
    return _jsonable({
        "identity_name": rep.identity_name,
        "parameter_record": rep.parameter_record,
        "lhs": complex(rep.lhs),
        "rhs": complex(rep.rhs),
        "abs_residual": rep.abs_residual,
        "rel_residual": rep.rel_residual,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "checks": rep.checks,
        "numerics_meta": meta,
        "seed": rep.seed,
    })


def _csv_row(index, rep: Optional[verify.VerificationReport], status, seed):
    if rep is None:
        return {"sample_index": index, "identity_name": "", "status": status,
                "lhs_re": "", "lhs_im": "", "rhs_re": "", "rhs_im": "",
                "abs_residual": "", "rel_residual": "", "tolerance": "",
                "passed": "", "seed": seed}
    return {"sample_index": index, "identity_name": rep.identity_name,
            "status": status,
            "lhs_re": repr(complex(rep.lhs).real),
            "lhs_im": repr(complex(rep.lhs).imag),
            "rhs_re": repr(complex(rep.rhs).real),
            "rhs_im": repr(complex(rep.rhs).imag),
            "abs_residual": repr(rep.abs_residual),
            "rel_residual": repr(rep.rel_residual),
            "tolerance": repr(rep.tolerance),
            "passed": rep.passed, "seed": seed}


def parse_complex(text) -> complex:
    """A complex number written as a string ('a+bj' or 'a+bi') or given as
    a number (as JSON config files give it)."""
    if isinstance(text, (int, float, complex)) and not isinstance(text, bool):
        return complex(text)
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except (AttributeError, ValueError):
        raise InvalidParameterError(f"cannot parse complex number {text!r}")


def parse_spin(text: str) -> Spin:
    """Spin given as 'x:m' on the command line or [x, m] in config files."""
    if isinstance(text, (list, tuple)):
        return Spin(float(text[0]), int(text[1]))
    x, _, m = text.partition(":")
    return Spin(float(x), int(m or 0))


def parse_t(values) -> tuple:
    """Complex t values given as strings or [re, im] pairs."""
    return tuple(parse_complex(v) if isinstance(v, str) else complex(*v)
                 for v in values)


def build_params(cfg: dict) -> NomeParameters:
    sigma = parse_complex(cfg.get("sigma", "0.05+0.5j"))
    tau = parse_complex(cfg.get("tau")) if cfg.get("tau") else -sigma.conjugate()
    return NomeParameters(sigma, tau, int(cfg.get("r", 1)))


# ---------------------------------------------------------------------------
# samplers (documented in the module docstring; keep draw order stable)


def sample_alphas(rng, eta: float):
    return tuple(eta * (0.10 + 0.70 * rng.dirichlet([1.0, 1.0, 1.0])))


def sample_str_case(rng, params: NomeParameters):
    alphas = sample_alphas(rng, params.eta.real)
    spins = tuple(Spin(float(rng.uniform(0.0, math.pi)),
                       int(rng.integers(0, params.r // 2 + 1)))
                  for _ in range(3))
    return {"spins": spins, "alphas": alphas}


def sample_rinfstr_case(rng, params: NomeParameters):
    alphas = sample_alphas(rng, params.eta.real)
    spins = tuple(Spin(float(rng.uniform(0.0, math.pi)),
                       int(rng.integers(-3, 4))) for _ in range(3))
    return {"spins": spins, "alphas": alphas}


def sample_strmsg_case(rng, params=None):
    alphas = sample_alphas(rng, 1.0)
    spins = tuple(Spin(float(rng.uniform(-2.0, 2.0)),
                       int(rng.integers(-3, 4))) for _ in range(3))
    return {"spins": spins, "alphas": alphas}


def _sample_t(rng, n: int, span: float):
    im = span * (0.4 / n + 0.6 * rng.dirichlet([2.0] * n))
    re = rng.uniform(-0.8, 0.8, n)
    re -= re.mean()
    return [complex(a, b) for a, b in zip(re, im)]


def sample_master_case(rng, params: NomeParameters):
    t = _sample_t(rng, 6, (2j * params.eta).imag)
    u = [int(v) for v in rng.integers(-2, 3, 6)]
    t[5] = 2j * params.eta - sum(t[:5])
    u[5] = -sum(u[:5])
    return {"mp": verify.MasterParameters(tuple(t), tuple(u), params)}


def sample_iconst_case(rng, params: NomeParameters):
    t = _sample_t(rng, 5, 0.4 * (2j * params.eta).imag)
    u = tuple(int(v) for v in rng.integers(-2, 3, 5))
    return {"t": tuple(t), "u": u}


def sample_thtfunct_case(rng, params: NomeParameters):
    t = _sample_t(rng, 5, 1.6 * params.eta.real)
    u = tuple(int(v) for v in rng.integers(-2, 3, 5))
    y = int(rng.integers(0, params.r))
    z = complex(rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.1, 0.1))
    return {"z": z, "y": y, "t": tuple(t), "u": u}


def sample_inversion_case(rng, params: NomeParameters):
    eta = params.eta.real
    spins = tuple(Spin(float(rng.uniform(0.0, math.pi)),
                       int(rng.integers(0, params.r // 2 + 1)))
                  for _ in range(2))
    return {"family": ModelFamily.ELLIPTIC,
            "alpha": float(rng.uniform(0.1, 0.9) * eta), "spins": spins}


# ---------------------------------------------------------------------------
# explicit cases from the config; None when the config holds none


def parse_spins_case(cfg: dict, params: NomeParameters):
    if "spins" in cfg:
        return {"spins": tuple(parse_spin(s) for s in cfg["spins"]),
                "alphas": tuple(float(a) for a in cfg["alphas"])}


def parse_master_case(cfg: dict, params: NomeParameters):
    if "t" in cfg:
        return {"mp": verify.MasterParameters(
            parse_t(cfg["t"]), tuple(int(v) for v in cfg["u"]), params)}


def parse_tu_case(cfg: dict, params: NomeParameters):
    if "t" in cfg:
        return {"t": parse_t(cfg["t"]), "u": tuple(int(v) for v in cfg["u"])}


def parse_thtfunct_case(cfg: dict, params: NomeParameters):
    case = parse_tu_case(cfg, params)
    if case is not None:
        case["z"] = parse_complex(cfg.get("z", "0.8+0.02j"))
        case["y"] = int(cfg.get("y", 0))
    return case


def parse_brackets_case(cfg: dict, params: NomeParameters):
    return {"r_max": int(cfg.get("r_max", 64))}


def parse_bridge_case(cfg: dict, params: NomeParameters):
    return {"z": parse_complex(cfg.get("z", 0.37 + 0.21j)),
            "m": int(cfg.get("m", 1))}


def parse_limit_r_case(cfg: dict, params: NomeParameters):
    return {"z": parse_complex(cfg["z"]) if "z" in cfg else 0.3,
            "m": int(cfg.get("m", 1))}


def parse_limit_hbar_case(cfg: dict, params: NomeParameters):
    return {"alpha": float(cfg.get("alpha", 0.4)),
            "x": float(cfg.get("x", 1.0)), "m": int(cfg.get("m", 0))}


# ---------------------------------------------------------------------------
# identity table


@dataclass(frozen=True)
class Identity:
    """One checkable identity.  ``run(case, params, tol, seed)`` verifies a
    case, ``parse(cfg, params)`` reads an explicit case from the config
    (None: the config holds none) and ``sample(rng, params)`` draws one
    (None: the identity cannot be swept).  Runners look verifiers up on the
    ``verify`` module at call time, never at import."""
    name: str
    tol: float
    run: Callable[[dict, NomeParameters, float, int], verify.VerificationReport]
    parse: Optional[Callable[[dict, NomeParameters], Optional[dict]]]
    sample: Optional[Callable[..., dict]]

    def case(self, cfg: dict, params: NomeParameters, seed: int) -> dict:
        """An explicit case from the config if present, else one seeded draw."""
        case = self.parse(cfg, params) if self.parse else None
        if case is None:
            case = self.sample(np.random.default_rng(seed), params)
        return case


IDENTITIES = {ident.name: ident for ident in (
    Identity("str", 1e-6,
             lambda c, pr, tol, seed: verify.verify_str(
                 c["spins"], c["alphas"], pr, tol, seed=seed),
             parse_spins_case, sample_str_case),
    Identity("rinfstr", 1e-6,
             lambda c, pr, tol, seed: verify.verify_rinfstr(
                 c["spins"], c["alphas"], pr, tol, seed=seed),
             parse_spins_case, sample_rinfstr_case),
    Identity("strmsg", 1e-4,
             lambda c, pr, tol, seed: verify.verify_strmsg(
                 c["spins"], c["alphas"], tol, seed=seed),
             parse_spins_case, sample_strmsg_case),
    Identity("master", 1e-6,
             lambda c, pr, tol, seed: verify.verify_master(
                 c["mp"], tol, seed=seed),
             parse_master_case, sample_master_case),
    Identity("iconst", 1e-6,
             lambda c, pr, tol, seed: verify.verify_I_constant(
                 c["t"], c["u"], pr, tol, seed=seed),
             parse_tu_case, sample_iconst_case),
    Identity("thtfunct", 1e-8,
             lambda c, pr, tol, seed: verify.verify_theta_difference(
                 c["z"], c["y"], c["t"], c["u"], pr, tol, seed=seed),
             parse_thtfunct_case, sample_thtfunct_case),
    Identity("inversion", 1e-10,
             lambda c, pr, tol, seed: verify.verify_inversion_first(
                 c["family"], c["alpha"], c["spins"], pr, tol, seed=seed),
             None, sample_inversion_case),
    Identity("cov", 1e-8,
             lambda c, pr, tol, seed: verify.verify_cov_consistency(
                 c["spins"], c["alphas"], pr, tol, seed=seed),
             parse_spins_case, sample_str_case),
    Identity("brackets", 0.5,
             lambda c, pr, tol, seed: verify.verify_bracket_identities(
                 c["r_max"], seed=seed),
             parse_brackets_case, None),
    Identity("bridge", 1e-10,
             lambda c, pr, tol, seed: verify.verify_gamma_phi_bridge(
                 c["z"], c["m"], pr, tol, seed=seed),
             parse_bridge_case, None),
    Identity("limit_r", 1.0,
             lambda c, pr, tol, seed: verify.verify_limit_r_to_inf(
                 c["z"], c["m"], pr, seed=seed),
             parse_limit_r_case, None),
    Identity("limit_hbar", 1.0,
             lambda c, pr, tol, seed: verify.verify_limit_hbar(
                 c["alpha"], c["x"], c["m"], seed=seed),
             parse_limit_hbar_case, None),
)}


def _tolerance(cfg: dict, ident: Identity) -> float:
    """--tol if given, else the identity's default; it must be a positive
    finite number."""
    tol = ident.tol if cfg.get("tol") is None else float(cfg["tol"])
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(
            f"tol must be a positive finite number, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# evaluation registry


def _eval_registry(cfg, params):
    z = parse_complex(cfg["z"]) if "z" in cfg else 0.0
    m = int(cfg.get("m", 0))
    alpha = float(cfg.get("alpha", 0.3))
    spins = [parse_spin(s) for s in cfg.get("spins", [])]
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


def _open_out(path):
    return open(path, "w", newline="") if path else None


def _emit(text, out):
    if out is not None:
        out.write(text)
    else:
        sys.stdout.write(text)


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
        record["term_epsilon"] = DEFAULT_POLICY.term_epsilon
    record["value"] = value
    out = _open_out(cfg.get("out"))
    _emit(json.dumps(_jsonable(record)) + "\n", out)
    if out:
        out.close()
    return EXIT_PASS


def run_verify(cfg: dict) -> int:
    identity = cfg.get("identity")
    ident = IDENTITIES.get(identity)
    if ident is None:
        print(f"unknown identity {identity!r}; choose from "
              f"{sorted(IDENTITIES)}", file=sys.stderr)
        return EXIT_INVALID
    params = build_params(cfg)
    seed = int(cfg.get("seed", 0))
    tol = _tolerance(cfg, ident)
    rep = ident.run(ident.case(cfg, params, seed), params, tol, seed)
    out = _open_out(cfg.get("out"))
    if cfg.get("format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_COLUMNS)
        writer.writeheader()
        writer.writerow(_csv_row(0, rep, "ok", seed))
        _emit(buf.getvalue(), out)
    else:
        _emit(json.dumps(report_to_dict(rep)) + "\n", out)
    if out:
        out.close()
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _sweep_one(ident: Identity, params, tol, seed, index):
    """(report, status) of sample ``index``; the report is None unless the
    status is ok."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    case = ident.sample(rng, params)
    try:
        return ident.run(case, params, tol, seed), "ok"
    except ContourViolationError:
        return None, "contour-violation"
    except (NonConvergenceError, PoleHitError):
        return None, "non-converged"


def run_sweep(cfg: dict) -> int:
    identity = cfg.get("identity")
    ident = IDENTITIES.get(identity)
    if ident is None or ident.sample is None:
        sweepable = sorted(name for name, i in IDENTITIES.items() if i.sample)
        print(f"identity {identity!r} does not support sweeps; choose from "
              f"{sweepable}", file=sys.stderr)
        return EXIT_INVALID
    params = build_params(cfg)
    seed = int(cfg.get("seed", 0))
    samples = int(cfg.get("samples", 10))
    if samples < 1:
        print("samples must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    tol = _tolerance(cfg, ident)
    t0 = time.perf_counter()
    results = [(i, *_sweep_one(ident, params, tol, seed, i))
               for i in range(samples)]
    elapsed = time.perf_counter() - t0

    fails = sum(1 for _, rep, st in results if st == "ok" and not rep.passed)
    max_res = max((rep.rel_residual for _, rep, st in results if st == "ok"),
                  default=0.0)
    out = _open_out(cfg.get("out"))
    if cfg.get("format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_COLUMNS)
        writer.writeheader()
        for i, rep, status in results:
            writer.writerow(_csv_row(i, rep, status, seed))
        _emit(buf.getvalue(), out)
    else:
        for i, rep, status in results:
            row = {"sample_index": i, "status": status}
            if rep is not None:
                row.update(report_to_dict(rep, include_runtime=False))
            _emit(json.dumps(row) + "\n", out)
        summary = {"summary": True, "identity": identity, "samples": samples,
                   "seed": seed, "passes": sum(
                       1 for _, rep, st in results if st == "ok" and rep.passed),
                   "failures": fails,
                   "skipped": sum(1 for _, _, st in results if st != "ok"),
                   "max_rel_residual": max_res}
        _emit(json.dumps(_jsonable(summary)) + "\n", out)
    if out:
        out.close()
    # wall-clock timing goes to stderr only, keeping files byte-reproducible
    print(f"sweep finished in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_FAIL if fails else EXIT_PASS


def run_poles(cfg: dict) -> int:
    params = build_params(cfg)
    if "t" not in cfg or "u" not in cfg:
        print("poles requires t and u tuples (via --config)", file=sys.stderr)
        return EXIT_INVALID
    t = parse_t(cfg["t"])
    u = tuple(int(v) for v in cfg["u"])
    if len(t) not in (5, 6) or len(u) != len(t):
        print("t and u must both have five (or six) entries", file=sys.stderr)
        return EXIT_INVALID
    margin = verify.pole_diagnostics(t[:5], u[:5], params)
    record = {"t": list(t), "u": list(u), "margin": margin,
              "safe": margin >= verify.CONTOUR_MARGIN_FRACTION * abs(params.eta)}
    out = _open_out(cfg.get("out"))
    _emit(json.dumps(_jsonable(record)) + "\n", out)
    if out:
        out.close()
    return EXIT_PASS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenstri",
        description="evaluate and verify lattice-model weight identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "verify", "sweep", "poles"):
        sp = sub.add_parser(name)
        sp.add_argument("identity", nargs="?", help="identity or function name")
        sp.add_argument("--identity", dest="identity_flag")
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
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key in ("r", "sigma", "tau", "tol", "seed", "samples", "format",
                "out", "z", "m", "alpha", "spins", "alphas"):
        val = getattr(args, key, None)
        if val is not None and val != []:
            cfg[key] = val
    identity = args.identity_flag or args.identity
    if identity is not None:
        cfg["identity"] = identity
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        if args.command == "eval":
            return run_eval(cfg)
        if args.command == "verify":
            return run_verify(cfg)
        if args.command == "sweep":
            return run_sweep(cfg)
        return run_poles(cfg)
    except (InvalidParameterError, ContourViolationError, FileNotFoundError,
            KeyError, IndexError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonConvergenceError, PoleHitError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
