"""One lenstri benchmark workload, run in a process of its own.

Started by ``run.py``.  The process imports lenstri from the checkout's
``src``, builds the operation list, and then issues one operation after
another (a closed loop with a single client): each operation is one
in-process ``lenstri.cli.main(["sweep", ...])`` call at the default worker
count.  Rounds of the workload's operations repeat, each round with fresh
sweep seeds drawn from the workload seed, and only whole rounds run: the
loop stops at the first round boundary after ``--seconds`` of timed
operations.  Outputs are checked after each operation, outside the timed
region.  The last line on stdout is one JSON object for ``run.py``.

With ``--setup-only`` the process stops as soon as the first operation is
ready and reports only its set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (identity, r, samples) per operation of one round.  In `elliptic` an
# instance's cost varies up to twofold with the seed (quadrature node counts
# double), so a run needs many instances for its throughput to settle.  The
# round holds each iconst and master operation once and the cheap str and
# rinfstr operations four times, which keeps the few dear instances from
# deciding the figures; sample counts even out the operations' costs, so
# the median operation is a typical one.  `gamma-limit` is not in
# BENCHMARK.json: its instances take 4-10 s each, so a run that fits the
# time budget holds only about six of them and its figures spread by a
# quarter from seed to seed.
_CHEAP = [("str", 1, 6), ("str", 2, 6), ("str", 3, 6), ("rinfstr", 1, 6)]
WORKLOADS = {
    "elliptic": (_CHEAP + [("master", 1, 3), ("master", 2, 3), ("master", 3, 2)]
                 + _CHEAP + [("iconst", 1, 1), ("iconst", 2, 1), ("iconst", 3, 1)]
                 + _CHEAP + _CHEAP),
    "gamma-limit": [("strmsg", 1, 3), ("strmsg", 1, 3)],
    "closed-form": ([("thtfunct", r, 10) for r in (1, 2, 3, 4)]
                    + [("inversion", r, 20) for r in (1, 2, 3, 4)]),
}

NEAR_POLE_TOL = 1e-4
MODULES = ("cli", "models", "numerics", "params", "special_functions", "verify")


def import_lenstri() -> dict:
    """Import the lenstri modules from the checkout, never from elsewhere."""
    if not (SRC / "lenstri" / "cli.py").is_file():
        raise SystemExit(f"lenstri sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"lenstri.{m}") for m in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"lenstri imported from {where}, not from {SRC}")
    return mods


def round_ops(workload: str, seed: int, k: int, outfile: str) -> list:
    """argv of every operation of round k; sweep seeds come from
    SeedSequence([workload seed, k])."""
    import numpy as np
    ops = WORKLOADS[workload]
    seeds = np.random.SeedSequence([seed, k]).generate_state(len(ops))
    return [["sweep", ident, "--r", str(r), "--samples", str(n),
             "--seed", str(int(s)), "--out", outfile]
            for (ident, r, n), s in zip(ops, seeds)]


def check_output(argv: list, data: bytes) -> list:
    """Problems in one sweep's output; empty when every row is correct."""
    identity, samples = argv[1], int(argv[5])
    errors = []
    rows = [json.loads(line) for line in data.decode().splitlines()]
    cases = [row for row in rows if not row.get("summary")]
    summary = [row for row in rows if row.get("summary")]
    if len(cases) != samples or len(summary) != 1:
        errors.append(f"{len(cases)} rows and {len(summary)} summaries for "
                      f"{samples} samples")
    elif summary[0]["passes"] != samples:
        errors.append(f"summary reports {summary[0]['passes']} passes")
    for row in cases:
        where = f"{identity} seed {argv[7]} sample {row.get('sample_index')}"
        if row.get("status") != "ok" or row.get("passed") is not True:
            errors.append(f"{where}: status {row.get('status')}, "
                          f"passed {row.get('passed')}, "
                          f"rel residual {row.get('rel_residual')}")
            continue
        if identity == "thtfunct":
            meta = row["numerics_meta"]
            for key in ("near_pole_lhs", "near_pole_rhs"):
                value = complex(*meta[key])
                if not abs(value + 1) <= NEAR_POLE_TOL:
                    errors.append(f"{where}: {key} = {value!r}, not -1")
    return errors


class Loop:
    """Closed loop over operations; collects timings and output checks."""

    def __init__(self, cli, outfile: Path, tracer=None):
        self.cli = cli
        self.outfile = outfile
        self.tracer = tracer
        self.argvs: list = []
        self.walls: list = []
        self.digests: list = []
        self.cases = 0
        self.failed = 0
        self.errors: list = []

    def run_op(self, argv: list) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.walls)
        self.outfile.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        self.argvs.append(argv)
        self.walls.append(wall)
        if rc not in (0, 1):
            # no verdict at all: the operation failed (1 is a verdict, a
            # failed identity, and its rows are checked below)
            self.failed += 1
            self.digests.append(None)
            print(f"failed operation {' '.join(argv)}: exit code {rc}",
                  file=sys.stderr)
            return
        data = self.outfile.read_bytes()
        self.digests.append(hashlib.sha256(data).hexdigest())
        problems = check_output(argv, data)
        if rc != 0 and not problems:
            problems.append(f"{' '.join(argv)}: exit code {rc}")
        self.errors += problems
        if not problems:
            self.cases += int(argv[5])

    def run_rounds(self, workload: str, seed: int, seconds: float) -> None:
        k = 0
        while sum(self.walls) < seconds:
            for argv in round_ops(workload, seed, k, str(self.outfile)):
                self.run_op(argv)
            k += 1


def kappa_cache_totals(models) -> tuple:
    infos = [models.kappa_elliptic.cache_info(),
             models.kappa_qlimit.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def clear_kappa_caches(models) -> None:
    models.kappa_elliptic.cache_clear()
    models.kappa_qlimit.cache_clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mods = import_lenstri()
    outfile = Path(args.outdir) / "sweep.jsonl"
    round_ops(args.workload, args.seed, 0, str(outfile))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the default worker count is what every operation must run at
    os.environ.pop("LENSTRI_WORKERS", None)
    result = {"setup_s": setup_s}
    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        clear_kappa_caches(mods["models"])
        tracer.install(mods)
        loop = Loop(mods["cli"], outfile, tracer)
        try:
            loop.run_rounds(args.workload, args.seed, args.seconds)
        finally:
            tracer.uninstall()
        hits, misses = kappa_cache_totals(mods["models"])
        # the operations of the first seconds/2 of the traced pass again,
        # untraced: the outputs must match byte for byte, and the wall-time
        # difference is the tracing overhead (a prefix keeps a traced run
        # within its time limit)
        clear_kappa_caches(mods["models"])
        plain = Loop(mods["cli"], outfile)
        n = 1
        while n < len(loop.walls) and sum(loop.walls[:n + 1]) <= args.seconds / 2:
            n += 1
        for op in loop.argvs[:n]:
            plain.run_op(op)
        if plain.digests != loop.digests[:n]:
            loop.errors.append("traced and untraced sweep outputs differ")
        loop.errors += plain.errors
        metrics = layer_metrics(tracer, loop.cases, hits, misses)
        metrics["trace.overhead_s"] = ((sum(loop.walls[:n]) - sum(plain.walls))
                                       / max(plain.cases, 1))
        tracer.write(Path(args.outdir) / "trace.npz")
        result["layers"] = metrics
        # not a metric here: tracing holds every span in memory
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
    else:
        loop = Loop(mods["cli"], outfile)
        loop.run_rounds(args.workload, args.seed, args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["cases_per_s"] = loop.cases / sum(loop.walls)
        result["op_p50_s"] = statistics.median(loop.walls)
        result["peak_rss_mb"] = peak_rss_kb / 1024

    import oracles
    loop.errors += oracles.check_all(mods)
    result.update(attempted=len(loop.walls), failed=loop.failed,
                  cases=loop.cases, timed_s=sum(loop.walls),
                  errors=loop.errors[:20], error_count=len(loop.errors))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
