"""Benchmark of lenstri: one workload per invocation, in processes of its own.

    python3 perfbench/run.py --workload elliptic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's set-up (interpreter start,
importing lenstri, numpy and scipy, building the operation list) is timed in
SETUP_PROBES fresh processes plus the workload process itself, and setup_s
is their median.  The workload process then runs its closed loop (see
workload.py) and checks every output.  With ``--trace 0`` the result carries
the end-to-end metrics; with ``--trace 1`` the loop runs with spans around
every call into a lenstri layer (see spans.py) and the result carries the
per-layer metrics.

The last line on stdout is the result, one JSON object with the keys
correct, attempted, failed and metrics.  The same object, with the workload
process's own details, is kept in perfbench/out/; the span arrays of a
traced run are kept there as trace-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
# the whole invocation must end within 180 s; what is left after the set-up
# probes goes to the workload process
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "cases_per_s": "1/s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"points": "count/case", "calls": "count/case",
                   "nodes": "count/case", "terms": "count/case",
                   "unconverged": "count/case", "misses": "count/case",
                   "self_s": "s/case", "overhead_s": "s/case",
                   "points_per_s": "1/s", "nodes_per_s": "1/s",
                   "hit_ratio": "ratio", "concurrency": "ratio"}


def spawn(args, outdir: Path, log, timeout: float, setup_only: bool) -> dict:
    """Run workload.py once and return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"workload process timed out after {timeout:.0f}s")
    finally:
        # also on a timeout or a termination signal: leave no process behind
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workload import SRC, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "lenstri" / "cli.py").is_file():
        print(f"no lenstri sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_path = OUT / f"{name}.log"
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        with open(log_path, "w") as log:
            # set-up is reported by untraced runs only
            setups = [spawn(args, tmp, log, DEADLINE_S, True)["setup_s"]
                      for _ in range(0 if args.trace else SETUP_PROBES)]
            res = spawn(args, tmp, log,
                        DEADLINE_S - (time.monotonic() - start), False)
        if args.trace:
            shutil.copyfile(tmp / "trace.npz", OUT / f"trace-{args.workload}.npz")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}; see {log_path}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[1]]}
                   for k, v in res["layers"].items()}
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": u}
                   for k, u in END_TO_END.items()}
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": res["error_count"] == 0,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    (OUT / f"result-{name}.json").write_text(
        json.dumps({**result, "details": res}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
