"""Compare the CPU time of two lenstri trees on one benchmark workload,
in alternating pairs of processes.

    python tools/paired_cpu.py PARENT_TREE CHANGE_TREE \
        [--workload elliptic] [--pairs 10] [--rounds 4]

Each pair runs one process per tree, one after the other; the pairs
alternate which tree runs first.  A process imports lenstri from its
tree's ``src`` and the operations of a round (``round_ops``) from its
tree's ``perfbench/workload.py``, which it imports and never edits.  It
runs round 0 once to warm up, then rounds 0..K-1 in process
(``lenstri.cli.main`` of each operation, output to a scratch file), and
prints their CPU seconds (``time.process_time``).  The workload seed is
``SEED`` on both sides.

Prints one line per pair with both CPU times and the ratio change /
parent (below 1: the change is faster), then the median ratio and the
pairs the change won.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: the workload seed of every round, on both sides
SEED = 7


def side(tree: Path, workload: str, rounds: int) -> float:
    """CPU seconds of rounds 0..rounds-1 of workload in this process,
    lenstri imported from tree's src, after one warm-up round."""
    spec = importlib.util.spec_from_file_location(
        "paired_workload", tree / "perfbench" / "workload.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cli = bench.import_lenstri()["cli"]
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "sweep.jsonl")

        def run(k):
            for argv in bench.round_ops(workload, SEED, k, out):
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                if rc not in (0, 1):
                    raise SystemExit(f"{' '.join(argv)}: exit code {rc}")
        run(0)
        start = time.process_time()
        for k in range(rounds):
            run(k)
        return time.process_time() - start


def measure(tree: Path, workload: str, rounds: int) -> float:
    """CPU seconds of one side, run in a process of its own."""
    out = subprocess.run(
        [sys.executable, __file__, "--side", str(tree), "--workload",
         workload, "--rounds", str(rounds)],
        check=True, capture_output=True, text=True).stdout
    return float(out.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", default="elliptic")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--side", type=Path,
                        help="run one side in this process and print its "
                             "CPU seconds")
    args = parser.parse_args(argv)
    if args.side is not None:
        print(f"{side(args.side.resolve(), args.workload, args.rounds):.6f}")
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_TREE and CHANGE_TREE are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ratios = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        cpu = {name: measure(trees[name], args.workload, args.rounds)
               for name in order}
        ratios.append(cpu["change"] / cpu["parent"])
        print(f"pair {i + 1} ({order[0]} first): parent "
              f"{cpu['parent']:.3f} s, change {cpu['change']:.3f} s, "
              f"ratio {ratios[-1]:.4f}", flush=True)
    won = sum(r < 1 for r in ratios)
    print(f"median ratio {statistics.median(ratios):.4f}; the change won "
          f"{won} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
