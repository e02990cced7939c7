"""Write lenstri's fixed-seed outputs, one file per output, to compare two
trees byte for byte.

    PYTHONPATH=<tree>/src python tools/fixed_seed_outputs.py OUTDIR

runs each command below as ``python -m lenstri.cli`` in a process of its
own, writes its stdout to ``OUTDIR/<name>.jsonl`` and its exit code to a
line of ``OUTDIR/exit_codes.txt``.  Stderr, which carries wall-clock
timing, is not kept.  Two trees give the same outputs when ``diff -r`` of
their two directories is empty.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

#: the near-unit-circle nome, where calls span several product blocks
SIGMA = "0.05+0.12j"
TAU = "-0.05+0.7j"
SWEPT = ("str", "rinfstr", "master", "iconst", "thtfunct", "inversion",
         "cov")


def commands():
    """(name, argv) of every output."""
    out = []
    for ident in SWEPT:
        for r in range(1, 5):
            for seed in (5, 6):
                out.append((f"sweep-{ident}-r{r}-seed{seed}",
                            ["sweep", ident, "--r", str(r), "--seed",
                             str(seed), "--samples", "6"]))
    for ident in (i for i in SWEPT if i != "cov"):
        for r in range(1, 5):
            out.append((f"sweep-{ident}-r{r}-sigma",
                        ["sweep", ident, "--r", str(r), "--seed", "5",
                         "--samples", "6", f"--sigma={SIGMA}"]))
    for ident in ("str", "rinfstr", "master", "iconst"):
        for r in range(1, 4):
            out.append((f"sweep-{ident}-r{r}-tau",
                        ["sweep", ident, "--r", str(r), "--seed", "5",
                         "--samples", "6", f"--tau={TAU}"]))
    # one batch of 20 samples, and two batches (32 + 8) of 40
    for ident in ("inversion", "thtfunct"):
        for n in (20, 40):
            out.append((f"sweep-{ident}-r4-{n}",
                        ["sweep", ident, "--r", "4", "--seed", "5",
                         "--samples", str(n)]))
    # a full batch of 32 samples (64 integrals of iconst), whose levels
    # take several runs below models.STAR_BATCH_ROWS Gamma rows
    for ident in ("master", "iconst"):
        out.append((f"sweep-{ident}-r2-32", ["sweep", ident, "--r", "2",
                                             "--seed", "5", "--samples",
                                             "32"]))
    out.append(("sweep-strmsg", ["sweep", "strmsg"]))
    # m-sums of up to about 300 terms, over several chunks of m
    for seed in (6, 7):
        out.append((f"sweep-strmsg-seed{seed}",
                    ["sweep", "strmsg", "--seed", str(seed), "--samples",
                     "3"]))
    out.append(("sweep-strmsg-tol", ["sweep", "strmsg", "--seed", "6",
                                     "--samples", "4", "--tol", "1e-8"]))
    # one drawn case each, which a batched identity verifies as its batch
    # of one
    for ident in SWEPT:
        out.append((f"verify-{ident}-r2", ["verify", ident, "--r", "2",
                                           "--seed", "5"]))
    for ident in ("brackets", "bridge", "limit_r", "limit_hbar"):
        out.append((f"verify-{ident}", ["verify", ident]))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, cmd in commands():
        done = subprocess.run([sys.executable, "-m", "lenstri.cli", *cmd],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        (outdir / f"{name}.jsonl").write_bytes(done.stdout)
        codes.append(f"{name} {done.returncode}\n")
    (outdir / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
