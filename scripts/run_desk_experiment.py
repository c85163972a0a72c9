#!/usr/bin/env python3
"""Full desk experiment in one shot: `pada-lab gen-data`, then `run-loo`.

Writes the default synthetic corpus to <out>/corpus.jsonl, unless --data
names a JSONL corpus, and runs the leave-one-out grid on it with the
standard model lineup. Every other argument goes to `run-loo` unchanged.
A usage error from `run-loo` (exit 2) leaves no corpus behind.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from pada_lab import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False,
                                 epilog="other options: see pada-lab run-loo --help")
    ap.add_argument("--out", default="runs/desk", help="output directory")
    ap.add_argument("--data", default=None, help="JSONL corpus; omitted = synthesize")
    ap.add_argument("--models", default="pada,pada-nc,pada-dn,noda,moe",
                    help="comma-separated model names; ub adds the oracle bound")
    ap.add_argument("--seed", default=None,
                    help="sets both the corpus seed and the training seed")
    args, rest = ap.parse_known_args(argv)
    seed = [] if args.seed is None else ["--seed", args.seed]
    out = Path(args.out)
    data = args.data
    if data is None:
        fresh = not out.exists()
        data = str(out / "corpus.jsonl")
        rc = cli.main(["gen-data", "--out", data, *seed])
        if rc:
            return rc
        # JSONL does not carry the positive class; the synthetic corpus's is "pos"
        rest = ["--positive-class", "pos", *rest]
    rc = cli.main(["run-loo", "--data", data, "--out", args.out, "--models", args.models,
                   *seed, *rest])
    if rc == 2 and args.data is None:  # a usage error writes nothing, so take back the corpus
        Path(data).unlink()
        if fresh:
            out.rmdir()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
