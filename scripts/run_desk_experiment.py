#!/usr/bin/env python3
"""Full desk experiment in one shot.

Synthesizes the default four-domain corpus (or ingests a JSONL one),
runs the leave-one-out grid with the standard model lineup, and prints
the aggregate table, the grid's wall time, the process's peak
resident memory and the config hash every cell records. Per-cell
JSON, aggregate.csv, and the shift heatmap land under --out.
"""

from __future__ import annotations

import argparse
import resource
import time
from dataclasses import replace

from pada_lab.corpus import SyntheticSpec, generate_synthetic, ingest_jsonl
from pada_lab.harness import ExperimentConfig, run_loo, summary_table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--out", default="runs/desk", help="output directory")
    ap.add_argument("--data", default=None, help="JSONL corpus; omitted = synthesize")
    ap.add_argument("--models", default="pada,pada-nc,pada-dn,noda,moe",
                    help="comma-separated model names; ub adds the oracle bound")
    ap.add_argument("--seeds", default=None, help="comma-separated training seeds")
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--alpha", type=float, default=None)
    ap.add_argument("--seed", type=int, default=None,
                    help="overrides both the corpus seed and the training seed")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig()
    overrides = {
        k: getattr(args, k)
        for k in ("epochs", "alpha", "seed")
        if getattr(args, k) is not None
    }
    if overrides:
        cfg = replace(cfg, **overrides)

    if args.data:
        dataset = ingest_jsonl(args.data)
    else:
        spec = SyntheticSpec() if args.seed is None else SyntheticSpec(seed=args.seed)
        dataset = generate_synthetic(spec)

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None

    t0 = time.perf_counter()
    cells = run_loo(dataset, models, cfg, args.out, seeds=seeds)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    print(summary_table(cells))
    print(f"\n{wall:.1f}s wall, {peak_mb:.1f} MB peak RSS; reports in {args.out}")
    print(f"config hash: {cfg.config_hash(dataset.label_set, dataset.positive_class)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
