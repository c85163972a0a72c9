#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload loo-pada \\
        --pairs 10 --seconds 25 --seed0 901

Pair i runs the benchmark command of BENCHMARK.json (`perfbench/run.py`)
once in each checkout with seed seed0 + i; the parent runs first in even
pairs and the change in odd ones. For every gated end-to-end metric it
prints each side's median and quartiles, the change's wins (ties count
for neither side) and whether a gain can be claimed: the change wins at
least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs (parent[i] and change[i] share a seed). `gap`
    is how far the change's median is on the better side of the
    parent's; `claim` says whether it counts as a gain."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, one value per side each")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c[1] - p[1])
    iqr = p[2] - p[0]
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent), "gap": gap,
            "parent_iqr": iqr, "claim": wins >= 0.9 * len(parent) and gap > iqr}


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in `checkout`; its metric values by name."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: seed {seed}: benchmark run not correct: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed0", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), bench["command"],
                                       args.workload, seed, args.seconds))
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {runs['parent'][-1][name]:.6g}/{runs['change'][-1][name]:.6g}"
            for name in gated), flush=True)

    print(f"{args.workload}, {args.pairs} pairs, parent/change median [q1, q3]:")
    for name, better in gated.items():
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      better)
        p, c = s["parent"], s["change"]
        verdict = "gain claimed" if s["claim"] else "no claim"
        print(f"  {name}: {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}] -> {c[1]:.6g} "
              f"[{c[0]:.6g}, {c[2]:.6g}]; change better in {s['wins']}/{s['pairs']}, "
              f"gap {s['gap']:.6g} vs parent IQR {s['parent_iqr']:.6g}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
