"""Alternating A/B pairs of the repository benchmark on two checkouts.

Runs ``perfbench/run.py`` for one workload in a *base* and a *change*
checkout (for example the parent commit and a branch, each in its own
``git worktree``), in ``--pairs`` alternating pairs — even pairs run the
base first, odd pairs the change first — and prints, for every
end-to-end metric that ``BENCHMARK.json`` declares, each side's median
and quartiles, the change's win fraction (ties count for neither side)
and whether the medians differ by more than the base's interquartile
spread.  A gain is claimed only when the change wins at least nine
tenths of the pairs *and* beats the base median by more than that
spread; ten pairs or more are needed for a claim.

Usage, from the repository root::

    python3 benchmarks/ab_pairs.py --base ../parent --change . \\
        --workload table2-p20 --seed 12061 --seconds 20 --pairs 10

Both checkouts run with the interpreter running this script, one run at
a time; ``--out`` also writes every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

#: Pairs needed before the summary may call a difference a gain.
MIN_PAIRS_FOR_CLAIM = 10
#: Share of pairs the change must win for a gain.
WIN_FRACTION = 0.9


def run_once(tree: Path, args) -> dict:
    """One ``perfbench/run.py`` execution; its last stdout line as JSON."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: no output (exit {done.returncode})\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> tuple:
    """``(q1, median, q3)``, exclusive method; degenerate below two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(spec: dict, base: List[dict], change: List[dict]) -> List[dict]:
    """Per end-to-end metric: both sides' quartiles, wins and the verdict."""
    rows = []
    pairs = len(base)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
        b_q1, b_med, b_q3 = quartiles(b)
        c_q1, c_med, c_q3 = quartiles(c)
        better_by = sign * (c_med - b_med)
        beyond_spread = better_by > (b_q3 - b_q1)
        gain = (
            pairs >= MIN_PAIRS_FOR_CLAIM
            and wins >= WIN_FRACTION * pairs
            and beyond_spread
        )
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "ratio": c_med / b_med if b_med else float("nan"),
            "wins": wins,
            "losses": losses,
            "pairs": pairs,
            "beyond_base_iqr": beyond_spread,
            "worse_beyond_base_iqr": -better_by > (b_q3 - b_q1),
            "gain": gain,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12061)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS_FOR_CLAIM)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides: Dict[str, List[dict]] = {"base": [], "change": []}
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(trees[side], args)
            sides[side].append(result)
            value = result["metrics"][spec["end_to_end"][0]["name"]]["value"]
            print(
                f"pair {pair + 1}/{args.pairs} {side:6s} "
                f"{spec['end_to_end'][0]['name']}={value:.4g} "
                f"failed={result['failed']} correct={result['correct']}",
                flush=True,
            )
    rows = summarize(spec, sides["base"], sides["change"])
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} alternating pairs")
    print(f"{'metric':14s} {'base median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'ratio':>7s} {'wins':>7s}  verdict")
    for row in rows:
        b, c = row["base"], row["change"]
        if row["gain"]:
            verdict = "gain"
        elif row["beyond_base_iqr"]:
            verdict = "better beyond base IQR"
        elif row["worse_beyond_base_iqr"]:
            verdict = "WORSE beyond base IQR"
        else:
            verdict = "within base IQR"
        base_col = f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
        change_col = f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
        print(
            f"{row['metric']:14s} {base_col:32s} {change_col:32s} "
            f"{row['ratio']:7.3f} {row['wins']:>3d}/{row['pairs']:<3d}  {verdict}"
        )
    failed = {side: sum(run["failed"] for run in runs) for side, runs in sides.items()}
    print(f"failed runs: base {failed['base']}, change {failed['change']}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "summary": rows,
            "runs": sides,
        }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
