#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload pigeonhole

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed; the side that goes first alternates between pairs, and every
pair gets a fresh seed (11, 12, ...).  Every run is printed with its
``attempted``, ``failed`` and ``correct`` fields and each metric.  Then, for
every end-to-end metric that ``CHANGE_DIR/BENCHMARK.json`` lists, come both
sides' medians and quartiles, the pairs the change wins (a tie counts for
neither side) and the relative change of the median next to the metric's
``bound``; a line with each side's median ``attempted`` and the pooled
least-squares slope of ``peak_rss_mb`` on ``attempted`` in KB per call
(one slope over both sides' runs, each side about its own mean); a line
with the observed move of the median ``peak_rss_mb`` beside the move the
extra calls explain, the slope times the difference of median
``attempted``, each in MB and as a share of the parent's median, so that an
RSS rise the benchmark's per-call records cause can be told from a leak in
the solver; and one line that names the metrics whose median is worse than
the parent's by more than their bound (``over bound: none`` if there are
none).  With ``--claim METRIC`` one verdict line follows: the claim is met
iff the change wins at least 9 of every 10 pairs on METRIC and its median
is better than the parent's by more than the parent's interquartile range.
The last line of standard output is all of it as one JSON object, the
metrics over their bound under ``over_bound`` and the verdict under
``claim``, the median ``attempted`` under ``attempted``, the slope under
``rss_kb_per_call`` and the explained move under ``rss_explained_mb``.
The exit status is 1 if any run was not correct or any metric is over its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 11
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its JSON result."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit status {proc.returncode}"}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, runs: dict) -> dict:
    """Both sides' median and quartiles of one metric, and the change's wins."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    out = {}
    for side in SIDES:
        q1, q3 = quartiles(values[side])
        out[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3}
    wins = sum(
        (c < p) if lower else (c > p)
        for p, c in zip(values["parent"], values["change"])
    )
    parent = out["parent"]["median"]
    rel = (out["change"]["median"] - parent) / parent if parent else 0.0
    out.update(
        change_wins=wins,
        ties=sum(p == c for p, c in zip(values["parent"], values["change"])),
        pairs=len(values["parent"]),
        median_change_rel=rel,
        parent_iqr=out["parent"]["q3"] - out["parent"]["q1"],
        bound=metric["bound"],
        # Worse than the parent by more than the bound.
        over_bound=(rel if lower else -rel) > metric["bound"],
    )
    return out


def rss_kb_per_call(runs: dict):
    """The pooled least-squares slope of ``peak_rss_mb`` (MiB) on
    ``attempted``, in KB (KiB) per call: one slope fitted to both sides'
    runs, each side centred on its own means so that a shift between the
    sides does not read as growth per call.  None if ``attempted`` never
    varies within a side."""
    sxy = sxx = 0.0
    for side in SIDES:
        xs = [r["attempted"] for r in runs[side]]
        ys = [r["metrics"]["peak_rss_mb"]["value"] for r in runs[side]]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return 1024 * sxy / sxx if sxx else None


def claim_verdict(metric: dict, s: dict) -> dict:
    """Whether the change improves ``metric``, given its ``summarize``
    entry: it wins at least 9/10 of the pairs, and its median is better than
    the parent's by more than the parent's interquartile range."""
    gap = s["parent"]["median"] - s["change"]["median"]
    if metric["better"] != "lower":
        gap = -gap
    return {
        "metric": metric["name"],
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "median_gap": gap,
        "parent_iqr": s["parent_iqr"],
        "met": 10 * s["change_wins"] >= 9 * s["pairs"] and gap > s["parent_iqr"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    claimed = next((m for m in end_to_end if m["name"] == args.claim), None)
    if args.claim is not None and claimed is None:
        ap.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")
    runs = {side: [] for side in SIDES}
    for k in range(args.pairs):
        seed = FIRST_SEED + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(dirs[side], args.workload, seed, args.seconds)
            result.update(pair=k, seed=seed, side=side, first=side == order[0])
            runs[side].append(result)
            metrics = " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
            )
            print(
                f"pair {k} seed {seed} {side:6} attempted={result['attempted']} "
                f"failed={result['failed']} correct={result['correct']} {metrics}",
                flush=True,
            )

    ok = all(r["correct"] for side in SIDES for r in runs[side])
    summary = {}
    over = []
    attempted, slope, explained = None, None, None
    if ok:
        for metric in end_to_end:
            s = summary[metric["name"]] = summarize(metric, runs)
            p, c = s["parent"], s["change"]
            print(
                f"{metric['name']}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                f"  change wins {s['change_wins']}/{s['pairs']}"
                f"  {s['median_change_rel']:+.1%} (bound {s['bound']:.0%})"
                + ("  OVER BOUND" if s["over_bound"] else "")
            )
        attempted = {
            side: statistics.median([r["attempted"] for r in runs[side]]) for side in SIDES
        }
        slope = rss_kb_per_call(runs)
        print(
            f"attempted: parent {attempted['parent']:.6g}  change {attempted['change']:.6g}"
            "  peak_rss_mb on attempted: "
            + ("n/a" if slope is None else f"{slope:.3g} KB per call")
        )
        rss = summary["peak_rss_mb"]
        parent_rss = rss["parent"]["median"]
        if slope is not None:
            explained = slope * (attempted["change"] - attempted["parent"]) / 1024

        def move(mb):
            return f"{mb:+.3g} MB ({mb / parent_rss:+.1%})"

        print(
            f"peak_rss_mb move: observed {move(rss['change']['median'] - parent_rss)}"
            "  explained by attempted "
            + ("n/a" if explained is None else move(explained))
        )
        over = [name for name, s in summary.items() if s["over_bound"]]
        print(f"over bound: {', '.join(over) or 'none'}")
    else:
        print("a run was not correct; no summary", file=sys.stderr)
    claim = None
    if args.claim is not None:
        if ok:
            claim = claim_verdict(claimed, summary[args.claim])
            print(
                f"claim {args.claim}: {'MET' if claim['met'] else 'NOT MET'}"
                f"  change wins {claim['change_wins']}/{claim['pairs']} (needs 9/10)"
                f"  median gap {claim['median_gap']:.6g}"
                f" against parent IQR {claim['parent_iqr']:.6g}"
            )
        else:
            claim = {"metric": args.claim, "met": False}
            print(f"claim {args.claim}: NOT MET  a run was not correct")
    print(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "correct": ok,
        "runs": runs, "summary": summary, "attempted": attempted,
        "rss_kb_per_call": slope, "rss_explained_mb": explained,
        "over_bound": over, "claim": claim,
    }))
    return 0 if ok and not over else 1


if __name__ == "__main__":
    sys.exit(main())
