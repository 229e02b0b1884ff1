#!/usr/bin/env python3
"""The cutlearn benchmark.

    python3 perfbench/run.py --workload twophase --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. One process, one caller, closed loop: each
``solve``/``run_two_phase`` call starts after the previous one returned.
A pass is one call per (instance, strategy) of the workload, each followed by
its checks and the oracle certification of its learned objects; passes
repeat until ``--seconds`` have elapsed, taking turns on the CPUs the
process may run on. Timings keep each call's best pass.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs half
the time untraced, then half with every hook in ``spans.HOOKS`` installed,
prints the per-layer metrics and writes the spans to ``perfbench/out/``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
MAX_FAILURE_LINES = 10
ROOT_SPANS = ("search.solve", "search.run_two_phase")


@dataclass
class PassResult:
    latencies_ms: List[float] = field(default_factory=list)
    # Wall time of each call together with its checks and certification.
    call_s: List[float] = field(default_factory=list)
    failed: List[bool] = field(default_factory=list)
    nodes: int = 0
    learned: int = 0
    fallbacks: int = 0
    # One summary per call; passes over the same inputs must agree exactly.
    fingerprint: List[Tuple] = field(default_factory=list)
    # Index range of the pass's spans in the tracer, when traced.
    spans: Tuple[int, int] = (0, 0)


def _summary(results, objects) -> Tuple:
    return tuple(
        (r.status, r.objective, r.stats.nodes, r.stats.conflicts_analyzed,
         r.stats.fallbacks, len(r.learned))
        for r in results
    ) + (len(objects),)


def run_pass(w, workload, instances, report, tracer=None) -> PassResult:
    from cutlearn import search

    root = ROOT_SPANS[workload.two_phase]
    out = PassResult()
    first_span = len(tracer.spans) if tracer is not None else 0
    for inst in instances:
        phase1_nodes = set()
        first = len(out.failed)
        for strategy in w.STRATEGIES:
            config = search.SolverConfig(strategy=strategy)
            if tracer is not None:
                tracer.call_id += 1
            span = tracer.span(root) if tracer is not None else nullcontext()
            error: Optional[str] = None
            results, objects = (), ()
            t0 = perf_counter_ns()
            try:
                with span:
                    if root == "search.run_two_phase":
                        r1, r2, objects = search.run_two_phase(inst.problem, config)
                        results = (r1, r2)
                        phase1_nodes.add(r1.stats.nodes)
                    else:
                        r = search.solve(inst.problem, config)
                        results, objects = (r,), r.learned
            except Exception as exc:
                error = f"raised {type(exc).__name__}: {exc}"
            out.latencies_ms.append((perf_counter_ns() - t0) / 1e6)
            for r in results:
                error = error or w.check_result(inst, r)
            error = error or w.check_learned(inst, objects)
            out.call_s.append((perf_counter_ns() - t0) / 1e9)
            out.failed.append(error is not None)
            if error is not None:
                report.fail(inst.label, strategy, error)
            out.nodes += sum(r.stats.nodes for r in results)
            out.fallbacks += sum(r.stats.fallbacks for r in results)
            out.learned += len(objects)
            out.fingerprint.append(
                (inst.label, strategy.value) + _summary(results, objects)
            )
        if len(phase1_nodes) > 1:
            for k in range(first, len(out.failed)):
                out.failed[k] = True
            error = f"phase-1 nodes differ: {sorted(phase1_nodes)}"
            report.fail(inst.label, None, error)
    if tracer is not None:
        out.spans = (first_span, len(tracer.spans))
    return out


class Report:
    def __init__(self, workload: str):
        self.workload = workload
        self.lines = 0
        self.consistent = True

    def fail(self, label, strategy, error) -> None:
        if self.lines < MAX_FAILURE_LINES:
            name = strategy.value if strategy is not None else "all strategies"
            print(f"FAIL {self.workload} {label} {name}: {error}", file=sys.stderr)
        self.lines += 1

    def inconsistent(self, what: str) -> None:
        print(f"INCONSISTENT {self.workload}: {what}", file=sys.stderr)
        self.consistent = False


def run_passes(w, workload, instances, seconds, report, tracer=None):
    """Passes until ``seconds`` have elapsed, each pinned to the next CPU.

    On a shared host each vCPU slows down on its own, and a process left
    alone stays on one of them for the whole run; taking turns lets every
    call's best pass come from whichever CPU ran at full speed.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    passes: List[PassResult] = []
    deadline = perf_counter() + seconds
    try:
        while not passes or perf_counter() < deadline:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(run_pass(w, workload, instances, report, tracer))
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return passes


def best_of(passes: List[PassResult], attr: str) -> List[float]:
    """Each call's fastest time over the passes.

    The machine's noise only ever adds time, and it comes in bursts of a
    few seconds that miss some of the passes.
    """
    return [min(c) for c in zip(*(getattr(p, attr) for p in passes))]


def time_import() -> float:
    """Seconds to import the loaded solver modules afresh.

    The modules already in use are put back afterwards, so the rest of the
    run keeps working with them.
    """

    def solver_modules() -> List[str]:
        return [n for n in sys.modules if n == "cutlearn" or n.startswith("cutlearn.")]

    loaded = {name: sys.modules.pop(name) for name in solver_modules()}
    t = perf_counter()
    for name in sorted(loaded):
        importlib.import_module(name)
    elapsed = perf_counter() - t
    for name in solver_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return elapsed


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def traced_metrics(spans_mod, tracer, setup_range, traced, untraced, report):
    per_pass = [
        spans_mod.layer_metrics(tracer.spans, *p.spans, ROOT_SPANS) for p in traced
    ]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if per_layer_unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                report.inconsistent(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    setup = spans_mod.layer_metrics(tracer.spans, *setup_range, ROOT_SPANS)
    for name in ("oracle.oracle_optimum.calls", "oracle.oracle_optimum.s"):
        metrics[name] = setup[name]
    fallbacks = traced[0].fallbacks
    if not tracer.absent and metrics["conflict.graph_fallback.calls"] != fallbacks:
        report.inconsistent(
            f"traced graph_fallback calls {metrics['conflict.graph_fallback.calls']}"
            f" but the solver counted {fallbacks} fallbacks"
        )
    metrics["search.learned_kept"] = traced[0].learned
    total = metrics["propagation.conflicts.total"]
    metrics["search.useful_conflict_ratio"] = (
        traced[0].learned / total if total else 0.0
    )
    metrics["bench.trace_overhead_s"] = sum(best_of(traced, "call_s")) - sum(
        best_of(untraced, "call_s")
    )
    metrics["bench.hooks_absent"] = len(tracer.absent)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cutlearn" / "__init__.py").is_file():
        print(f"no solver source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cutlearn
    import spans as spans_mod
    import workloads as w

    if Path(cutlearn.__file__).resolve().parent != (SRC / "cutlearn").resolve():
        print(f"imported cutlearn from {cutlearn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in w.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(w.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = w.WORKLOADS[args.workload]
    report = Report(args.workload)
    tracer = spans_mod.Tracer()

    import_times = [time_import() for _ in range(SETUP_REPEATS)]
    setup_times = []
    instances = None
    setup_range = (0, 0)
    for k in range(SETUP_REPEATS):
        traced = args.trace == 1 and k == SETUP_REPEATS - 1
        lo = len(tracer.spans)
        t = perf_counter()
        with tracer.hooked() if traced else nullcontext():
            built = w.build_instances(workload, args.seed)
        if not traced:
            setup_times.append(perf_counter() - t)
        else:
            setup_range = (lo, len(tracer.spans))
        if instances is not None and built != instances:
            report.inconsistent("the same seed built different inputs")
        instances = built

    if args.trace == 0:
        passes = run_passes(w, workload, instances, args.seconds, report)
        traced_passes = []
    else:
        passes = run_passes(w, workload, instances, args.seconds / 2, report)
        with tracer.hooked():
            traced_passes = run_passes(
                w, workload, instances, args.seconds / 2, report, tracer
            )
        for name in tracer.absent:
            print(f"hook absent: {name}", file=sys.stderr)

    all_passes = passes + traced_passes
    if any(p.fingerprint != passes[0].fingerprint for p in all_passes):
        report.inconsistent("passes over the same inputs differ")
    attempted = sum(len(p.failed) for p in all_passes)
    failed = sum(sum(p.failed) for p in all_passes)
    if args.trace == 0:
        best_ms = best_of(passes, "latencies_ms")
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": sum(best_of(passes, "call_s")),
            "solve_ms.p50": statistics.median(best_ms),
            "solve_ms.p90": statistics.quantiles(best_ms, n=10)[8],
            "nodes": passes[0].nodes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "solve_ms.p50": "ms",
                 "solve_ms.p90": "ms", "nodes": "count", "peak_rss_mb": "MB"}
    else:
        metrics = traced_metrics(
            spans_mod, tracer, setup_range, traced_passes, passes, report
        )
        units = {name: per_layer_unit(name) for name in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"spans_{args.workload}_{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "absent": tracer.absent,
             "setup": setup_range, "passes": [p.spans for p in traced_passes]},
        )
    result = {
        "correct": failed == 0 and report.consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
