#!/usr/bin/env python3
"""One line per solver result and per conflict analysis, for diffing two
versions of the solver.

Each result line names the instance, the strategy and the call (``solve``,
or ``phase1``/``phase2`` of ``run_two_phase``), then gives the status, the
objective, the witness, every ``Stats`` field and the learned objects.  After
a call's result lines come its analyses, one line for each result the solver
handed to ``on_analysis``, in order: the outcome, the learned object and its
origin, the backjump target, the iteration count, the rows resolved through,
the conflicting state and the trace.  Then comes one such line for every
result that ``analyze`` or ``graph_fallback`` returned to the search during
the call, tagged ``analyze`` or ``fallback`` and numbered in call order; these
include abandoned analyses and results the search discarded for using the
objective-cutoff row, which never reach ``on_analysis``.  The instances are
the random sweep generators (through both ``solve`` and ``run_two_phase``),
the desk corpus (``run_two_phase``) and PHP(p, p - 1) (``solve``).
``--every N`` keeps every Nth sweep seed, and always the named seeds of
``NAMED_SEEDS`` that lie in the sweep, each once and in seed order.

The last line counts, over every result ``analyze`` returned, the steps of
their traces by action and the results by outcome, so a diff shows which
reason handlers the identity check reached.

Run it once with each checkout's ``src`` on ``PYTHONPATH`` and diff the
outputs; a change that keeps the search leaves them identical:

    PYTHONPATH=src python3 scripts/transcript.py > after.txt
"""

import argparse
import dataclasses
import sys
from collections import Counter
from contextlib import contextmanager

from cutlearn import search
from cutlearn.corpus import (
    desk_corpus,
    pigeonhole,
    random_binary_problem,
    random_general_integer_problem,
    random_mbp_problem,
)
from cutlearn.cuts import ReductionStrategy
from cutlearn.rationals import format_rational
from cutlearn.search import (
    SolverConfig,
    Stats,
    run_two_phase,
    serialize_learned,
    solve,
)


# Sweep seeds that between them reach the ``mbp``, ``int-resolve`` and
# ``separation-cut`` reason handlers and a ``global_infeasibility`` result,
# which a sparse ``--every`` sample can miss.
NAMED_SEEDS = (("binary", 13), ("mixed", 52), ("integer", 95), ("integer", 194))


def format_result(label, result):
    objective = "-" if result.objective is None else format_rational(result.objective)
    witness = (
        "-"
        if result.witness is None
        else ",".join(format_rational(x) for x in result.witness)
    )
    stats = " ".join(
        f"{f.name}={getattr(result.stats, f.name)!r}"
        for f in dataclasses.fields(Stats)
    )
    learned = "; ".join(serialize_learned(obj) for obj in result.learned)
    return (
        f"{label} status={result.status} objective={objective} "
        f"witness={witness} {stats} learned=[{learned}]"
    )


def _state(state):
    return "-" if state is None else f"({state.level},{state.index})"


def format_analysis(label, k, out):
    if out.learned is None:
        learned = origin = "-"
    else:
        learned, origin = serialize_learned(out.learned), out.learned.origin
    used = ",".join(str(i) for i in out.used_row_indices)
    trace = "; ".join(out.trace)
    return (
        f"{label} analysis={k} outcome={out.outcome} learned=[{learned}] "
        f"origin={origin} "
        f"backjump={_state(out.backjump_target)} iterations={out.iterations} "
        f"used=[{used}] conflicting={_state(out.conflicting_state)} "
        f"trace=[{trace}]"
    )


def format_counts(counts):
    return " ".join(f"{key}={n}" for key, n in sorted(counts.items()))


@contextmanager
def returned_analyses(returned):
    """Wrap the ``analyze`` and ``graph_fallback`` that search calls, so each
    result they return is appended to ``returned`` as (tag, result)."""
    originals = [
        ("analyze", "analyze", search.analyze),
        ("graph_fallback", "fallback", search.graph_fallback),
    ]

    def wrap(tag, original):
        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            returned.append((tag, out))
            return out

        return wrapped

    for name, tag, original in originals:
        setattr(search, name, wrap(tag, original))
    try:
        yield
    finally:
        for name, _, original in originals:
            setattr(search, name, original)


def instances(args):
    """(name, problem, calls) in output order, calls drawn from
    ("solve", "twophase")."""
    sweep = (
        ("binary", random_binary_problem, args.binary),
        ("mixed", random_mbp_problem, args.mixed),
        ("integer", random_general_integer_problem, args.integer),
    )
    for family, generate, count in sweep:
        named = {seed for name, seed in NAMED_SEEDS if name == family and seed < count}
        for seed in sorted(named.union(range(0, count, args.every))):
            yield f"{family}/{seed}", generate(seed), ("solve", "twophase")
    for k, problem in enumerate(desk_corpus(size=args.desk)):
        yield f"desk/{k}", problem, ("twophase",)
    for p in range(2, args.pigeonhole + 1):
        yield f"php/{p}", pigeonhole(p, p - 1), ("solve",)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", type=int, default=1000, help="binary seeds")
    ap.add_argument("--mixed", type=int, default=300, help="mixed-binary seeds")
    ap.add_argument("--integer", type=int, default=200, help="general-integer seeds")
    ap.add_argument("--every", type=int, default=1, help="keep every Nth sweep seed")
    ap.add_argument("--desk", type=int, default=20, help="desk corpus size")
    ap.add_argument(
        "--pigeonhole", type=int, default=8, help="largest p of PHP(p, p - 1)"
    )
    args = ap.parse_args(argv)
    if args.every < 1:
        ap.error("--every must be at least 1")

    actions, outcomes = Counter(), Counter()
    for name, problem, calls in instances(args):
        for strategy in ReductionStrategy:
            analyses = []
            returned = []
            config = SolverConfig(
                strategy=strategy,
                on_analysis=lambda out, trail: analyses.append(out),
            )
            prefix = f"{name} {strategy.value}"
            for call in calls:
                analyses.clear()
                returned.clear()
                with returned_analyses(returned):
                    if call == "solve":
                        results = [("solve", solve(problem, config))]
                    else:
                        r1, r2, _ = run_two_phase(problem, config)
                        results = [("phase1", r1), ("phase2", r2)]
                for label, result in results:
                    print(format_result(f"{prefix} {label}", result))
                for k, out in enumerate(analyses, 1):
                    print(format_analysis(f"{prefix} {call}", k, out))
                for k, (tag, out) in enumerate(returned, 1):
                    print(format_analysis(f"{prefix} {call} {tag}", k, out))
                    if tag == "analyze":
                        outcomes[out.outcome] += 1
                        actions.update(
                            line.split(" action=")[1].split()[0] for line in out.trace
                        )
    print(f"analyze steps {format_counts(actions)} results {format_counts(outcomes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
