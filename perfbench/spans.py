"""Outside-in layer tracing for the cutlearn benchmark.

The traced run replaces the module-level names the solver looks up at run
time with wrappers that record one span per call: name, start, end, parent
span and the id of the benchmark call it belongs to. Nothing under ``src/``
changes. Spans stay in memory until the run writes them out, and each
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

# (layer prefix, module, attribute path). The attribute path is the name the
# solver resolves at call time, so later refactors must keep it or update it.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("propagation.fixpoint", "cutlearn.search", "propagate_fixpoint"),
    ("conflict.analyze", "cutlearn.search", "analyze"),
    ("conflict.graph_fallback", "cutlearn.search", "graph_fallback"),
    ("search.select_branching", "cutlearn.search", "select_branching"),
    ("search.leaf_fm", "cutlearn.search", "_leaf_continuous"),
    ("conflict.is_asserting", "cutlearn.conflict", "is_asserting"),
    ("conflict.min_infeasible_state", "cutlearn.conflict", "min_infeasible_state"),
    ("cuts.reduce_reason", "cutlearn.conflict", "reduce_reason"),
    ("trail.backjump", "cutlearn.trail", "Trail.backjump"),
    ("oracle.oracle_optimum", "cutlearn.oracle", "oracle_optimum"),
    ("oracle.validate_learned", "cutlearn.oracle", "validate_learned"),
)

# Exception types escaping graph_fallback that the solver swallows.
FALLBACK_ERRORS = ("ValueError", "AssertionError")
CONFLICT_CLASSES = ("model", "cutoff", "learned", "disjunction")
ANALYSIS_OUTCOMES = ("learned", "abandoned", "global_infeasibility", "discarded_cutoff")


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root span
    call_id: int
    info: Any  # what the hook observed about the call, or None


# -- what each hook records besides time ------------------------------------


def _row_class(row) -> str:
    if row.origin == "cutoff":
        return "cutoff"
    if row.origin.startswith("learned"):
        return "learned"
    return "model"


def _observe_fixpoint(arguments, result):
    info = {"changes": result.num_changes}
    if result.conflict:
        kind, idx = result.source
        if kind == "disjunction":
            info["conflict"] = "disjunction"
        else:
            info["conflict"] = _row_class(arguments()["rows"][idx])
    return info


def _observe_analyze(arguments, result):
    from cutlearn.trail import RowReason

    outcome = result.outcome
    if outcome != "abandoned" and result.used_row_indices:
        trail_rows = {
            ch.reason.index: ch.reason.row
            for ch in arguments()["trail"].changes
            if isinstance(ch.reason, RowReason)
        }
        if any(
            trail_rows[i].origin == "cutoff"
            for i in result.used_row_indices
            if i in trail_rows
        ):
            outcome = "discarded_cutoff"
    return {"outcome": outcome, "iterations": result.iterations}


# prefix -> observer(arguments, result) -> info, where arguments() binds the
# call's arguments by parameter name; binding costs more than the call's
# bookkeeping, so observers bind only when they need an argument.
OBSERVERS: Dict[str, Callable] = {
    "propagation.fixpoint": _observe_fixpoint,
    "conflict.analyze": _observe_analyze,
}


# -- the tracer ----------------------------------------------------------------


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.call_id = -1
        self.absent: List[str] = []

    def _open(self) -> Tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, end, info) -> None:
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self.call_id, info)

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark around one of its own calls."""
        idx, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, perf_counter_ns(), None)

    def wrap(self, prefix: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(prefix)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"raised": type(exc).__name__}
                self._close(idx, parent, prefix, start, perf_counter_ns(), info)
                raise
            end = perf_counter_ns()
            info = None
            if observe is not None:
                info = observe(
                    lambda: signature.bind(*args, **kwargs).arguments, result
                )
            self._close(idx, parent, prefix, start, end, info)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def hooked(self, hooks: Sequence[Tuple[str, str, str]] = HOOKS):
        """Install the wrappers for the duration of the block.

        A hook whose name no longer exists is reported in ``absent`` and
        its metrics stay at zero.
        """
        installed = []
        self.absent = []
        for prefix, module_name, path in hooks:
            target = _resolve(module_name, path)
            if target is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = target
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(prefix, original))
            installed.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def write(self, path, header: Dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


# -- aggregation ----------------------------------------------------------------


def layer_metrics(
    spans: Sequence[Span], lo: int, hi: int, root_names: Sequence[str]
) -> Dict[str, float]:
    """Per-layer counts and times over spans[lo:hi].

    Times are in seconds; ``.s`` is a layer's whole span time, ``self_s``
    its span time minus its child spans.
    """
    child_ns = [0] * (hi - lo)
    for s in spans[lo:hi]:
        if s.parent >= lo:
            child_ns[s.parent - lo] += s.end_ns - s.start_ns
    out: Dict[str, float] = {}
    for prefix, _, _ in HOOKS:
        out[f"{prefix}.calls"] = 0
        out[f"{prefix}.s"] = 0.0
    out["propagation.fixpoint.changes"] = 0
    for c in CONFLICT_CLASSES:
        out[f"propagation.conflicts.{c}"] = 0
    for o in ANALYSIS_OUTCOMES:
        out[f"conflict.analyze.{o}"] = 0
    out["conflict.analyze.iterations"] = 0
    out["conflict.analyze.self_s"] = 0.0
    out["conflict.graph_fallback.raised"] = 0
    for e in FALLBACK_ERRORS:
        out[f"conflict.graph_fallback.raised.{e}"] = 0
    out["cuts.reduce_reason.failed"] = 0
    out["oracle.validate_learned.refused"] = 0
    out["search.self_s"] = 0.0

    for k, s in enumerate(spans[lo:hi]):
        dur = s.end_ns - s.start_ns
        self_s = (dur - child_ns[k]) / 1e9
        if s.name in root_names:
            out["search.self_s"] += self_s
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += dur / 1e9
        info = s.info or {}
        raised = info.get("raised")
        if s.name == "propagation.fixpoint" and raised is None:
            out["propagation.fixpoint.changes"] += info["changes"]
            if "conflict" in info:
                out[f"propagation.conflicts.{info['conflict']}"] += 1
        elif s.name == "conflict.analyze":
            out["conflict.analyze.self_s"] += self_s
            if raised is None:
                out[f"conflict.analyze.{info['outcome']}"] += 1
                out["conflict.analyze.iterations"] += info["iterations"]
        elif s.name == "conflict.graph_fallback" and raised is not None:
            out["conflict.graph_fallback.raised"] += 1
            key = f"conflict.graph_fallback.raised.{raised}"
            if key in out:
                out[key] += 1
        elif s.name == "cuts.reduce_reason" and raised is not None:
            out["cuts.reduce_reason.failed"] += 1
        elif s.name == "oracle.validate_learned" and raised == "OracleError":
            out["oracle.validate_learned.refused"] += 1
    del out["conflict.analyze.s"]
    out["propagation.conflicts.total"] = sum(
        out[f"propagation.conflicts.{c}"] for c in CONFLICT_CLASSES
    )
    return out
