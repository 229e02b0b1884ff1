"""Depth-first branch-and-bound with propagation and conflict learning.

Conflicts found by propagation are analyzed into globally valid learned
objects; the solver backjumps to the state where the learned object first
propagates.  When learning is off, analysis fails, or a conflict involves an
objective-cutoff row, the solver backtracks chronologically by flipping the
deepest unflipped decision.

Leaf feasibility and the continuous objective part are decided by a local
Fourier-Motzkin routine; the oracle module has its own, deliberately
separate, implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .conflict import (
    AnalysisConfig,
    AnalysisResult,
    analyze,
    graph_fallback,
)
from .cuts import ReductionStrategy
from .model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Problem,
    VarKind,
)
from .propagation import propagate_fixpoint
from .rationals import (
    ONE,
    ZERO,
    Rat,
    format_rational,
    frac_floor,
    is_finite,
    is_integral,
    parse_rational,
)
from .trail import INITIAL_STATE, StateId, Trail

LearnedObject = Union[LinearConstraint, BoundDisjunction]


class SolverError(Exception):
    pass


@dataclass
class SolverConfig:
    strategy: ReductionStrategy = ReductionStrategy.CMIR
    enable_learning: bool = True
    node_limit: int = 10_000
    conflict_limit: int = 1_000
    max_learned_length: Optional[int] = None
    # "solve": learn and use; "generate": learn but ignore (phase 1);
    # "exploit": no learning, extra initial objects supplied (phase 2).
    mode: str = "solve"
    initial_learned: Tuple[LearnedObject, ...] = ()
    # Invoked with every learned object before it is used (debug validation).
    on_learned: Optional[Callable[[LearnedObject], None]] = None
    # Invoked with (AnalysisResult, Trail) right after each successful
    # analysis, while the trail still shows the conflicting subproblem.
    on_analysis: Optional[Callable[[AnalysisResult, Trail], None]] = None
    emit_trace: bool = False

    def __post_init__(self):
        if self.node_limit <= 0 or self.conflict_limit < 0:
            raise ValueError("limits must be positive")
        if self.mode not in ("solve", "generate", "exploit"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class Stats:
    nodes: int = 0
    conflicts_analyzed: int = 0
    learned_linear: int = 0
    learned_disjunctions: int = 0
    fallbacks: int = 0
    avg_learned_length: Optional[float] = None
    used_pct: Optional[float] = None
    bdchgs_by_learned: int = 0


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "limit"
    objective: Optional[Rat] = None
    witness: Optional[Tuple[Rat, ...]] = None
    stats: Stats = field(default_factory=Stats)
    learned: Tuple[LearnedObject, ...] = ()


# -- branching ----------------------------------------------------------------


def select_branching(
    trail: Trail, problem: Problem
) -> Optional[Tuple[int, BoundKind, Rat, BoundKind, Rat]]:
    """Lowest-index unfixed integral variable with its two directions.

    Returns (var, kind, value, flip_kind, flip_value), down direction first,
    or None when every integral variable is fixed.
    """
    for v in problem.variables:
        if not v.is_integral:
            continue
        lb, ub = trail.local_lb[v.index], trail.local_ub[v.index]
        if lb == ub:
            continue
        if v.kind is VarKind.BINARY:
            return (v.index, BoundKind.UPPER, ZERO, BoundKind.LOWER, ONE)
        mid = frac_floor((Fraction(lb) + Fraction(ub)) / 2)
        return (v.index, BoundKind.UPPER, mid, BoundKind.LOWER, mid + 1)
    return None


# -- leaf evaluation (local Fourier-Motzkin) ----------------------------------


def _leaf_residual(
    rows: Sequence[LinearConstraint], trail: Trail, cont: Sequence[int]
) -> Optional[List[Tuple[Dict[int, Rat], Rat]]]:
    cont_set = set(cont)
    out: List[Tuple[Dict[int, Rat], Rat]] = []
    for C in rows:
        coefs: Dict[int, Rat] = {}
        rhs = C.rhs
        for j, a in C.terms:
            if j in cont_set:
                coefs[j] = a
            else:
                rhs -= a * Fraction(trail.local_lb[j])
        if coefs:
            out.append((coefs, rhs))
        elif rhs > 0:
            return None
    for j in cont:
        if is_finite(trail.local_lb[j]):
            out.append(({j: ONE}, Fraction(trail.local_lb[j])))
        if is_finite(trail.local_ub[j]):
            out.append(({j: -ONE}, -Fraction(trail.local_ub[j])))
    return out


def _project(
    system: List[Tuple[Dict[int, Rat], Rat]], var: int
) -> List[Tuple[Dict[int, Rat], Rat]]:
    pos = [r for r in system if r[0].get(var, ZERO) > 0]
    neg = [r for r in system if r[0].get(var, ZERO) < 0]
    out = [r for r in system if r[0].get(var, ZERO) == 0]
    for pcoefs, prhs in pos:
        a = pcoefs[var]
        for ncoefs, nrhs in neg:
            b = -ncoefs[var]
            coefs: Dict[int, Rat] = {}
            for j, c in pcoefs.items():
                if j != var:
                    coefs[j] = coefs.get(j, ZERO) + c / a
            for j, c in ncoefs.items():
                if j != var:
                    coefs[j] = coefs.get(j, ZERO) + c / b
            out.append(
                ({j: c for j, c in coefs.items() if c != 0}, prhs / a + nrhs / b)
            )
    return out


def _leaf_continuous(
    rows: Sequence[LinearConstraint],
    trail: Trail,
    cont: Sequence[int],
    cont_obj: Dict[int, Rat],
) -> Optional[Tuple[Rat, Dict[int, Rat]]]:
    """Minimize the continuous objective part over the leaf's residual system.

    Returns (value, continuous assignment) or None if the leaf is infeasible.
    """
    system = _leaf_residual(rows, trail, cont)
    if system is None:
        return None
    t = len(trail.variables)
    if cont_obj:
        epi: Dict[int, Rat] = {t: ONE}
        for j, c in cont_obj.items():
            epi[j] = epi.get(j, ZERO) - c
        system = system + [(epi, ZERO)]
    stages: List[Tuple[int, List[Tuple[Dict[int, Rat], Rat]]]] = []
    work = system
    for v in cont:
        stages.append((v, work))
        work = _project(work, v)
    if any(rhs > 0 for coefs, rhs in work if not coefs):
        return None
    value = ZERO
    fixed: Dict[int, Rat] = {}
    if cont_obj:
        t_lb: Optional[Rat] = None
        for coefs, rhs in work:
            a = coefs.get(t, ZERO)
            if a > 0:
                bound = rhs / a
                t_lb = bound if t_lb is None or bound > t_lb else t_lb
        if t_lb is None:
            raise SolverError("continuous objective part unbounded below")
        value = t_lb
        fixed[t] = t_lb
    assignment = dict(fixed)
    for var, sys_rows in reversed(stages):
        lo: Optional[Rat] = None
        hi: Optional[Rat] = None
        for coefs, rhs in sys_rows:
            a = coefs.get(var, ZERO)
            if a == 0:
                continue
            residual = rhs - sum(
                (c * assignment[j] for j, c in coefs.items() if j != var), ZERO
            )
            bound = residual / a
            if a > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is None and hi is None:
            assignment[var] = ZERO
        elif lo is None:
            assignment[var] = hi
        elif hi is None:
            assignment[var] = lo
        else:
            if lo > hi:
                return None
            assignment[var] = (lo + hi) / 2
    assignment.pop(t, None)
    return value, assignment


# -- learned-object files ------------------------------------------------------


def serialize_learned(obj: LearnedObject) -> str:
    if isinstance(obj, LinearConstraint):
        parts = [f"{j}:{format_rational(c)}" for j, c in obj.terms]
        return " ".join(["lin", format_rational(obj.rhs)] + parts)
    parts = []
    for a in obj.atoms:
        op = ">=" if a.kind is BoundKind.LOWER else "<="
        parts.append(f"{a.var}{op}{format_rational(a.value)}")
    return " ".join(["dis"] + parts)


def parse_learned_line(line: str) -> LearnedObject:
    fields = line.split()
    if not fields:
        raise ValueError("empty learned-object line")
    if fields[0] == "lin":
        rhs = parse_rational(fields[1])
        terms = {}
        for tok in fields[2:]:
            var_s, coef_s = tok.split(":", 1)
            terms[int(var_s)] = parse_rational(coef_s)
        return LinearConstraint.from_dict(terms, rhs, "learned:file")
    if fields[0] == "dis":
        atoms = []
        for tok in fields[1:]:
            if ">=" in tok:
                var_s, val_s = tok.split(">=", 1)
                kind = BoundKind.LOWER
            elif "<=" in tok:
                var_s, val_s = tok.split("<=", 1)
                kind = BoundKind.UPPER
            else:
                raise ValueError(f"bad atom {tok!r}")
            atoms.append(BoundAtom(int(var_s), kind, parse_rational(val_s)))
        return BoundDisjunction(tuple(atoms), "learned:file")
    raise ValueError(f"unknown learned-object tag {fields[0]!r}")


def write_learned_file(path: str, objects: Sequence[LearnedObject]) -> None:
    with open(path, "w") as fh:
        for obj in objects:
            fh.write(serialize_learned(obj) + "\n")


def read_learned_file(path: str) -> List[LearnedObject]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_learned_line(line))
    return out


# -- solver --------------------------------------------------------------------


@dataclass
class _Decision:
    level: int
    var: int
    flip_kind: BoundKind
    flip_value: Rat
    flipped: bool = False


class _Solver:
    def __init__(self, problem: Problem, config: SolverConfig):
        self.problem = problem
        self.config = config
        self.trail = Trail(problem.variables)
        self.rows: List[LinearConstraint] = list(problem.constraints)
        self.disjunctions: List[BoundDisjunction] = []
        self.unsafe_rows: Set[int] = set()  # objective-cutoff rows
        self.learned_row_idx: Set[int] = set()
        self.learned_dis_idx: Set[int] = set()
        self.dstack: List[_Decision] = []
        self.stats = Stats(nodes=1)
        self.learned: List[LearnedObject] = []
        self.incumbent: Optional[Tuple[Rat, ...]] = None
        self.incumbent_value: Optional[Rat] = None
        self.cont = [
            v.index for v in problem.variables if v.kind is VarKind.CONTINUOUS
        ]
        obj = problem.objective_dict()
        self.int_obj = {
            j: c for j, c in obj.items() if problem.variables[j].is_integral
        }
        self.cont_obj = {j: c for j, c in obj.items() if j in set(self.cont)}
        self.all_integer_obj = not self.cont_obj and all(
            is_integral(c) for c in self.int_obj.values()
        )
        self._used_rows: Set[int] = set()
        self._used_dis: Set[int] = set()
        self.tracked_initial = list(config.initial_learned)
        for extra in config.initial_learned:
            self._add_learned(extra, count=False)

    # -- learned-object bookkeeping ---------------------------------------

    def _add_learned(self, obj: LearnedObject, count: bool = True) -> None:
        if self.config.on_learned is not None:
            self.config.on_learned(obj)
        if isinstance(obj, LinearConstraint):
            self.learned_row_idx.add(len(self.rows))
            self.rows.append(obj)
            if count:
                self.stats.learned_linear += 1
        else:
            self.learned_dis_idx.add(len(self.disjunctions))
            self.disjunctions.append(obj)
            if count:
                self.stats.learned_disjunctions += 1

    def _record_learned(self, obj: LearnedObject) -> None:
        self.learned.append(obj)
        if isinstance(obj, LinearConstraint):
            self.stats.learned_linear += 1
        else:
            self.stats.learned_disjunctions += 1

    # -- conflict handling ---------------------------------------------------

    def _analysis_allowed(self) -> bool:
        return (
            self.config.enable_learning
            and self.config.mode != "exploit"
            and self.stats.conflicts_analyzed < self.config.conflict_limit
        )

    def _run_analysis(self, source: Tuple[str, int]) -> Optional[AnalysisResult]:
        kind, idx = source
        if kind == "row" and idx in self.unsafe_rows:
            return None  # objective-bound conflicts are not globally valid
        self.stats.conflicts_analyzed += 1
        cfg = AnalysisConfig(
            max_learned_length=self.config.max_learned_length,
            emit_trace=self.config.emit_trace,
        )
        out: Optional[AnalysisResult] = None
        if kind == "row":
            out = analyze(
                self.rows[idx], self.trail, self.config.strategy, cfg
            )
            if out.outcome == "abandoned" or self._used_unsafe(out):
                out = None
        if out is None:
            self.stats.fallbacks += 1
            try:
                if kind == "row":
                    out = graph_fallback(self.trail, conflict_row=self.rows[idx])
                else:
                    out = graph_fallback(
                        self.trail,
                        conflict_disjunction=self.disjunctions[idx],
                    )
            except (ValueError, AssertionError):
                return None
            if self._used_unsafe(out):
                return None
        if out is not None and self.config.on_analysis is not None:
            self.config.on_analysis(out, self.trail)
        return out

    def _used_unsafe(self, out: AnalysisResult) -> bool:
        """True if the derivation resolved through an objective-cutoff row.

        Such a reason is only valid relative to the incumbent, so the result
        cannot be kept as a globally valid learned object.
        """
        return bool(self.unsafe_rows.intersection(out.used_row_indices))

    # -- backtracking ----------------------------------------------------------

    def _chronological(self) -> bool:
        """Flip the deepest unflipped decision; False when exhausted."""
        while self.dstack:
            entry = self.dstack[-1]
            if entry.flipped:
                self.dstack.pop()
                continue
            target = self.trail.predecessor(StateId(entry.level, 0))
            self.trail.backjump(target)
            entry.flipped = True
            self.trail.push_decision(entry.var, entry.flip_kind, entry.flip_value)
            self.stats.nodes += 1
            return True
        return False

    def _backjump(self, target: StateId) -> None:
        self.trail.backjump(target)
        while self.dstack and self.dstack[-1].level > target.level:
            self.dstack.pop()

    # -- leaves ------------------------------------------------------------

    def _leaf(self) -> None:
        value: Optional[Rat] = None
        witness: Optional[Tuple[Rat, ...]] = None
        int_part = sum(
            (c * Fraction(self.trail.local_lb[j]) for j, c in self.int_obj.items()),
            ZERO,
        )
        if self.cont:
            res = _leaf_continuous(self.rows, self.trail, self.cont, self.cont_obj)
            if res is not None:
                cont_val, assignment = res
                value = int_part + cont_val
                point = []
                for v in self.problem.variables:
                    if v.index in assignment:
                        point.append(assignment[v.index])
                    else:
                        point.append(Fraction(self.trail.local_lb[v.index]))
                witness = tuple(point)
        else:
            value = int_part
            witness = tuple(
                Fraction(self.trail.local_lb[j])
                for j in range(len(self.problem.variables))
            )
        if value is None:
            return
        if self.incumbent_value is not None and value >= self.incumbent_value:
            return  # repetition guard: ties are never re-accepted
        self.incumbent = witness
        self.incumbent_value = value
        if self.int_obj or self.cont_obj:
            self._add_cutoff_row(value)

    def _add_cutoff_row(self, value: Rat) -> None:
        terms = {}
        for j, c in self.int_obj.items():
            terms[j] = -c
        for j, c in self.cont_obj.items():
            terms[j] = terms.get(j, ZERO) - c
        delta = ONE if self.all_integer_obj else ZERO
        row = LinearConstraint.from_dict(terms, delta - value, "cutoff")
        self.unsafe_rows.add(len(self.rows))
        self.rows.append(row)

    # -- main loop -----------------------------------------------------------

    def run(self) -> SolveResult:
        has_objective = bool(self.int_obj or self.cont_obj)
        while True:
            start = len(self.trail.changes)
            fix = propagate_fixpoint(self.trail, self.rows, self.disjunctions)
            self._account_learned_propagation(start)
            if fix.conflict:
                if self.trail.current_level == 0:
                    return self._finish(proved=True)
                handled = False
                if self._analysis_allowed():
                    out = self._run_analysis(fix.source)
                    if out is not None:
                        handled = self._apply_analysis(out)
                        if handled is None:
                            return self._finish(proved=True)
                if not handled:
                    if not self._chronological():
                        return self._finish(proved=True)
                continue
            branch = select_branching(self.trail, self.problem)
            if branch is None:
                self._leaf()
                if not has_objective and self.incumbent is not None:
                    return self._finish(proved=True)
                if not self._chronological():
                    return self._finish(proved=True)
                continue
            if self.stats.nodes >= self.config.node_limit:
                return self._finish(proved=False)
            var, kind, value, flip_kind, flip_value = branch
            self.trail.push_decision(var, kind, value)
            self.dstack.append(
                _Decision(self.trail.current_level, var, flip_kind, flip_value)
            )
            self.stats.nodes += 1

    def _apply_analysis(self, out: AnalysisResult) -> Optional[bool]:
        """Returns True if the conflict was consumed, False to fall back to
        chronological backtracking, None when search can stop."""
        if out.outcome == "global_infeasibility":
            if self.config.mode == "generate":
                return False  # keep the tree identical across strategies
            return None
        obj = out.learned_object
        if obj is None:
            return False
        if self.config.mode == "generate":
            self._record_learned(obj)
            return False
        self._add_learned(obj)
        self.learned.append(obj)
        target = out.backjump_target
        if target is None:
            return False
        self._backjump(target)
        return True

    def _account_learned_propagation(self, start: int) -> None:
        from .trail import DisjunctionReason, RowReason

        for ch in self.trail.changes[start:]:
            if isinstance(ch.reason, RowReason):
                if ch.reason.index in self.learned_row_idx:
                    self.stats.bdchgs_by_learned += 1
                    self._used_rows.add(ch.reason.index)
            elif isinstance(ch.reason, DisjunctionReason):
                if ch.reason.index in self.learned_dis_idx:
                    self.stats.bdchgs_by_learned += 1
                    self._used_dis.add(ch.reason.index)

    def _finish(self, proved: bool) -> SolveResult:
        self._finalize_stats()
        learned = tuple(self.learned)
        if self.incumbent is not None:
            status = "optimal" if proved else "limit"
            value = (
                self.incumbent_value
                if self.problem.objective is not None
                else None
            )
            return SolveResult(
                status, value, self.incumbent, self.stats, learned
            )
        if proved:
            return SolveResult("infeasible", None, None, self.stats, learned)
        return SolveResult("limit", None, None, self.stats, learned)

    def _finalize_stats(self) -> None:
        lengths = []
        for obj in list(self.learned) + self.tracked_initial:
            if isinstance(obj, LinearConstraint):
                lengths.append(len(obj))
            else:
                lengths.append(len(obj.atoms))
        if lengths:
            self.stats.avg_learned_length = sum(lengths) / len(lengths)
        total_tracked = len(self.learned_row_idx) + len(self.learned_dis_idx)
        if total_tracked:
            used = len(self._used_rows) + len(self._used_dis)
            self.stats.used_pct = 100.0 * used / total_tracked
        elif self.learned:
            self.stats.used_pct = 0.0


def solve(problem: Problem, config: Optional[SolverConfig] = None) -> SolveResult:
    config = config or SolverConfig()
    return _Solver(problem, config).run()


def run_two_phase(
    problem: Problem, config: Optional[SolverConfig] = None
) -> Tuple[SolveResult, SolveResult, List[LearnedObject]]:
    """Conflict generation run followed by an exploitation run.

    Phase 1 performs chronological search, computing but ignoring learned
    objects, so its tree does not depend on the reduction strategy.  Phase 2
    re-solves with those objects installed as initial rows/disjunctions.
    """
    config = config or SolverConfig()
    gen_cfg = replace(config, mode="generate", initial_learned=())
    result1 = solve(problem, gen_cfg)
    exploit_cfg = replace(
        config,
        mode="exploit",
        enable_learning=False,
        initial_learned=tuple(result1.learned),
    )
    result2 = solve(problem, exploit_cfg)
    return result1, result2, list(result1.learned)
