"""Depth-first branch-and-bound with propagation and conflict learning.

Conflicts found by propagation are analyzed into globally valid learned
objects; the solver backjumps to the state where the learned object first
propagates.  It backtracks chronologically instead, flipping the deepest
unflipped decision, when a conflict is on the objective-cutoff row, when the
analysis yields nothing globally valid, and after ``conflict_limit``
analyses (at once when it is 0, which turns learning off).

Leaf feasibility and the continuous objective part are decided by a local
Fourier-Motzkin routine; the oracle module has its own, deliberately
separate, implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .conflict import AnalysisResult, analyze, graph_fallback
from .cuts import ReductionStrategy
from .model import (
    BoundDisjunction,
    BoundKind,
    LearnedObject,
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
    int_if_integral,
    is_finite,
    is_integral,
)
from .trail import DisjunctionReason, RowReason, StateId, Trail


class SolverError(Exception):
    pass


@dataclass
class SolverConfig:
    strategy: ReductionStrategy = ReductionStrategy.CMIR
    node_limit: int = 10_000
    # Conflicts analyzed at most per solve; 0 turns learning off.
    conflict_limit: int = 1_000
    # Invoked with (AnalysisResult, Trail) right after each successful
    # analysis, while the trail still shows the conflicting subproblem.
    on_analysis: Optional[Callable[[AnalysisResult, Trail], None]] = None

    def __post_init__(self):
        if self.node_limit <= 0:
            raise ValueError("node limit must be positive")
        if self.conflict_limit < 0:
            raise ValueError("conflict limit must be 0 or more")


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
    # Fixpoints that ``propagation.MAX_ROUNDS`` stopped before they were reached.
    propagation_capped: int = 0


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "limit"
    # An int when integral, else a Fraction; None without an objective.
    objective: Optional[Rat] = None
    # One value per variable, each an int when integral, else a Fraction.
    witness: Optional[Tuple[Rat, ...]] = None
    stats: Stats = field(default_factory=Stats)
    learned: Tuple[LearnedObject, ...] = ()


# -- branching ----------------------------------------------------------------


def select_branching(
    trail: Trail, problem: Problem
) -> Optional[Tuple[int, BoundKind, Rat, BoundKind, Rat]]:
    """Lowest-index unfixed integral variable with its two directions.

    Returns (var, kind, value, flip_kind, flip_value), or None when every
    integral variable is fixed.  A general integer splits at
    x <= mid | x >= mid + 1: mid is the floor of the midpoint of a finite
    domain, lb or ub - 1 when only that bound is finite, and 0 when neither
    is.  The down direction comes first, except on a domain bounded only
    above: there x >= ub fixes x, where x <= ub - 1 would leave the domain
    open below again and a dive could go on forever.
    """
    for v in problem.variables:
        if not v.is_integral:
            continue
        lb, ub = trail.local_lb[v.index], trail.local_ub[v.index]
        if lb == ub:
            continue
        if v.kind is VarKind.BINARY:
            return (v.index, BoundKind.UPPER, 0, BoundKind.LOWER, 1)
        if is_finite(lb) and is_finite(ub):
            mid = (lb + ub) // 2
        elif is_finite(lb):
            mid = lb
        elif is_finite(ub):
            return (v.index, BoundKind.LOWER, ub, BoundKind.UPPER, ub - 1)
        else:
            mid = 0
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
                rhs -= a * trail.local_lb[j]
        if coefs:
            out.append((coefs, rhs))
        elif rhs > 0:
            return None
    for j in cont:
        if is_finite(trail.local_lb[j]):
            out.append(({j: ONE}, trail.local_lb[j]))
        if is_finite(trail.local_ub[j]):
            out.append(({j: -ONE}, -trail.local_ub[j]))
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


# -- learned-object text -----------------------------------------------------


def serialize_learned(obj: LearnedObject) -> str:
    if isinstance(obj, LinearConstraint):
        parts = [f"{j}:{format_rational(c)}" for j, c in obj.terms]
        return " ".join(["lin", format_rational(obj.rhs)] + parts)
    parts = []
    for a in obj.atoms:
        op = ">=" if a.kind is BoundKind.LOWER else "<="
        parts.append(f"{a.var}{op}{format_rational(a.value)}")
    return " ".join(["dis"] + parts)


# -- solver --------------------------------------------------------------------


@dataclass
class _Decision:
    level: int
    var: int
    flip_kind: BoundKind
    flip_value: Rat
    flipped: bool = False


class _Solver:
    def __init__(
        self,
        problem: Problem,
        config: SolverConfig,
        *,
        generate: bool = False,
        installed: Sequence[LearnedObject] = (),
    ):
        self.problem = problem
        self.config = config
        self.generate = generate
        self.installed = tuple(installed)
        self.trail = Trail(problem.variables)
        self.rows: List[LinearConstraint] = list(problem.constraints)
        self.disjunctions: List[BoundDisjunction] = []  # all learned
        # Index in ``rows`` of the objective-cutoff row; None before the
        # first incumbent.
        self.cutoff: Optional[int] = None
        self.learned_row_idx: Set[int] = set()
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
        # The cutoff row's terms, -c sorted by variable index.
        self.cutoff_terms = tuple((j, -c) for j, c in problem.objective or ())
        self._used_rows: Set[int] = set()
        self._used_dis: Set[int] = set()
        for extra in self.installed:
            self._install(extra)

    # -- learned-object bookkeeping ---------------------------------------

    def _install(self, obj: LearnedObject) -> None:
        """Make obj propagate: add it to the rows or the disjunctions."""
        if isinstance(obj, LinearConstraint):
            self.learned_row_idx.add(len(self.rows))
            self.rows.append(obj)
        else:
            self.disjunctions.append(obj)

    # -- conflict handling ---------------------------------------------------

    def _analyze(self, source: Tuple[str, int]) -> Optional[AnalysisResult]:
        """The globally valid analysis of the conflict at ``source``, or None.

        None once ``conflict_limit`` analyses have run, for a conflict on the
        objective-cutoff row, and for a result that resolved through that
        row: the cutoff row holds only relative to the incumbent.  A row
        conflict goes to ``analyze``, and to ``graph_fallback`` when that is
        abandoned or used the cutoff row; a disjunction conflict goes to
        ``graph_fallback`` directly.
        """
        if self.stats.conflicts_analyzed >= self.config.conflict_limit:
            return None
        kind, idx = source
        if kind == "row" and idx == self.cutoff:
            return None
        conflict = self.rows[idx] if kind == "row" else self.disjunctions[idx]
        self.stats.conflicts_analyzed += 1
        out: Optional[AnalysisResult] = None
        if kind == "row":
            out = analyze(conflict, self.trail, self.config.strategy)
            if out.outcome == "abandoned" or self.cutoff in out.used_row_indices:
                out = None
        if out is None:
            self.stats.fallbacks += 1
            out = graph_fallback(self.trail, conflict)
            if self.cutoff in out.used_row_indices:
                return None
        if self.config.on_analysis is not None:
            self.config.on_analysis(out, self.trail)
        return out

    def _handle_conflict(self, source: Tuple[str, int]) -> bool:
        """Act on a conflict below the root; False when the search is over.

        Unless ``generate`` is set, a learned object is installed, recorded
        and backjumped to, and global infeasibility ends the search.  Every
        other case backtracks chronologically.
        """
        out = self._analyze(source)
        if out is None:
            return self._chronological()
        if self.generate:
            # Phase 1 only records what it learns and does not stop at
            # global infeasibility: its tree stays the same across strategies.
            if out.outcome == "learned":
                self.learned.append(out.learned)
            return self._chronological()
        if out.outcome == "global_infeasibility":
            return False
        self._install(out.learned)
        self.learned.append(out.learned)
        self._backjump(out.backjump_target)
        return True

    # -- backtracking ----------------------------------------------------------

    def _chronological(self) -> bool:
        """Flip the deepest unflipped decision; False when exhausted."""
        while self.dstack:
            entry = self.dstack[-1]
            if entry.flipped:
                self.dstack.pop()
                continue
            self.trail.backjump(StateId(entry.level, -1))
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
        lb = self.trail.local_lb
        value = sum((c * lb[j] for j, c in self.int_obj.items()), ZERO)
        if self.cont:
            res = _leaf_continuous(self.rows, self.trail, self.cont, self.cont_obj)
            if res is None:
                return
            cont_val, assignment = res
            value += cont_val
            witness = tuple(
                int_if_integral(assignment[j]) if j in assignment else lb[j]
                for j in range(len(lb))
            )
        else:
            witness = tuple(lb)
        value = int_if_integral(value)
        if self.incumbent_value is not None and value >= self.incumbent_value:
            return  # repetition guard: ties are never re-accepted
        self.incumbent = witness
        self.incumbent_value = value
        if self.cutoff_terms:
            self._add_cutoff_row(value)

    def _add_cutoff_row(self, value: Rat) -> None:
        """Require -c.x >= delta - value, replacing the previous cutoff row.

        The new row has the old one's terms and a tighter rhs.  Deductions
        already on the trail keep the old row in their ``RowReason``, and
        ``Trail.is_stable`` compares rows by identity, so the replaced row
        is evaluated afresh at the next fixpoint.
        """
        delta = ONE if self.all_integer_obj else ZERO
        row = LinearConstraint(self.cutoff_terms, delta - value, "cutoff")
        if self.cutoff is None:
            self.cutoff = len(self.rows)
            self.rows.append(row)
        else:
            self.rows[self.cutoff] = row

    # -- main loop -----------------------------------------------------------

    def run(self) -> SolveResult:
        has_objective = bool(self.cutoff_terms)
        while True:
            start = len(self.trail.changes)
            fix = propagate_fixpoint(self.trail, self.rows, self.disjunctions)
            self._account_learned_propagation(start)
            if fix.capped:
                self.stats.propagation_capped += 1
            if fix.conflict:
                if self.trail.current_level == 0 or not self._handle_conflict(fix.source):
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

    def _account_learned_propagation(self, start: int) -> None:
        for ch in self.trail.changes[start:]:
            if isinstance(ch.reason, RowReason):
                if ch.reason.index in self.learned_row_idx:
                    self.stats.bdchgs_by_learned += 1
                    self._used_rows.add(ch.reason.index)
            elif isinstance(ch.reason, DisjunctionReason):
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
        linear = sum(isinstance(obj, LinearConstraint) for obj in self.learned)
        self.stats.learned_linear = linear
        self.stats.learned_disjunctions = len(self.learned) - linear
        lengths = []
        for obj in self.learned + list(self.installed):
            if isinstance(obj, LinearConstraint):
                lengths.append(len(obj))
            else:
                lengths.append(len(obj.atoms))
        if lengths:
            self.stats.avg_learned_length = sum(lengths) / len(lengths)
        total_tracked = len(self.learned_row_idx) + len(self.disjunctions)
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
    result1 = _Solver(problem, config, generate=True).run()
    exploit_cfg = replace(config, conflict_limit=0)
    result2 = _Solver(problem, exploit_cfg, installed=result1.learned).run()
    return result1, result2, list(result1.learned)
