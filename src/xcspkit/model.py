"""Instance data model and ground-truth satisfaction/cost checkers.

Everything here is immutable after construction and safe to share across
threads; the checkers are pure functions. They are deliberately written as
straight transcriptions of constraint semantics, with no cleverness, so
that the propagation engine can be tested against them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from . import expr as _expr
from .errors import (
    NotAnOptimizationInstanceError,
    ScopeMismatchError,
    UnboundVariableError,
)
from .expr import Expr, evaluate, expr_vars, is_boolean

#: Wildcard table entry matching any domain value.
STAR = "*"

INT64_MAX = 2**63 - 1

_ID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*(\[\d+\])*$")


@dataclass(frozen=True)
class Domain:
    """Ordered finite set of integers."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)

    @property
    def lb(self) -> int:
        return self.values[0]

    @property
    def ub(self) -> int:
        return self.values[-1]

    @staticmethod
    def of(*values: int) -> "Domain":
        return Domain(tuple(sorted(set(values))))

    @staticmethod
    def rng(lo: int, hi: int) -> "Domain":
        """Inclusive integer range lo..hi."""
        return Domain(tuple(range(lo, hi + 1)))


@dataclass(frozen=True)
class Variable:
    id: str
    domain: Domain


def _norm_rows(rows):
    seen = set()
    out = []
    for row in rows:
        t = tuple(row)
        if t not in seen:
            seen.add(t)
            out.append(t)
    out.sort(key=lambda row: tuple((1, 0) if v == STAR else (0, v) for v in row))
    return tuple(out)


@dataclass(frozen=True)
class Table:
    """Tuple table; rows are stored sorted and deduplicated (ints first,
    STAR last at each position) so equal tables compare equal."""

    arity: int
    polarity: str  # "supports" | "conflicts"
    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _norm_rows(self.rows))

    def matches(self, values: Sequence[int]) -> bool:
        """True iff some row matches (STAR matches any value)."""
        for row in self.rows:
            if all(e == STAR or e == v for e, v in zip(row, values)):
                return True
        return False


def supports(arity: int, rows) -> Table:
    return Table(arity, "supports", tuple(rows))


def conflicts(arity: int, rows) -> Table:
    return Table(arity, "conflicts", tuple(rows))


#: rhs of a Condition: a constant, a variable id, or an inclusive interval.
ConditionRhs = Union[int, str, tuple[int, int]]


@dataclass(frozen=True)
class Condition:
    operator: str  # lt | le | ge | gt | eq | ne | in
    rhs: ConditionRhs

    def holds(self, lhs: int, binding: Mapping[str, int]) -> bool:
        rhs = self.rhs
        if isinstance(rhs, str):
            if rhs not in binding:
                raise UnboundVariableError(rhs)
            rhs = binding[rhs]
        if self.operator == "in":
            lo, hi = rhs
            return lo <= lhs <= hi
        return _REL[self.operator](lhs, rhs)


_REL = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}

#: the operators of ``ordered``, ``lex`` and ``lexMatrix``
_ORDERS = ("lt", "le", "ge", "gt")


@dataclass(frozen=True)
class Automaton:
    start: str
    transitions: tuple[tuple[str, int, str], ...]
    finals: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(sorted(set(self.transitions))))
        object.__setattr__(self, "finals", tuple(sorted(set(self.finals))))

    def accepts(self, word: Sequence[int]) -> bool:
        delta = {(q, a): r for q, a, r in self.transitions}
        state = self.start
        for symbol in word:
            nxt = delta.get((state, symbol))
            if nxt is None:
                return False
            state = nxt
        return state in self.finals


# ---------------------------------------------------------------------------
# Constraints


@dataclass(frozen=True)
class Intension:
    expr: Expr


@dataclass(frozen=True)
class Extension:
    scope: tuple[str, ...]
    table: Table


@dataclass(frozen=True)
class Regular:
    scope: tuple[str, ...]
    automaton: Automaton


@dataclass(frozen=True)
class AllDifferent:
    scope: tuple[str, ...]


@dataclass(frozen=True)
class AllDifferentMatrix:
    grid: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Ordered:
    scope: tuple[str, ...]
    operator: str  # lt | le | gt | ge


@dataclass(frozen=True)
class Lex:
    rows: tuple[tuple[str, ...], ...]
    operator: str


@dataclass(frozen=True)
class LexMatrix:
    grid: tuple[tuple[str, ...], ...]
    operator: str


@dataclass(frozen=True)
class Sum:
    """Linear (or scalar-product) constraint; coefficients may be integers
    or variable ids."""

    scope: tuple[str, ...]
    coeffs: tuple[Union[int, str], ...]
    condition: Condition


@dataclass(frozen=True)
class Count:
    scope: tuple[str, ...]
    values: tuple[int, ...]
    condition: Condition


@dataclass(frozen=True)
class Cardinality:
    scope: tuple[str, ...]
    values: tuple[int, ...]
    occurs: tuple[tuple[int, int], ...]  # inclusive (lo, hi) per value
    closed: bool = False


@dataclass(frozen=True)
class Element:
    """0-based value-indexed list access: list[index] = value."""

    list_vars: tuple[str, ...]
    index: str
    value: Union[int, str]


@dataclass(frozen=True)
class Channel:
    list_a: tuple[str, ...]
    list_b: tuple[str, ...]


@dataclass(frozen=True)
class NoOverlap:
    """2-D non-overlap; lengths entries may be variable ids or constants."""

    origins: tuple[tuple[str, str], ...]
    lengths: tuple[tuple[Union[int, str], Union[int, str]], ...]


@dataclass(frozen=True)
class Cumulative:
    origins: tuple[str, ...]
    lengths: tuple[int, ...]
    heights: tuple[int, ...]
    limit: int


@dataclass(frozen=True)
class Circuit:
    scope: tuple[str, ...]


@dataclass(frozen=True)
class Instantiation:
    scope: tuple[str, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class Slide:
    windows: tuple["Constraint", ...]


Constraint = Union[
    Intension,
    Extension,
    Regular,
    AllDifferent,
    AllDifferentMatrix,
    Ordered,
    Lex,
    LexMatrix,
    Sum,
    Count,
    Cardinality,
    Element,
    Channel,
    NoOverlap,
    Cumulative,
    Circuit,
    Instantiation,
    Slide,
]


@dataclass(frozen=True)
class Objective:
    sense: str  # "minimize" | "maximize"
    kind: str  # "variable" | "sum" | "maximum"
    scope: tuple[str, ...]
    coeffs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Assignment:
    bindings: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))

    def __getitem__(self, var_id: str) -> int:
        try:
            return self.bindings[var_id]
        except KeyError:
            raise UnboundVariableError(var_id) from None

    def __contains__(self, var_id: str) -> bool:
        return var_id in self.bindings


@dataclass(frozen=True)
class Instance:
    kind: str  # "CSP" | "COP"
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective: Objective | None = None
    decision_variables: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "decision_variables", tuple(self.decision_variables))


# ---------------------------------------------------------------------------
# Scope extraction


def constraint_scope(c: Constraint) -> tuple[str, ...]:
    """Referenced variable ids, in order of first appearance."""
    out: list[str] = []
    seen: set[str] = set()

    def add(*ids):
        for i in ids:
            if isinstance(i, str) and i not in seen:
                seen.add(i)
                out.append(i)

    if isinstance(c, Intension):
        add(*expr_vars(c.expr))
    elif isinstance(c, (Extension, Regular, AllDifferent, Ordered, Circuit, Instantiation)):
        add(*c.scope)
    elif isinstance(c, (AllDifferentMatrix, LexMatrix)):
        for row in c.grid:
            add(*row)
    elif isinstance(c, Lex):
        for row in c.rows:
            add(*row)
    elif isinstance(c, Sum):
        add(*c.scope)
        add(*(k for k in c.coeffs if isinstance(k, str)))
        if isinstance(c.condition.rhs, str):
            add(c.condition.rhs)
    elif isinstance(c, Count):
        add(*c.scope)
        if isinstance(c.condition.rhs, str):
            add(c.condition.rhs)
    elif isinstance(c, Cardinality):
        add(*c.scope)
    elif isinstance(c, Element):
        add(*c.list_vars)
        add(c.index)
        add(c.value)
    elif isinstance(c, Channel):
        add(*c.list_a)
        add(*c.list_b)
    elif isinstance(c, NoOverlap):
        for (x, y), (w, h) in zip(c.origins, c.lengths):
            add(x, y, w, h)
    elif isinstance(c, Cumulative):
        add(*c.origins)
    elif isinstance(c, Slide):
        for w in c.windows:
            add(*constraint_scope(w))
    else:
        raise TypeError(f"unknown constraint {type(c).__name__}")
    return tuple(out)


def constraint_kind(c: Constraint) -> str:
    """XCSP3 element name of a constraint (``slide`` reported as such)."""
    return {
        Intension: "intension",
        Extension: "extension",
        Regular: "regular",
        AllDifferent: "allDifferent",
        AllDifferentMatrix: "allDifferentMatrix",
        Ordered: "ordered",
        Lex: "lex",
        LexMatrix: "lexMatrix",
        Sum: "sum",
        Count: "count",
        Cardinality: "cardinality",
        Element: "element",
        Channel: "channel",
        NoOverlap: "noOverlap",
        Cumulative: "cumulative",
        Circuit: "circuit",
        Instantiation: "instantiation",
        Slide: "slide",
    }[type(c)]


# ---------------------------------------------------------------------------
# Checkers


def evaluate_expr(expr: Expr, assignment: Assignment) -> int:
    """Evaluate an expression tree; booleans come back as 1/0."""
    return evaluate(expr, assignment.bindings)


def _value(v: Union[int, str], a: Assignment) -> int:
    return a[v] if isinstance(v, str) else v


def _chained(operator: str, items: Sequence) -> bool:
    """True iff ``operator`` holds between each item and the next; lists
    compare lexicographically."""
    rel = _REL[operator]
    return all(rel(x, y) for x, y in zip(items, items[1:]))


def constraint_satisfied(c: Constraint, assignment: Assignment) -> bool:
    """Ground-truth satisfaction check under XCSP3-core semantics."""
    a = assignment
    if isinstance(c, Intension):
        return evaluate_expr(c.expr, a) != 0

    if isinstance(c, Extension):
        if c.table.arity != len(c.scope):
            raise ScopeMismatchError(f"table arity {c.table.arity} != scope length {len(c.scope)}")
        values = [a[v] for v in c.scope]
        matched = c.table.matches(values)
        return matched if c.table.polarity == "supports" else not matched

    if isinstance(c, Regular):
        return c.automaton.accepts([a[v] for v in c.scope])

    if isinstance(c, AllDifferent):
        values = [a[v] for v in c.scope]
        return len(set(values)) == len(values)

    if isinstance(c, AllDifferentMatrix):
        for row in c.grid:
            vals = [a[v] for v in row]
            if len(set(vals)) != len(vals):
                return False
        for col in zip(*c.grid):
            vals = [a[v] for v in col]
            if len(set(vals)) != len(vals):
                return False
        return True

    if isinstance(c, Ordered):
        return _chained(c.operator, [a[v] for v in c.scope])

    if isinstance(c, Lex):
        return _chained(c.operator, [[a[v] for v in row] for row in c.rows])

    if isinstance(c, LexMatrix):
        rows = [[a[v] for v in row] for row in c.grid]
        cols = [[a[v] for v in col] for col in zip(*c.grid)]
        return _chained(c.operator, rows) and _chained(c.operator, cols)

    if isinstance(c, Sum):
        total = sum(_value(k, a) * a[v] for k, v in zip(c.coeffs, c.scope))
        return c.condition.holds(total, a.bindings)

    if isinstance(c, Count):
        n = sum(1 for v in c.scope if a[v] in c.values)
        return c.condition.holds(n, a.bindings)

    if isinstance(c, Cardinality):
        values = [a[v] for v in c.scope]
        if c.closed and any(v not in c.values for v in values):
            return False
        for v, (lo, hi) in zip(c.values, c.occurs):
            if not lo <= values.count(v) <= hi:
                return False
        return True

    if isinstance(c, Element):
        i = a[c.index]
        if not 0 <= i < len(c.list_vars):
            return False
        return a[c.list_vars[i]] == _value(c.value, a)

    if isinstance(c, Channel):
        va = [a[v] for v in c.list_a]
        vb = [a[v] for v in c.list_b]
        if any(not 0 <= v < len(vb) for v in va) or any(not 0 <= v < len(va) for v in vb):
            return False
        for i, j in enumerate(va):
            if vb[j] != i:
                return False
        for j, i in enumerate(vb):
            if va[i] != j:
                return False
        return True

    if isinstance(c, NoOverlap):
        boxes = []
        for (x, y), (w, h) in zip(c.origins, c.lengths):
            boxes.append((a[x], a[y], _value(w, a), _value(h, a)))
        for i in range(len(boxes)):
            xi, yi, wi, hi = boxes[i]
            for j in range(i + 1, len(boxes)):
                xj, yj, wj, hj = boxes[j]
                if xi < xj + wj and xj < xi + wi and yi < yj + hj and yj < yi + hi:
                    return False
        return True

    if isinstance(c, Cumulative):
        starts = [a[v] for v in c.origins]
        events = sorted({t for s, d in zip(starts, c.lengths) for t in (s, s + d)})
        for t in events:
            load = sum(h for s, d, h in zip(starts, c.lengths, c.heights) if s <= t < s + d)
            if load > c.limit:
                return False
        return True

    if isinstance(c, Circuit):
        return _circuit_satisfied([a[v] for v in c.scope])

    if isinstance(c, Instantiation):
        if len(c.scope) != len(c.values):
            raise ScopeMismatchError("instantiation scope/values length mismatch")
        return all(a[v] == val for v, val in zip(c.scope, c.values))

    if isinstance(c, Slide):
        return all(constraint_satisfied(w, a) for w in c.windows)

    raise TypeError(f"unknown constraint {type(c).__name__}")


def _circuit_satisfied(succ: list[int]) -> bool:
    """Self-looping positions are off the route; the rest must form exactly
    one cycle of length >= 2."""
    n = len(succ)
    if any(not 0 <= s < n for s in succ):
        return False
    route = [i for i in range(n) if succ[i] != i]
    if len(route) < 2:
        return False
    start = route[0]
    seen = set()
    node = start
    for _ in range(len(route)):
        if node in seen or succ[node] == node:
            return False
        seen.add(node)
        node = succ[node]
    return node == start and seen == set(route)


def assignment_cost(instance: Instance, assignment: Assignment) -> int:
    """Objective target value under a total assignment."""
    if instance.kind != "COP" or instance.objective is None:
        raise NotAnOptimizationInstanceError("instance has no objective")
    return objective_value(instance.objective, assignment)


def objective_value(obj: Objective, assignment: Assignment) -> int:
    if obj.kind == "variable":
        return assignment[obj.scope[0]]
    if obj.kind == "sum":
        coeffs = obj.coeffs if obj.coeffs else (1,) * len(obj.scope)
        return sum(k * assignment[v] for k, v in zip(coeffs, obj.scope))
    if obj.kind == "maximum":
        return max(assignment[v] for v in obj.scope)
    raise NotAnOptimizationInstanceError(f"unknown objective kind {obj.kind!r}")


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.detail}"


def validate_instance(instance: Instance) -> list[Violation]:
    """Check every structural invariant; an empty report means valid."""
    report: list[Violation] = []
    ids: set[str] = set()
    for v in instance.variables:
        if not _ID_RE.match(v.id):
            report.append(Violation("BadIdentifier", v.id, "identifier does not match the allowed pattern"))
        if v.id in ids:
            report.append(Violation("DuplicateVariable", v.id, "variable id declared twice"))
        ids.add(v.id)
        vals = v.domain.values
        if not vals:
            report.append(Violation("EmptyDomain", v.id, "domain has no values"))
        if any(x >= y for x, y in zip(vals, vals[1:])):
            report.append(Violation("UnorderedDomain", v.id, "domain values not strictly ascending"))

    for idx, c in enumerate(instance.constraints):
        where = f"constraint {idx}"
        try:
            scope = constraint_scope(c)
        except TypeError as exc:
            report.append(Violation("UnknownConstraint", where, str(exc)))
            continue
        for vid in scope:
            if vid not in ids:
                report.append(Violation("UnknownVariable", where, f"references undeclared variable {vid!r}"))
        report.extend(_validate_constraint(c, where, instance))

    obj = instance.objective
    if (instance.kind == "COP") != (obj is not None):
        report.append(Violation("KindMismatch", "instance", "kind must be COP iff an objective is present"))
    if obj is not None:
        for vid in obj.scope:
            if vid not in ids:
                report.append(Violation("UnknownVariable", "objective", f"references undeclared variable {vid!r}"))
        if obj.kind == "sum" and obj.coeffs and len(obj.coeffs) != len(obj.scope):
            report.append(Violation("LengthMismatch", "objective", "coeffs length differs from scope length"))
        if obj.kind == "variable" and len(obj.scope) != 1:
            report.append(Violation("LengthMismatch", "objective", "variable objective needs exactly one variable"))
    for vid in instance.decision_variables:
        if vid not in ids:
            report.append(Violation("UnknownVariable", "annotations", f"decision variable {vid!r} not declared"))

    report.extend(_validate_overflow(instance))
    return report


def _validate_constraint(c: Constraint, where: str, instance: Instance) -> list[Violation]:
    report: list[Violation] = []

    def bad(code, detail):
        report.append(Violation(code, where, detail))

    if isinstance(c, (Ordered, Lex, LexMatrix)) and c.operator not in _ORDERS:
        bad("BadOperator", f"order operator must be one of {', '.join(_ORDERS)}, got {c.operator!r}")
    if isinstance(c, Intension):
        if not is_boolean(c.expr):
            bad("NotBoolean", "intension root must be a relational or logical operator")
        _validate_expr_kinds(c.expr, where, report)
    elif isinstance(c, Extension):
        if c.table.arity != len(c.scope):
            bad("ScopeMismatch", f"table arity {c.table.arity} != scope length {len(c.scope)}")
        for row in c.table.rows:
            if len(row) != c.table.arity:
                bad("ScopeMismatch", f"row {row} does not have {c.table.arity} entries")
        if c.table.polarity not in ("supports", "conflicts"):
            bad("BadPolarity", f"unknown polarity {c.table.polarity!r}")
    elif isinstance(c, Regular):
        delta_keys = [(q, s) for q, s, _ in c.automaton.transitions]
        if len(delta_keys) != len(set(delta_keys)):
            bad("NondeterministicAutomaton", "two transitions share (state, symbol)")
        reachable = {c.automaton.start}
        frontier = [c.automaton.start]
        succ: dict[str, list[str]] = {}
        for q, _, r in c.automaton.transitions:
            succ.setdefault(q, []).append(r)
        while frontier:
            q = frontier.pop()
            for r in succ.get(q, ()):
                if r not in reachable:
                    reachable.add(r)
                    frontier.append(r)
        for f in c.automaton.finals:
            if f not in reachable:
                bad("UnreachableFinal", f"final state {f!r} unreachable from start")
    elif isinstance(c, (AllDifferentMatrix, LexMatrix)):
        widths = {len(row) for row in c.grid}
        if len(widths) > 1:
            bad("RaggedMatrix", "matrix rows have differing lengths")
    elif isinstance(c, Lex):
        widths = {len(row) for row in c.rows}
        if len(widths) > 1:
            bad("RaggedMatrix", "lex rows have differing lengths")
    elif isinstance(c, Sum):
        if len(c.coeffs) != len(c.scope):
            bad("LengthMismatch", "coeffs length differs from scope length")
        report.extend(_validate_condition(c.condition, where))
    elif isinstance(c, Count):
        report.extend(_validate_condition(c.condition, where))
    elif isinstance(c, Cardinality):
        if len(c.values) != len(c.occurs):
            bad("LengthMismatch", "values and occurs lengths differ")
        for lo, hi in c.occurs:
            if lo > hi:
                bad("BadBounds", f"occurrence bounds {lo}..{hi} inverted")
    elif isinstance(c, Element):
        if not c.list_vars:
            bad("LengthMismatch", "element list is empty")
    elif isinstance(c, Channel):
        if len(c.list_a) != len(c.list_b):
            bad("LengthMismatch", "channel lists have differing lengths")
    elif isinstance(c, NoOverlap):
        if len(c.origins) != len(c.lengths):
            bad("LengthMismatch", "origins and lengths differ in item count")
    elif isinstance(c, Cumulative):
        if not len(c.origins) == len(c.lengths) == len(c.heights):
            bad("LengthMismatch", "origins, lengths, heights must have equal lengths")
        if any(d < 0 for d in c.lengths) or any(h < 0 for h in c.heights):
            bad("BadBounds", "negative task length or height")
    elif isinstance(c, Instantiation):
        if len(c.scope) != len(c.values):
            bad("LengthMismatch", "scope and values lengths differ")
    elif isinstance(c, Slide):
        for w in c.windows:
            report.extend(_validate_constraint(w, where, instance))
    return report


def _validate_condition(cond: Condition, where: str) -> list[Violation]:
    report = []
    if cond.operator not in ("lt", "le", "ge", "gt", "eq", "ne", "in"):
        report.append(Violation("BadOperator", where, f"unknown condition operator {cond.operator!r}"))
    if isinstance(cond.rhs, tuple):
        if cond.operator != "in":
            report.append(Violation("BadCondition", where, "interval rhs only valid with operator 'in'"))
        elif cond.rhs[0] > cond.rhs[1]:
            report.append(Violation("BadBounds", where, f"interval {cond.rhs} inverted"))
    elif cond.operator == "in":
        report.append(Violation("BadCondition", where, "operator 'in' requires an interval rhs"))
    return report


def _validate_expr_kinds(e: Expr, where: str, report: list[Violation]) -> None:
    if not isinstance(e, _expr.Op):
        return
    if _expr.OPS[e.kind].sort == "logic":
        for child in e.children:
            if not is_boolean(child):
                report.append(
                    Violation("NotBoolean", where, f"{e.kind} requires boolean operands, got {type(child).__name__}")
                )
    for child in e.children:
        _validate_expr_kinds(child, where, report)


def _validate_overflow(instance: Instance) -> list[Violation]:
    report = []
    bound = {}
    for v in instance.variables:
        if v.domain.values:
            bound[v.id] = max(abs(v.domain.lb), abs(v.domain.ub))
    for idx, c in enumerate(instance.constraints):
        if isinstance(c, Sum):
            worst = 0
            for k, v in zip(c.coeffs, c.scope):
                kmax = bound.get(k, 0) if isinstance(k, str) else abs(k)
                worst += kmax * bound.get(v, 0)
            if worst > INT64_MAX:
                report.append(Violation("BoundOverflow", f"constraint {idx}", "sum can exceed 64-bit range"))
    obj = instance.objective
    if obj is not None and obj.kind == "sum":
        coeffs = obj.coeffs if obj.coeffs else (1,) * len(obj.scope)
        worst = sum(abs(k) * bound.get(v, 0) for k, v in zip(coeffs, obj.scope))
        if worst > INT64_MAX:
            report.append(Violation("BoundOverflow", "objective", "sum can exceed 64-bit range"))
    return report
