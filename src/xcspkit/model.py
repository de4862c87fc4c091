"""Instance data model and ground-truth satisfaction/cost checkers.

Everything here is immutable after construction and safe to share across
threads; the checkers are pure functions. They are deliberately written as
straight transcriptions of constraint semantics, with no cleverness, so
that the propagation engine can be tested against them.

An ``Instance`` is valid by construction: it runs ``validate_instance`` on
itself and raises ``InvariantViolationError`` with the report unless the
report is empty. So the parser, the writer, the search and the checkers
take any ``Instance`` as valid, and check it no more.

``_KINDS`` is the one constraint catalogue: a row per constraint class
holds the attributes that carry its variable ids (in ``_TERMS``, integers
too), its satisfaction check and its well-formedness check.
``constraint_scope``, ``constraint_satisfied`` and ``validate_instance``
read the row, so a class's semantics live in one place; ``io._LAYOUTS``
holds its XML layout and ``engine.propagators._PROPAGATORS`` its
propagator. An entry of those attributes that is no id (nor an integer
where ``_TERMS`` allows one) is refused as ``BadEntry``. An ``Intension`` is
its positional template and its scope, like every positional row's
variable attribute: ``Intension.of`` is the one walk from an expression
(``expr``'s tuple tree) to the two (``expr.scope_and_template``), and
every reader, the checker included, reads the template by position. The
validator is the one check of a template, made once per distinct
template: its operators, their arities and sorts, its nodes, and its
positions, which must be exactly those of a scope of distinct ids.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from . import expr as _expr
from .errors import (
    InvariantViolationError,
    NotAnOptimizationInstanceError,
    ScopeMismatchError,
    UnboundVariableError,
)
from .expr import ID_RE, INT64_MAX, Expr, IntConst, Template, evaluate
from .record import record

#: Wildcard table entry matching any domain value.
STAR = "*"


@record
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


@record
class Variable:
    id: str
    domain: Domain


def _norm_rows(rows):
    """The distinct rows, sorted with ints first and STAR last at each
    position; rows of ints alone sort as themselves."""
    out = list(dict.fromkeys(map(tuple, rows)))
    if any(STAR in row for row in out):
        out.sort(key=lambda row: tuple((1, 0) if v == STAR else (0, v) for v in row))
    else:
        out.sort()
    return tuple(out)


@record
class Table:
    """Tuple table; rows are stored sorted and deduplicated (ints first,
    STAR last at each position) so equal tables compare equal."""

    arity: int
    polarity: str  # "supports" | "conflicts"
    rows: tuple[tuple, ...]

    def __post_init__(self):
        rows = _norm_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        # a table keys the memos of the build and the writer, so it hashes
        # its rows once
        object.__setattr__(self, "_hash", hash((self.arity, self.polarity, rows)))

    def __hash__(self) -> int:
        return self._hash

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


#: the operators of a Condition: the six relations of ``expr.OPS`` and ``in``
CONDITION_OPERATORS = ("lt", "le", "ge", "gt", "eq", "ne", "in")


@record
class Condition:
    operator: str  # one of CONDITION_OPERATORS
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
        return bool(_relation(self.operator)(lhs, rhs))


def _relation(operator: str) -> Callable:
    """The 0/1 function of a relational operator of ``expr.OPS``; KeyError
    for any other operator."""
    spec = _expr.OPS[operator]
    if spec.sort != "rel":
        raise KeyError(operator)
    return spec.apply


#: the operators of ``ordered``, ``lex`` and ``lexMatrix``
_ORDERS = ("lt", "le", "ge", "gt")


@record
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


@record
class Intension:
    """A constraint that an expression holds, kept as its positional
    ``template`` over its ``scope`` (``expr.scope_and_template``). Two
    expressions are equal exactly when their templates and scopes are, so
    equality and hashing keep the expression's meaning. Built directly,
    the two are checked when an ``Instance`` holds them
    (``_intension_violations``)."""

    template: Template
    scope: tuple[str, ...]

    @staticmethod
    def of(expression: Expr) -> "Intension":
        """The intension of an expression: its one walk."""
        scope, template = _expr.scope_and_template(expression)
        return Intension(template, scope)


@record
class Extension:
    scope: tuple[str, ...]
    table: Table


@record
class Regular:
    scope: tuple[str, ...]
    automaton: Automaton


@record
class AllDifferent:
    scope: tuple[str, ...]


@record
class AllDifferentMatrix:
    grid: tuple[tuple[str, ...], ...]


@record
class Ordered:
    scope: tuple[str, ...]
    operator: str  # lt | le | gt | ge


@record
class Lex:
    rows: tuple[tuple[str, ...], ...]
    operator: str


@record
class LexMatrix:
    grid: tuple[tuple[str, ...], ...]
    operator: str


@record
class Sum:
    """Linear (or scalar-product) constraint; coefficients may be integers
    or variable ids."""

    scope: tuple[str, ...]
    coeffs: tuple[Union[int, str], ...]
    condition: Condition


@record
class Count:
    scope: tuple[str, ...]
    values: tuple[int, ...]
    condition: Condition


@record
class Cardinality:
    scope: tuple[str, ...]
    values: tuple[int, ...]
    occurs: tuple[tuple[int, int], ...]  # inclusive (lo, hi) per value
    closed: bool = False


@record
class Element:
    """0-based value-indexed list access: list[index] = value."""

    list_vars: tuple[str, ...]
    index: str
    value: Union[int, str]


@record
class Channel:
    list_a: tuple[str, ...]
    list_b: tuple[str, ...]


@record
class NoOverlap:
    """2-D non-overlap; lengths entries may be variable ids or constants."""

    origins: tuple[tuple[str, str], ...]
    lengths: tuple[tuple[Union[int, str], Union[int, str]], ...]

    @property
    def boxes(self) -> tuple:
        """``((x, y), (w, h))`` per item."""
        return tuple(zip(self.origins, self.lengths))


@record
class Cumulative:
    origins: tuple[str, ...]
    lengths: tuple[int, ...]
    heights: tuple[int, ...]
    limit: int


@record
class Circuit:
    scope: tuple[str, ...]


@record
class Instantiation:
    scope: tuple[str, ...]
    values: tuple[int, ...]


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
]


@record
class Objective:
    sense: str  # "minimize" | "maximize"
    kind: str  # "variable" | "sum" | "maximum"
    scope: tuple[str, ...]
    coeffs: tuple[int, ...] = ()

    @property
    def weights(self) -> tuple[int, ...]:
        """Each variable's weight in the objective's value: its ``coeffs``,
        which only a sum may have, otherwise 1."""
        return self.coeffs or (1,) * len(self.scope)


@record
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


@record
class Instance:
    """A well-formed instance: construction raises
    :class:`InvariantViolationError`, carrying ``validate_instance``'s
    report, unless that report is empty."""

    kind: str  # "CSP" | "COP"
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective: Objective | None = None
    decision_variables: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "decision_variables", tuple(self.decision_variables))
        report = validate_instance(self)
        if report:
            raise InvariantViolationError(report)


# ---------------------------------------------------------------------------
# The catalogue


def _value(v: Union[int, str], a: Assignment) -> int:
    return a[v] if isinstance(v, str) else v


def _distinct(values: list) -> bool:
    return len(set(values)) == len(values)


def _chained(operator: str, items: Sequence) -> bool:
    """True iff ``operator`` holds between each item and the next; lists
    compare lexicographically."""
    rel = _relation(operator)
    return all(rel(x, y) for x, y in zip(items, items[1:]))


def _extension_satisfied(c: Extension, a: Assignment) -> bool:
    if c.table.arity != len(c.scope):
        raise ScopeMismatchError(f"table arity {c.table.arity} != scope length {len(c.scope)}")
    matched = c.table.matches([a[v] for v in c.scope])
    return matched if c.table.polarity == "supports" else not matched


def _cardinality_satisfied(c: Cardinality, a: Assignment) -> bool:
    values = [a[v] for v in c.scope]
    if c.closed and any(v not in c.values for v in values):
        return False
    return all(lo <= values.count(v) <= hi for v, (lo, hi) in zip(c.values, c.occurs))


def _element_satisfied(c: Element, a: Assignment) -> bool:
    i = a[c.index]
    return 0 <= i < len(c.list_vars) and a[c.list_vars[i]] == _value(c.value, a)


def _channel_satisfied(c: Channel, a: Assignment) -> bool:
    va = [a[v] for v in c.list_a]
    vb = [a[v] for v in c.list_b]
    if any(not 0 <= v < len(vb) for v in va) or any(not 0 <= v < len(va) for v in vb):
        return False
    return all(vb[j] == i for i, j in enumerate(va)) and all(va[i] == j for j, i in enumerate(vb))


def _no_overlap_satisfied(c: NoOverlap, a: Assignment) -> bool:
    boxes = [(a[x], a[y], _value(w, a), _value(h, a)) for (x, y), (w, h) in c.boxes]
    for i, (xi, yi, wi, hi) in enumerate(boxes):
        for xj, yj, wj, hj in boxes[i + 1 :]:
            if xi < xj + wj and xj < xi + wi and yi < yj + hj and yj < yi + hi:
                return False
    return True


def _cumulative_satisfied(c: Cumulative, a: Assignment) -> bool:
    starts = [a[v] for v in c.origins]
    events = sorted({t for s, d in zip(starts, c.lengths) for t in (s, s + d)})
    for t in events:
        load = sum(h for s, d, h in zip(starts, c.lengths, c.heights) if s <= t < s + d)
        if load > c.limit:
            return False
    return True


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


def _instantiation_satisfied(c: Instantiation, a: Assignment) -> bool:
    if len(c.scope) != len(c.values):
        raise ScopeMismatchError("instantiation scope/values length mismatch")
    return all(a[v] == val for v, val in zip(c.scope, c.values))


def _unless(ok, code: str, detail: str) -> tuple:
    """The one violation ``(code, detail)``, unless ``ok`` holds."""
    return () if ok else ((code, detail),)


def _order(c) -> tuple:
    return _unless(
        c.operator in _ORDERS, "BadOperator", f"order operator must be one of {', '.join(_ORDERS)}, got {c.operator!r}"
    )


def _ragged(rows, what: str) -> tuple:
    return _unless(len({len(row) for row in rows}) <= 1, "RaggedMatrix", f"{what} rows have differing lengths")


def _condition_violations(cond: Condition):
    if cond.operator not in CONDITION_OPERATORS:
        yield "BadOperator", f"unknown condition operator {cond.operator!r}"
    if isinstance(cond.rhs, tuple):
        if cond.operator != "in":
            yield "BadCondition", "interval rhs only valid with operator 'in'"
        elif cond.rhs[0] > cond.rhs[1]:
            yield "BadBounds", f"interval {cond.rhs} inverted"
    elif cond.operator == "in":
        yield "BadCondition", "operator 'in' requires an interval rhs"


def _sort(t) -> str | None:
    """The sort of a template node: its operator's, ``int`` for a position
    or a constant, None for any other node."""
    if type(t) is tuple:
        return _expr.OPS[t[0]].sort if t and t[0] in _expr.OPS else None
    return "int" if type(t) in (int, IntConst) else None


def _node_violations(t: Template, positions: set):
    """The violations of a template node and of the nodes below it; the
    positions it holds are added to ``positions``."""
    if type(t) is int:
        positions.add(t)
    elif type(t) is tuple and t:
        wrong = _expr.operator_error(t[0], len(t) - 1)
        if wrong:
            yield "BadOperator", wrong
        elif _expr.OPS[t[0]].sort == "logic":
            for child in t[1:]:
                if _sort(child) == "int":
                    yield "NotBoolean", f"{t[0]} requires boolean operands, got an integer one"
        for child in t[1:]:
            yield from _node_violations(child, positions)
    elif not (type(t) is IntConst and type(t.value) is int):
        yield "BadNode", f"{t!r} is no position, IntConst or operator"


def _intension_violations(c: Intension, memo: dict):
    """``memo`` maps ``(Intension, template)`` to the violations of that
    ``Intension.template`` and the count of its positions when they are
    ``0..count-1`` (else -1), so the validating call walks each distinct
    template once. The positions must be exactly ``0..len(scope)-1``, over
    a scope of distinct ids."""
    key = (Intension, c.template)
    if key not in memo:
        positions: set = set()
        root = _unless(_sort(c.template) != "int", "NotBoolean", "intension root must be a relational or logical operator")
        found = [*root, *_node_violations(c.template, positions)]
        memo[key] = found, len(positions) if positions == set(range(len(positions))) else -1
    found, size = memo[key]
    if size == len(c.scope) == len(set(c.scope)):
        return found
    return [*found, ("ScopeMismatch", f"the template's positions are not those of a scope of distinct ids {c.scope}")]


def _extension_violations(c: Extension, memo: dict):
    """``memo`` maps ``id(table)`` to the table's row violations, so the
    validating call walks each distinct table's rows once."""
    table = c.table
    if table.arity != len(c.scope):
        yield "ScopeMismatch", f"table arity {table.arity} != scope length {len(c.scope)}"
    rows = memo.get(id(table))
    if rows is None:
        rows = memo[id(table)] = [
            f"row {row} does not have {table.arity} entries" for row in table.rows if len(row) != table.arity
        ]
    for detail in rows:
        yield "ScopeMismatch", detail
    if table.polarity not in ("supports", "conflicts"):
        yield "BadPolarity", f"unknown polarity {table.polarity!r}"


def _regular_violations(c: Regular, memo: dict):
    automaton = c.automaton
    delta_keys = [(q, s) for q, s, _ in automaton.transitions]
    if len(delta_keys) != len(set(delta_keys)):
        yield "NondeterministicAutomaton", "two transitions share (state, symbol)"
    succ: dict[str, list[str]] = {}
    for q, _, r in automaton.transitions:
        succ.setdefault(q, []).append(r)
    reachable = {automaton.start}
    frontier = [automaton.start]
    while frontier:
        for r in succ.get(frontier.pop(), ()):
            if r not in reachable:
                reachable.add(r)
                frontier.append(r)
    for f in automaton.finals:
        if f not in reachable:
            yield "UnreachableFinal", f"final state {f!r} unreachable from start"


def _cardinality_violations(c: Cardinality, memo: dict):
    if len(c.values) != len(c.occurs):
        yield "LengthMismatch", "values and occurs lengths differ"
    if len(set(c.values)) < len(c.values):
        yield "RepeatedValue", "a value is listed twice"
    for lo, hi in c.occurs:
        if lo > hi:
            yield "BadBounds", f"occurrence bounds {lo}..{hi} inverted"


class _Kind(NamedTuple):
    """One constraint class: the attributes that hold its variable ids, in
    order of first appearance; its satisfaction check ``(c, assignment)``;
    its well-formedness check ``(c, memo)``, which yields ``(code,
    detail)`` pairs (``memo`` is the validating call's memo of the checks
    that constraints share: per table, see ``_extension_violations``, and
    per intension template, see ``_intension_violations``). Each entry of
    ``vars`` is an id, or an integer in one of ``_TERMS`` (``_entries``)."""

    vars: tuple[str, ...]
    satisfied: Callable[..., bool]
    violations: Callable[..., Iterable[tuple[str, str]]]


#: the attributes of ``_Kind.vars`` whose entries may be integers too: a
#: sum's coefficients, a condition's right-hand side, an element's value and
#: a noOverlap's boxes (their lengths)
_TERMS = frozenset({"coeffs", "condition", "value", "boxes"})


#: the constraint catalogue, one row per class
_KINDS = {
    Intension: _Kind(("scope",), lambda c, a: evaluate(c.template, [a[v] for v in c.scope]) != 0, _intension_violations),
    Extension: _Kind(("scope",), _extension_satisfied, _extension_violations),
    Regular: _Kind(("scope",), lambda c, a: c.automaton.accepts([a[v] for v in c.scope]), _regular_violations),
    AllDifferent: _Kind(("scope",), lambda c, a: _distinct([a[v] for v in c.scope]), lambda c, memo: ()),
    AllDifferentMatrix: _Kind(
        ("grid",),
        lambda c, a: all(_distinct([a[v] for v in line]) for line in (*c.grid, *zip(*c.grid))),
        lambda c, memo: _ragged(c.grid, "matrix"),
    ),
    Ordered: _Kind(
        ("scope",), lambda c, a: _chained(c.operator, [a[v] for v in c.scope]), lambda c, memo: _order(c)
    ),
    Lex: _Kind(
        ("rows",),
        lambda c, a: _chained(c.operator, [[a[v] for v in row] for row in c.rows]),
        lambda c, memo: (*_order(c), *_ragged(c.rows, "lex")),
    ),
    LexMatrix: _Kind(
        ("grid",),
        lambda c, a: _chained(c.operator, [[a[v] for v in row] for row in c.grid])
        and _chained(c.operator, [[a[v] for v in col] for col in zip(*c.grid)]),
        lambda c, memo: (*_order(c), *_ragged(c.grid, "matrix")),
    ),
    Sum: _Kind(
        ("scope", "coeffs", "condition"),
        lambda c, a: c.condition.holds(sum(_value(k, a) * a[v] for k, v in zip(c.coeffs, c.scope)), a.bindings),
        lambda c, memo: (
            *_unless(len(c.coeffs) == len(c.scope), "LengthMismatch", "coeffs length differs from scope length"),
            *_condition_violations(c.condition),
        ),
    ),
    Count: _Kind(
        ("scope", "condition"),
        lambda c, a: c.condition.holds(sum(1 for v in c.scope if a[v] in c.values), a.bindings),
        lambda c, memo: _condition_violations(c.condition),
    ),
    Cardinality: _Kind(("scope",), _cardinality_satisfied, _cardinality_violations),
    Element: _Kind(
        ("list_vars", "index", "value"),
        _element_satisfied,
        lambda c, memo: _unless(c.list_vars, "LengthMismatch", "element list is empty"),
    ),
    Channel: _Kind(
        ("list_a", "list_b"),
        _channel_satisfied,
        lambda c, memo: _unless(
            len(c.list_a) == len(c.list_b), "LengthMismatch", "channel lists have differing lengths"
        ),
    ),
    NoOverlap: _Kind(
        ("boxes",),
        _no_overlap_satisfied,
        lambda c, memo: (
            *_unless(len(c.origins) == len(c.lengths), "LengthMismatch", "origins and lengths differ in item count"),
            *_unless(all(isinstance(v, str) for v in _leaves(c.origins)), "BadEntry", "an origins entry is no variable id"),
        ),
    ),
    Cumulative: _Kind(
        ("origins",),
        _cumulative_satisfied,
        lambda c, memo: (
            *_unless(
                len(c.origins) == len(c.lengths) == len(c.heights),
                "LengthMismatch",
                "origins, lengths, heights must have equal lengths",
            ),
            *_unless(all(k >= 0 for k in (*c.lengths, *c.heights)), "BadBounds", "negative task length or height"),
        ),
    ),
    Circuit: _Kind(("scope",), lambda c, a: _circuit_satisfied([a[v] for v in c.scope]), lambda c, memo: ()),
    Instantiation: _Kind(
        ("scope",),
        _instantiation_satisfied,
        lambda c, memo: _unless(len(c.scope) == len(c.values), "LengthMismatch", "scope and values lengths differ"),
    ),
}


def _kind(c) -> _Kind:
    try:
        return _KINDS[type(c)]
    except KeyError:
        raise TypeError(f"unknown constraint {type(c).__name__}") from None


def _leaves(value) -> Sequence:
    """The entries of an attribute that a ``_KINDS`` row names, repeats
    included: the leaves of nested tuples and a condition's rhs. A tuple
    that nests nothing is its own leaves."""
    if isinstance(value, Condition):
        return _leaves(value.rhs)
    if not isinstance(value, tuple):
        return (value,)
    if {tuple, Condition}.isdisjoint(map(type, value)):
        return value
    return [leaf for item in value for leaf in _leaves(item)]


def _entries(c: Constraint, kind: _Kind) -> tuple[dict, list[str]]:
    """The variable ids of ``kind.vars``, in order of first appearance, and
    why each entry there that is no id, nor an int in one of ``_TERMS``, is
    refused."""
    ids: dict = {}
    bad = []
    for name in kind.vars:
        for v in _leaves(getattr(c, name)):
            if isinstance(v, str):
                ids[v] = None
            elif not (name in _TERMS and isinstance(v, int)):
                bad.append(f"{name} entry {v!r} is no variable id{' or integer' if name in _TERMS else ''}")
    return ids, bad


def constraint_scope(c: Constraint) -> tuple[str, ...]:
    """Referenced variable ids, in order of first appearance."""
    return tuple(_entries(c, _kind(c))[0])


def constraint_kind(c: Constraint) -> str:
    """Catalogue name of a constraint: its class name with the first letter
    lowered. io writes ``allDifferentMatrix`` and ``lexMatrix`` as
    ``allDifferent`` and ``lex`` elements."""
    _kind(c)
    name = type(c).__name__
    return name[0].lower() + name[1:]


def constraint_satisfied(c: Constraint, assignment: Assignment) -> bool:
    """Ground-truth satisfaction check under XCSP3-core semantics."""
    return _kind(c).satisfied(c, assignment)


def assignment_cost(instance: Instance, assignment: Assignment) -> int:
    """Objective target value under a total assignment."""
    if instance.kind != "COP":
        raise NotAnOptimizationInstanceError("instance has no objective")
    return objective_value(instance.objective, assignment)


def objective_value(obj: Objective, assignment: Assignment) -> int:
    if obj.kind == "variable":
        return assignment[obj.scope[0]]
    if obj.kind == "sum":
        return sum(k * assignment[v] for k, v in zip(obj.weights, obj.scope))
    if obj.kind == "maximum":
        return max(assignment[v] for v in obj.scope)
    raise NotAnOptimizationInstanceError(f"unknown objective kind {obj.kind!r}")


# ---------------------------------------------------------------------------
# Validation


@record
class Violation:
    """One broken invariant. ``where`` names what breaks it: a variable's
    id for a fault of that variable's declaration; otherwise ``instance``,
    ``objective``, ``annotations`` or ``constraint i``, where ``i`` indexes
    ``Instance.constraints``. The section words are valid ids too, so a
    ``where`` that is a declared id is read as a variable first: the XCSP3
    reader locates it at the element that declares that variable, the
    later of two for ``DuplicateVariable``."""

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
        if not ID_RE.fullmatch(v.id):
            report.append(Violation("BadIdentifier", v.id, "identifier does not match the allowed pattern"))
        if v.id in ids:
            report.append(Violation("DuplicateVariable", v.id, "variable id declared twice"))
        ids.add(v.id)
        vals = v.domain.values
        if not vals:
            report.append(Violation("EmptyDomain", v.id, "domain has no values"))
        if any(x >= y for x, y in zip(vals, vals[1:])):
            report.append(Violation("UnorderedDomain", v.id, "domain values not strictly ascending"))

    memo: dict = {}  # the checks constraints share, see _Kind
    for idx, c in enumerate(instance.constraints):
        where = f"constraint {idx}"
        try:
            kind = _kind(c)
        except TypeError as exc:
            report.append(Violation("UnknownConstraint", where, str(exc)))
            continue
        scope, bad = _entries(c, kind)
        for vid in scope:
            if vid not in ids:
                report.append(Violation("UnknownVariable", where, f"references undeclared variable {vid!r}"))
        # a constraint whose entries are no ids is checked no further
        if bad:
            report.extend(Violation("BadEntry", where, detail) for detail in bad)
        else:
            report.extend(Violation(code, where, detail) for code, detail in kind.violations(c, memo))

    obj = instance.objective
    if instance.kind not in ("CSP", "COP"):
        report.append(Violation("BadKind", "instance", f"kind must be CSP or COP, not {instance.kind!r}"))
    elif (instance.kind == "COP") != (obj is not None):
        report.append(Violation("KindMismatch", "instance", "kind must be COP iff an objective is present"))
    if obj is not None:
        if obj.sense not in ("minimize", "maximize"):
            report.append(Violation("BadObjective", "objective", f"unknown objective sense {obj.sense!r}"))
        if obj.kind not in ("variable", "sum", "maximum"):
            report.append(Violation("BadObjective", "objective", f"unknown objective kind {obj.kind!r}"))
        for vid in obj.scope:
            if vid not in ids:
                report.append(Violation("UnknownVariable", "objective", f"references undeclared variable {vid!r}"))
        if obj.coeffs and obj.kind != "sum":
            report.append(Violation("BadObjective", "objective", f"a {obj.kind!r} objective takes no coeffs"))
        elif obj.coeffs and len(obj.coeffs) != len(obj.scope):
            report.append(Violation("LengthMismatch", "objective", "coeffs length differs from scope length"))
        if obj.kind == "variable" and len(obj.scope) != 1:
            report.append(Violation("LengthMismatch", "objective", "variable objective needs exactly one variable"))
    for vid in instance.decision_variables:
        if vid not in ids:
            report.append(Violation("UnknownVariable", "annotations", f"decision variable {vid!r} not declared"))

    report.extend(_validate_overflow(instance))
    return report


def _validate_overflow(instance: Instance) -> list[Violation]:
    """A ``Sum`` or a sum objective whose value can leave the 64-bit
    range."""
    bound = {v.id: max(abs(v.domain.lb), abs(v.domain.ub)) for v in instance.variables if v.domain.values}

    def overflows(coeffs, scope) -> bool:
        worst = 0
        for k, v in zip(coeffs, scope):
            worst += (bound.get(k, 0) if isinstance(k, str) else abs(k)) * bound.get(v, 0)
        return worst > INT64_MAX

    report = []
    for idx, c in enumerate(instance.constraints):
        if isinstance(c, Sum) and overflows(c.coeffs, c.scope):
            report.append(Violation("BoundOverflow", f"constraint {idx}", "sum can exceed 64-bit range"))
    obj = instance.objective
    if obj is not None and obj.kind == "sum" and overflows(obj.weights, obj.scope):
        report.append(Violation("BoundOverflow", "objective", "sum can exceed 64-bit range"))
    return report
