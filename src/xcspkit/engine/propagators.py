"""Per-constraint propagators.

Every propagator removes only values it proves locally inconsistent, and
its pass fails on a full assignment of its scope exactly when the
constraint does not hold there, so search verdicts are exact without the
model's checker.

Every propagator class is built as ``cls(constraint, key, store)`` from the
one model constraint it enforces and keeps that constraint; ``key`` is the
index of the instance constraint it came from. ``make_propagators`` splits
composite constraints into such primitives and looks each one's class up
in ``_PROPAGATORS``. A propagator watches the constraint's distinct
variables (``model.constraint_scope``), except for a class whose only
variable attribute is ``scope`` (its ``model._KINDS`` row): that propagator
watches ``constraint.scope`` exactly as given, repeats included, because it
reads the scope position by position.

A relation fixes its pass when it is built. A supports table, a
conflicts table over at most ``_COMPLEMENT_CAP`` tuples and an intension
with at most ``_TABLE_CAP`` rows, at any arity, are compact tables: every
call is ``_ct_filter`` over read-only support masks. One memo per
``make_propagators`` call, handed to the two relation builders (the only
ones that take a fourth argument), shares the masks of equal relations:
an extension keys it by (table, initial domains, the scope's repeat
pattern), a tabled intension by (positional template, initial domains).
A larger conflicts table gets ``_residual``, the residual-support pass
over a predicate on tuples, and so does a larger intension while its live
product is at most ``_SCAN_CAP``. Above that, a larger intension that
compares two linear sides, and whose sum stays in the 64-bit range, is
pruned as the primitive it is, by the bounds pass of its equivalent
``Sum`` (XCSP3-core, Boussemart et al., arXiv:2009.00514); any other one
is filtered value by value through a bounds closure.

Two build-time declarations let the engine skip calls that cannot prune
(``search.PropagationEngine``). A propagator is ``idempotent`` when a
second call on the domains its call left prunes nothing, so a call queued
only by its own prunes is skipped (Schulte and Stuckey, "Efficient
constraint propagation engines", TOPLAS 2008). ``TableProp`` is, and so
are an ``IntensionProp`` whose every call is a GAC pass and an
``ElementProp`` whose index and value variables are distinct and not
cells (see each class). An idempotent propagator may also declare a
``value_watch``: per variable, the value bits whose removal can let it
prune, so the removal of other values leaves its last call's result a
fixpoint (Gent, Jefferson and Miguel, "Watched literals for constraint
propagation in Minion", CP 2006).
Only a constant-result ``ElementProp`` declares one. The engine keeps one
rule for every watch, a (propagator, bits) pair per watched variable whose
bits are the value watch, or -1 (every bit) for a variable the value watch
does not name and for every variable of every other propagator: a removal
wakes the propagator only when it meets those bits. The engine
queues a propagator on every removal from a variable it watches, usable or
not, and skips the call at dequeue, so the queue order, and with it the
search, is that of an engine that makes every call."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right

from .. import expr as _x
from ..model import (
    AllDifferent,
    AllDifferentMatrix,
    Cardinality,
    Channel,
    Circuit,
    Condition,
    Count,
    Cumulative,
    Element,
    Extension,
    Instantiation,
    Intension,
    Lex,
    LexMatrix,
    NoOverlap,
    Ordered,
    Regular,
    Slide,
    STAR,
    Sum,
    _KINDS,
    constraint_scope,
)
from .domains import DomainStore

# an unbounded side of a target or a restriction: beyond any value and any
# sum whose terms' magnitudes add up to at most INT64_MAX, the bound that
# model._validate_overflow keeps on a Sum and _within_int64 on one built
# from an intension
INF = 2**256

# conflicts tables are complemented into supports up to this tuple count
_COMPLEMENT_CAP = 100_000
# exact support scan for intension constraints up to this domain product
_SCAN_CAP = 2048
# an intension's relation is a compact table up to this row count
_TABLE_CAP = 8192


class Propagator:
    __slots__ = ("constraint", "scope", "key", "idempotent", "value_watch")

    def __init__(self, constraint, key: int, store: DomainStore):
        self.constraint = constraint
        positional = _KINDS[type(constraint)].vars == ("scope",)
        self.scope = store.indices(constraint.scope if positional else constraint_scope(constraint))
        self.key = key
        # fixed at build; see the module docstring
        self.idempotent = False
        self.value_watch: dict[int, int] | None = None

    def propagate(self, store: DomainStore) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Extension


def _ct_filter(store: DomainStore, scope, supports) -> bool:
    """One compact-table pass: intersect per-value row masks, prune values
    with no surviving row."""
    valid = -1
    masks = store.masks
    for i, x in enumerate(scope):
        mask = masks[x]
        per_value = supports[i]
        union = 0
        while mask:
            low = mask & -mask
            union |= per_value[low.bit_length() - 1]
            mask ^= low
        valid &= union
        if not valid:
            return False
    for i, x in enumerate(scope):
        mask = masks[x]
        per_value = supports[i]
        dead = 0
        while mask:
            low = mask & -mask
            if not per_value[low.bit_length() - 1] & valid:
                dead |= low
            mask ^= low
        if dead and not store.remove_bits(x, dead):
            return False
    return True


def _support_masks(store: DomainStore, scope, rows):
    """Per-position, per-value-bit row masks (rows outside the initial
    domains are dropped; STAR supports every value)."""
    kept = []
    for row in rows:
        for x, entry in zip(scope, row):
            if entry != STAR and entry not in store.pos[x]:
                break
        else:
            kept.append(row)
    supports: list[list[int]] = []
    for i, x in enumerate(scope):
        per_value = [0] * len(store.init_values[x])
        for r, row in enumerate(kept):
            entry = row[i]
            if entry == STAR:
                for bit in range(len(per_value)):
                    per_value[bit] |= 1 << r
            else:
                per_value[store.pos[x][entry]] |= 1 << r
        supports.append(per_value)
    return supports


def _residual(store: DomainStore, scope, allowed, residues) -> bool:
    """One residual-support pass (Lecoutre & Hemery, IJCAI 2007): keep the
    values of each position that have a support in the domains at the start
    of the call, narrowing in scope order; False when a position has none.
    ``allowed`` tells whether a tuple of values is in the relation.
    ``residues`` keeps, per (position, value bit), the last support found.
    A residue is not trailed: one whose values are still live is a support,
    a stale one is re-sought."""
    live = [store.masks[x] for x in scope]
    domains = [store.domain_list(x) for x in scope]
    keep = [0] * len(scope)
    for i, x in enumerate(scope):
        seek = list(domains)
        todo = live[i] & ~keep[i]
        while todo:
            low = todo & -todo
            todo ^= low
            bit = low.bit_length() - 1
            res = residues[i][bit]
            if res is None or any(not m >> b & 1 for m, b in zip(live, res)):
                seek[i] = (store.init_values[x][bit],)
                for combo in itertools.product(*seek):
                    if allowed(combo):
                        break
                else:
                    continue
                res = tuple(store.pos[y][v] for y, v in zip(scope, combo))
                for j, b in enumerate(res):
                    residues[j][b] = res
            for j, b in enumerate(res):
                keep[j] |= 1 << b
        if not keep[i]:
            return False
    return all(store.keep_bits(x, bits) for x, bits in zip(scope, keep))


def _matching_none(rows):
    """Whether a tuple of values matches none of the rows: the rows without
    STAR are looked up in a set, the rows with one are matched one by one."""
    plain = {row for row in rows if STAR not in row}
    starred = [row for row in rows if STAR in row]

    def allowed(combo) -> bool:
        return combo not in plain and not any(
            all(e == STAR or e == v for e, v in zip(row, combo)) for row in starred
        )

    return allowed


def _one_value_per_variable(rows, first):
    """The rows that give each variable of the scope one value, where
    position i's variable first appears at position ``first[i]``; a STAR
    takes the value that another position of its variable has."""
    for row in rows:
        value = {}
        for f, e in zip(first, row):
            if e != STAR and value.setdefault(f, e) != e:
                break
        else:
            yield tuple(value.get(f, STAR) for f in first)


class TableProp(Propagator):
    """GAC over a table, its pass fixed at build. A supports table, and a
    conflicts table over at most ``_COMPLEMENT_CAP`` tuples complemented
    into supports over the initial domains, get the compact-table pass
    (stateless: the valid row set is rebuilt from current domains on every
    call); the masks come from, or go into, the build call's memo
    ``masks``, keyed by the table, the initial domains and the scope's
    repeat pattern. A larger conflicts table gets the residual pass.

    A scope may repeat a variable: only the rows and tuples that give it
    one value count, so the pass is GAC over the scope's variables. Either
    pass is idempotent: every value it keeps has a support whose values it
    keeps too."""

    __slots__ = ("supports", "allowed", "residues")

    def __init__(self, c: Extension, key, store: DomainStore, masks: dict):
        super().__init__(c, key, store)
        self.idempotent = True
        table, scope = c.table, self.scope
        domains = tuple(store.init_values[x] for x in scope)
        first = tuple(map(scope.index, scope))
        repeats = first != tuple(range(len(scope)))
        self.supports = masks.get((table, domains, first))
        self.allowed = self.residues = None
        if self.supports is not None:
            return
        rows = table.rows
        if table.polarity == "conflicts":
            allowed = _matching_none(rows)
            if math.prod(map(len, domains)) > _COMPLEMENT_CAP:
                if repeats:
                    matching_none = allowed

                    def allowed(combo) -> bool:
                        return all(combo[f] == v for f, v in zip(first, combo)) and matching_none(combo)

                self.allowed, self.residues = allowed, [[None] * len(d) for d in domains]
                return
            rows = filter(allowed, itertools.product(*domains))
        if repeats:
            rows = _one_value_per_variable(rows, first)
        self.supports = masks[table, domains, first] = _support_masks(store, scope, rows)

    def propagate(self, store: DomainStore) -> bool:
        if self.supports is not None:
            return _ct_filter(store, self.scope, self.supports)
        return _residual(store, self.scope, self.allowed, self.residues)


# ---------------------------------------------------------------------------
# Intension


def _template(expression, position):
    """The expression with each variable replaced by its scope position; a
    constant stays an ``IntConst``, so it never equals a position."""
    if isinstance(expression, _x.Op):
        return (expression.kind, *(_template(e, position) for e in expression.children))
    return position[expression.var_id] if isinstance(expression, _x.VarRef) else expression


def _defined_variable(expression):
    """``(z, e)`` when the expression is ``eq(z, e)`` or ``eq(e, z)`` for a
    variable ``z`` that ``e`` does not mention, else None."""
    if isinstance(expression, _x.Op) and expression.kind == "eq":
        for z, e in (expression.children, expression.children[::-1]):
            if isinstance(z, _x.VarRef) and z.var_id not in set(_x.expr_vars(e)):
                return z.var_id, e
    return None


class IntensionProp(Propagator):
    """An intension's pass is fixed at build. A relation with at most
    ``_TABLE_CAP`` rows over the initial domains, at any arity, is a
    compact table on every call, so it is idempotent: ``eq(z, e)`` (or
    ``eq(e, z)``) with ``z`` not in ``e`` enumerates the other positions
    only and computes ``z``, any other expression the full product. Its
    masks are shared through the build call's memo ``masks`` under its
    positional template (the expression with each variable replaced by its
    scope position) and initial domains; they are read-only, so nothing is
    trailed.

    Any other intension gets the residual GAC pass while its live product
    is at most ``_SCAN_CAP``. Beyond that, a linear one (``_linear_sum``)
    whose sum stays in the 64-bit range (``_within_int64``) runs the bounds
    pass of its equivalent ``Sum``, whose ``SumProp`` is built once, and
    any other one interval filtering through a bounds closure compiled once
    (``expr.compile_expr``). Neither is idempotent."""

    __slots__ = ("fn", "bounds_fn", "linear", "supports", "constant", "residues")

    def __init__(self, c: Intension, key, store: DomainStore, masks: dict):
        super().__init__(c, key, store)
        scope = self.scope
        position = {store.names[x]: i for i, x in enumerate(scope)}
        self.fn = _x.compile_expr(c.expr, position, bounds=False)
        # an expression without variables is a constant verdict
        self.constant = bool(self.fn(())) if not scope else None
        self.supports = self.residues = self.bounds_fn = self.linear = None
        domains = tuple(store.init_values[x] for x in scope)
        if scope:
            defined = _defined_variable(c.expr)
            if defined is None:
                rest, rows = domains, filter(self.fn, itertools.product(*domains))
            else:
                t = position[defined[0]]
                rest = domains[:t] + domains[t + 1 :]
                f = _x.compile_expr(defined[1], {v: i - (i > t) for v, i in position.items() if i != t}, bounds=False)
                rows = (r[:t] + (f(r),) + r[t:] for r in itertools.product(*rest))
            # the rows are enumerated only when the memo lacks the relation
            if math.prod(map(len, rest)) <= _TABLE_CAP:
                relation = (_template(c.expr, position), domains)
                if relation not in masks:
                    masks[relation] = _support_masks(store, scope, rows)
                self.supports = masks[relation]
            else:
                self.residues = [[None] * len(d) for d in domains]
                # always true while _TABLE_CAP >= _SCAN_CAP; with a lower
                # table cap, it keeps a relation that never leaves the
                # residual pass idempotent
                if math.prod(map(len, domains)) > _SCAN_CAP:
                    linear = _linear_sum(c.expr)
                    if linear is not None and _within_int64(linear, store):
                        self.linear = SumProp(linear, key, store)
                    else:
                        self.bounds_fn = _x.compile_expr(c.expr, position, bounds=True)
        self.idempotent = self.bounds_fn is None and self.linear is None

    def propagate(self, store: DomainStore) -> bool:
        if self.constant is not None:
            return self.constant
        if self.supports is not None:
            return _ct_filter(store, self.scope, self.supports)
        scope = self.scope
        if math.prod(map(store.size, scope)) <= _SCAN_CAP:
            return _residual(store, scope, self.fn, self.residues)
        if self.linear is not None:
            return self.linear.bounds_pass(store)
        return self._interval_filter(store)

    def _interval_filter(self, store: DomainStore) -> bool:
        """Remove each value whose fixing bounds the expression to false,
        the other positions at their current bounds."""
        f = self.bounds_fn
        bounds = [store.bounds(x) for x in self.scope]
        for i, x in enumerate(self.scope):
            for v in store.domain_list(x):
                bounds[i] = (v, v)
                if f(bounds)[1] == 0 and not store.remove_value(x, v):
                    return False
            bounds[i] = store.bounds(x)
        return True


def _linear(expression):
    """``(coefficients, constant)`` of an integer expression made of
    variables, constants, ``add``, ``sub``, ``neg`` and ``mul`` with at most
    one operand that is not constant: per variable, its coefficient summed
    over its occurrences; None for any other expression."""
    if isinstance(expression, _x.IntConst):
        return {}, expression.value
    if isinstance(expression, _x.VarRef):
        return {expression.var_id: 1}, 0
    if expression.kind not in ("add", "sub", "neg", "mul"):
        return None
    parts = [_linear(e) for e in expression.children]
    if None in parts:
        return None
    if expression.kind == "add":
        return _added(parts)
    if expression.kind == "sub":
        return _added([parts[0], _scaled(parts[1], -1)])
    if expression.kind == "neg":
        return _scaled(parts[0], -1)
    varying = [part for part in parts if part[0]]
    if len(varying) > 1:
        return None
    return _scaled(varying[0] if varying else ({}, 1), math.prod(k for coeffs, k in parts if not coeffs))


def _added(parts):
    coefficients, constant = {}, 0
    for coeffs, k in parts:
        for v, a in coeffs.items():
            coefficients[v] = coefficients.get(v, 0) + a
        constant += k
    return coefficients, constant


def _scaled(part, factor):
    coeffs, k = part
    return {v: factor * a for v, a in coeffs.items()}, factor * k


def _linear_sum(expression) -> Sum | None:
    """The ``Sum`` equivalent to a comparison of two linear sides
    (``_linear``): one term per variable with a coefficient other than 0,
    the constants moved to the right-hand side; None for any other
    expression. One term per variable, not per occurrence, keeps the pass
    at least as strong as interval filtering when a variable repeats:
    ``eq(add(x, x), 1)`` is ``2x = 1``, which no integer satisfies."""
    if not (isinstance(expression, _x.Op) and expression.kind in ("eq", "ne", "lt", "le", "gt", "ge")):
        return None
    left, right = (_linear(e) for e in expression.children)
    if left is None or right is None:
        return None
    coeffs, k = _added([left, _scaled(right, -1)])
    scope = tuple(v for v, a in coeffs.items() if a)
    return Sum(scope, tuple(coeffs[v] for v in scope), Condition(expression.kind, -k))


def _within_int64(c: Sum, store: DomainStore) -> bool:
    """Whether the sum of ``|a| * max |v|`` over the terms of ``c``, plus
    ``|k|`` of its right-hand side, is at most ``INT64_MAX`` over the
    initial domains: the bound ``model._validate_overflow`` holds an
    instance's ``Sum`` to, under which ``INF`` exceeds every sum the pass
    forms. ``mul`` folds any number of 64-bit constants into one
    coefficient, so a ``Sum`` built from an intension may exceed it."""
    worst = abs(c.condition.rhs)
    for a, x in zip(c.coeffs, store.indices(c.scope)):
        values = store.init_values[x]
        if values:
            worst += abs(a) * max(-values[0], values[-1])
    return worst <= _x.INT64_MAX


# ---------------------------------------------------------------------------
# Linear / counting


def _condition_targets(cond: Condition, store: DomainStore, rhs_idx: int | None):
    """Return (lo, hi) target interval, or ('ne', k) for disequalities."""
    op = cond.operator
    if isinstance(cond.rhs, tuple):
        return cond.rhs
    if rhs_idx is not None:
        rlo, rhi = store.bounds(rhs_idx)
    else:
        rlo = rhi = cond.rhs
    if op == "eq":
        return rlo, rhi
    if op == "le":
        return -INF, rhi
    if op == "lt":
        return -INF, rhi - 1
    if op == "ge":
        return rlo, INF
    if op == "gt":
        return rlo + 1, INF
    return None  # ne handled by callers


class SumProp(Propagator):
    """Bounds filtering for linear forms; variable coefficients are handled
    through product intervals. A variable right-hand side is folded in as
    a ``-1`` term compared with 0, so the target interval ``(tlo, thi)``
    depends on the constraint only and is fixed at build (None for
    ``ne``)."""

    __slots__ = ("terms", "rhs_idx", "target")

    def __init__(self, c: Sum, key, store: DomainStore):
        super().__init__(c, key, store)
        cond = c.condition
        self.rhs_idx = store.index[cond.rhs] if isinstance(cond.rhs, str) else None
        # terms: (coeff int | ('v', idx), var idx)
        self.terms = [
            (k if isinstance(k, int) else ("v", store.index[k]), x)
            for k, x in zip(c.coeffs, store.indices(c.scope))
        ]
        if self.rhs_idx is not None:
            self.terms.append((-1, self.rhs_idx))
            cond = Condition(cond.operator, 0)
        self.target = _condition_targets(cond, store, None)

    def bounds_pass(self, store: DomainStore) -> bool:
        bounds = store.bounds
        term_bounds = []
        total_lo = total_hi = 0
        for k, x in self.terms:
            lo, hi = bounds(x)
            if isinstance(k, int):
                if k < 0:
                    lo, hi = k * hi, k * lo
                else:
                    lo, hi = k * lo, k * hi
            else:
                clo, chi = bounds(k[1])
                cands = (clo * lo, clo * hi, chi * lo, chi * hi)
                lo, hi = min(cands), max(cands)
            term_bounds.append((lo, hi))
            total_lo += lo
            total_hi += hi

        if self.target is None:  # ne
            k = 0 if self.rhs_idx is not None else self.constraint.condition.rhs
            if total_lo == total_hi:
                return total_lo != k
            fixed_total = 0
            free = []
            for kk, xx in self.terms:
                if isinstance(kk, int) and store.is_assigned(xx):
                    fixed_total += kk * store.value(xx)
                elif not isinstance(kk, int) and store.is_assigned(kk[1]) and store.is_assigned(xx):
                    fixed_total += store.value(kk[1]) * store.value(xx)
                else:
                    free.append((kk, xx))
            if len(free) == 1 and isinstance(free[0][0], int) and free[0][0] != 0:
                coeff, x = free[0]
                delta = k - fixed_total
                if delta % coeff == 0 and not store.remove_value(x, delta // coeff):
                    return False
            return True

        tlo, thi = self.target
        if total_lo > thi or total_hi < tlo:
            return False

        for (k, x), (blo, bhi) in zip(self.terms, term_bounds):
            allowed_lo = tlo - (total_hi - bhi)
            allowed_hi = thi - (total_lo - blo)
            if isinstance(k, int):
                # allowed_lo <= k * v <= allowed_hi, divided through by k
                if k > 0:
                    if not store.restrict(x, -(-allowed_lo // k), allowed_hi // k):
                        return False
                elif k < 0:
                    if not store.restrict(x, -(-allowed_hi // k), allowed_lo // k):
                        return False
            else:
                cvar = k[1]
                clo, chi = bounds(cvar)
                for v in store.domain_list(x):
                    lo = min(clo * v, chi * v)
                    hi = max(clo * v, chi * v)
                    if hi < allowed_lo or lo > allowed_hi:
                        if not store.remove_value(x, v):
                            return False
                vlo, vhi = bounds(x)
                for cv in store.domain_list(cvar):
                    lo = min(cv * vlo, cv * vhi)
                    hi = max(cv * vlo, cv * vhi)
                    if hi < allowed_lo or lo > allowed_hi:
                        if not store.remove_value(cvar, cv):
                            return False
        return True

    # a second name for the pass, kept only for the traced counters: a
    # linear ``IntensionProp`` calls ``bounds_pass``, so a wrapper of each
    # class's ``propagate`` (perfbench's traced run) counts that nested call
    # under ``IntensionProp`` alone, not under ``SumProp`` as well
    propagate = bounds_pass


class CountProp(Propagator):
    __slots__ = ("counted", "rhs_idx")

    def __init__(self, c: Count, key, store: DomainStore):
        super().__init__(c, key, store)
        # (variable, mask of its counted values)
        self.counted = [(x, store.value_mask(x, c.values)) for x in store.indices(c.scope)]
        self.rhs_idx = store.index[c.condition.rhs] if isinstance(c.condition.rhs, str) else None

    def propagate(self, store: DomainStore) -> bool:
        maybe = []
        lb = ub = 0
        for x, mask in self.counted:
            cur = store.masks[x]
            if cur & mask:
                ub += 1
                if cur & ~mask == 0:
                    lb += 1
                else:
                    maybe.append((x, mask))

        cond = self.constraint.condition
        if cond.operator == "ne":
            k = cond.rhs if self.rhs_idx is None else (
                store.value(self.rhs_idx) if store.is_assigned(self.rhs_idx) else None
            )
            if k is None:
                return True
            if lb == ub:
                return lb != k
            return True

        tlo, thi = _condition_targets(cond, store, self.rhs_idx)
        if lb > thi or ub < tlo:
            return False
        if self.rhs_idx is not None and cond.operator == "eq":
            if not store.restrict(self.rhs_idx, lb, ub):
                return False
        if ub == tlo:
            for x, mask in maybe:
                if not store.keep_bits(x, mask):
                    return False
        if lb == thi:
            for x, mask in maybe:
                if not store.remove_bits(x, mask):
                    return False
        return True


class CardinalityProp(Propagator):
    __slots__ = ()

    def propagate(self, store: DomainStore) -> bool:
        c = self.constraint
        if c.closed:
            for x in self.scope:
                if not store.keep_values(x, c.values):
                    return False
        n = len(self.scope)
        total_lo = sum(lo for lo, _ in c.occurs)
        total_hi = sum(hi for _, hi in c.occurs)
        if c.closed and (total_lo > n or total_hi < n):
            return False
        for v, (lo, hi) in zip(c.values, c.occurs):
            assigned, possible = 0, 0
            holders = []
            for x in self.scope:
                if store.contains(x, v):
                    possible += 1
                    if store.is_assigned(x):
                        assigned += 1
                    else:
                        holders.append(x)
            if possible < lo or assigned > hi:
                return False
            if possible == lo:
                for x in holders:
                    if not store.assign(x, v):
                        return False
            elif assigned == hi:
                for x in holders:
                    if not store.remove_value(x, v):
                        return False
        return True


# ---------------------------------------------------------------------------
# AllDifferent


def _assigned_values(store: DomainStore, scope) -> set | None:
    """The values assigned in ``scope`` (an empty set when none is), or
    None when two of them are equal."""
    masks, init_values = store.masks, store.init_values
    seen = set()
    for x in scope:
        m = masks[x]
        if m and not m & (m - 1):
            v = init_values[x][m.bit_length() - 1]
            if v in seen:
                return None
            seen.add(v)
    return seen


class AllDifferentProp(Propagator):
    """Assigned values must differ, and are removed from the unassigned
    variables; then Hall intervals (``_hall_intervals``) prune the rest. A
    scope that repeats a variable can never hold, so that propagator fails
    on every call, decided at build. ``same_domains`` says, at build, that
    every variable of the scope has one initial value list, so that one
    mask of the assigned values serves them all."""

    __slots__ = ("repeats", "same_domains")

    def __init__(self, c: AllDifferent, key, store: DomainStore):
        super().__init__(c, key, store)
        self.repeats = len(set(self.scope)) < len(self.scope)
        self.same_domains = len({store.init_values[x] for x in self.scope}) == 1

    def propagate(self, store: DomainStore) -> bool:
        if self.repeats:
            return False
        scope = self.scope
        assigned = _assigned_values(store, scope)
        if assigned is None:
            return False
        masks, init_values = store.masks, store.init_values
        shared = store.value_mask(scope[0], assigned) if assigned and self.same_domains else None
        # one read of each mask: the assigned values leave the unassigned
        # variables, then the mask left gives the variable's bounds
        bounds = []
        for x in scope:
            m = masks[x]
            if assigned and m & (m - 1):
                cut = m & (store.value_mask(x, assigned) if shared is None else shared)
                if cut:
                    if not store.remove_bits(x, cut):
                        return False
                    m = masks[x]
            vals = init_values[x]
            bounds.append((vals[(m & -m).bit_length() - 1], vals[m.bit_length() - 1]))
        return self._hall_intervals(store, bounds, assigned)

    def _hall_intervals(self, store: DomainStore, bounds, assigned) -> bool:
        """Pairwise Hall intervals over the ``bounds`` of the scope: for
        each window ``a..b`` from a lower to an upper bound, fail when more
        intervals fit in it than it has values, and remove it from the
        intervals that overlap it when exactly that many fit.

        ``a`` runs over the lower bounds of the intervals when the windows
        began, in ascending order. ``his`` holds the sorted upper bounds of
        the intervals that start at ``a`` or later. A window ``a..a + j``
        has ``j + 1`` values, and at least that many intervals fit in it
        exactly when ``his[j] <= a + j``; the window is then full, or it
        overflows when ``his[j + 1]`` fits too. Every other window can
        neither overflow nor be full, so only these are visited, in
        ascending ``j``, and none is wider than ``len(his)``.

        Pruning a window ``a..b`` moves the upper bound only of an interval
        that starts before ``a``, and a lower bound only past ``b``. So
        ``his`` holds for the rest of this ``a``; for the next ``a`` it
        drops the intervals that start before it, and it is rebuilt from
        the current bounds only after a prune has moved some bound. It
        follows that every bound in ``his`` is an upper bound from when the
        windows began. A window ``a..a + j`` that is full or overflows
        while ``a + j`` is none of those bounds holds no more intervals
        than the narrower window up to the largest ``his`` value below
        ``a + j``, which therefore overflows and ends the pass first. So
        every window that acts ends at an upper bound of the start.

        A full window is scanned for intervals to cut unless one of two
        tests shows the scan cuts nothing:
        - ``a == b`` is a value in ``assigned``, the values assigned when
          the call began: its variable fills the window alone, and every
          other variable lost that value before the windows. The test is
          on ``assigned``, not on ``a == b``: a variable fixed by a prune
          during the pass has not had its value removed from the others.
        - Every interval that overlaps ``a..b`` fits in it. ``los`` and
          ``ends`` are the sorted lower and upper bounds when the windows
          began, so ``bisect_right(los, b) - bisect_left(ends, a)``
          intervals overlapped ``a..b`` then. Bounds only shrink, so no
          more overlap it now, and ``j + 1`` of them fit in it.
        A cut takes only the window's values that are still in the domain,
        and the bounds are read again only after a cut."""
        scope, masks = self.scope, store.masks
        starts = sorted(bounds)  # the intervals by lower bound
        los = [lo for lo, _ in starts]
        ends = sorted(hi for _, hi in bounds)
        his = list(ends)
        first = 0  # starts[first:] are the intervals in his
        stale = False
        for a in sorted(set(los)):
            if stale:
                starts = sorted(bound for bound in bounds if bound[0] >= a)
                his = sorted(hi for _, hi in starts)
                first, stale = 0, False
            while starts[first][0] < a:
                del his[bisect_left(his, starts[first][1])]
                first += 1
            ended = bisect_left(ends, a)  # the intervals that ended before a
            for j, hi_j in enumerate(his):
                b = a + j
                if hi_j > b:
                    continue
                if j + 1 < len(his) and his[j + 1] <= b:
                    return False
                if (j == 0 and a in assigned) or bisect_right(los, b) - ended == j + 1:
                    continue
                for i, x in enumerate(scope):
                    lo, hi = bounds[i]
                    # only an interval that overlaps a..b without fitting in it loses values
                    if (lo < a or hi > b) and lo <= b and a <= hi:
                        cut = masks[x] & store.interval_mask(x, a, b)
                        if cut:
                            if not store.remove_bits(x, cut):
                                return False
                            moved = store.bounds(x)
                            if moved != bounds[i]:
                                bounds[i], stale = moved, True
        return True


# ---------------------------------------------------------------------------
# Element / Channel / Instantiation


class ElementProp(Propagator):
    """GAC through per-cell bit tables: a variable result translates each
    cell bit into the result's bit, a constant result keeps per cell the
    bit of the constant.

    When the index and value variables are distinct and neither is a cell,
    the pass is idempotent. ``reach`` is built only from supported
    positions, so every position kept on the index keeps a cell value that
    maps into the narrowed value domain; and a singleton index narrows its
    one cell to the values that map into that domain, which leaves the
    position supported and ``reach`` as it was. With a constant result the
    pass reads only whether each cell holds the constant, so it then
    watches, per cell, the constant's bit, and any change of the index."""

    __slots__ = ("list_idx", "index_idx", "value_idx", "in_range", "position", "cell_to_value", "const_bits")

    def __init__(self, c: Element, key, store: DomainStore):
        super().__init__(c, key, store)
        self.list_idx = list_idx = store.indices(c.list_vars)
        self.index_idx = index_idx = store.index[c.index]
        value = c.value
        self.value_idx = store.index[value] if isinstance(value, str) else None
        # the index bits of the list positions, and each one's position
        index_pos = store.pos[index_idx]
        self.in_range = 0
        self.position = [None] * len(store.init_values[index_idx])
        for i in range(len(list_idx)):
            bit = index_pos.get(i)
            if bit is not None:
                self.in_range |= 1 << bit
                self.position[bit] = i
        # each pass builds only the table it reads
        self.cell_to_value = self.const_bits = None
        if self.value_idx is None:
            self.const_bits = [store.value_mask(cell, (value,)) for cell in list_idx]
        else:
            value_pos = store.pos[self.value_idx]
            self.cell_to_value = [
                [1 << value_pos[v] if v in value_pos else 0 for v in store.init_values[cell]] for cell in list_idx
            ]
        self.idempotent = index_idx != self.value_idx and not {index_idx, self.value_idx} & set(list_idx)
        if self.idempotent and self.value_idx is None:
            self.value_watch = dict(zip(list_idx, self.const_bits))

    def propagate(self, store: DomainStore) -> bool:
        masks = store.masks
        idx, value_idx, list_idx, position = self.index_idx, self.value_idx, self.list_idx, self.position
        in_range = self.in_range
        if masks[idx] & ~in_range:
            if not store.keep_bits(idx, in_range):
                return False
        supported = 0
        reach = 0
        imask = m = masks[idx]
        if value_idx is None:
            const_bits = self.const_bits
            while m:
                low = m & -m
                i = position[low.bit_length() - 1]
                if masks[list_idx[i]] & const_bits[i]:
                    supported |= low
                m ^= low
        else:
            vmask = masks[value_idx]
            tables = self.cell_to_value
            while m:
                low = m & -m
                i = position[low.bit_length() - 1]
                table = tables[i]
                cmask = masks[list_idx[i]]
                translated = 0
                while cmask:
                    clow = cmask & -cmask
                    translated |= table[clow.bit_length() - 1]
                    cmask ^= clow
                translated &= vmask
                if translated:
                    supported |= low
                    reach |= translated
                m ^= low
        if not supported:
            return False
        if imask & ~supported:
            if not store.keep_bits(idx, supported):
                return False
        if value_idx is not None and vmask & ~reach:
            if not store.keep_bits(value_idx, reach):
                return False
        imask = masks[idx]
        if not imask & (imask - 1):
            i = position[imask.bit_length() - 1]
            cell = list_idx[i]
            if value_idx is None:
                if not store.keep_bits(cell, self.const_bits[i]):
                    return False
            else:
                table = self.cell_to_value[i]
                vnow = masks[value_idx]
                keep = 0
                cmask = masks[cell]
                while cmask:
                    low = cmask & -cmask
                    if table[low.bit_length() - 1] & vnow:
                        keep |= low
                    cmask ^= low
                if not store.keep_bits(cell, keep):
                    return False
        return True


class ChannelProp(Propagator):
    __slots__ = ("list_a", "list_b")

    def __init__(self, c: Channel, key, store: DomainStore):
        super().__init__(c, key, store)
        self.list_a = store.indices(c.list_a)
        self.list_b = store.indices(c.list_b)

    def propagate(self, store: DomainStore) -> bool:
        for one, other in ((self.list_a, self.list_b), (self.list_b, self.list_a)):
            for i, x in enumerate(one):
                keep = [j for j in store.values(x) if 0 <= j < len(other) and store.contains(other[j], i)]
                if not keep:
                    return False
                if len(keep) < store.size(x):
                    if not store.keep_values(x, keep):
                        return False
        for one, other in ((self.list_a, self.list_b), (self.list_b, self.list_a)):
            for i, x in enumerate(one):
                if store.is_assigned(x):
                    j = store.value(x)
                    if not store.assign(other[j], i):
                        return False
        return True


class InstantiationProp(Propagator):
    __slots__ = ()

    def propagate(self, store: DomainStore) -> bool:
        for x, v in zip(self.scope, self.constraint.values):
            if not store.assign(x, v):
                return False
        return True


# ---------------------------------------------------------------------------
# Regular


class RegularProp(Propagator):
    __slots__ = ("delta", "start", "finals")

    def __init__(self, c: Regular, key, store: DomainStore):
        super().__init__(c, key, store)
        automaton = c.automaton
        self.delta = {(q, a): r for q, a, r in automaton.transitions}
        self.start = automaton.start
        self.finals = frozenset(automaton.finals)

    def propagate(self, store: DomainStore) -> bool:
        n = len(self.scope)
        forward = [set() for _ in range(n + 1)]
        forward[0].add(self.start)
        for i, x in enumerate(self.scope):
            nxt = forward[i + 1]
            for q in forward[i]:
                for v in store.values(x):
                    r = self.delta.get((q, v))
                    if r is not None:
                        nxt.add(r)
            if not nxt:
                return False
        alive = [set() for _ in range(n + 1)]
        alive[n] = forward[n] & self.finals
        if not alive[n]:
            return False
        for i in range(n - 1, -1, -1):
            x = self.scope[i]
            for q in forward[i]:
                for v in store.values(x):
                    if self.delta.get((q, v)) in alive[i + 1]:
                        alive[i].add(q)
                        break
        for i, x in enumerate(self.scope):
            keep = [
                v
                for v in store.values(x)
                if any(self.delta.get((q, v)) in alive[i + 1] for q in alive[i])
            ]
            if not keep:
                return False
            if len(keep) < store.size(x):
                if not store.keep_values(x, keep):
                    return False
        return True


# ---------------------------------------------------------------------------
# Scheduling / packing


class CumulativeProp(Propagator):
    __slots__ = ("tasks",)

    def __init__(self, c: Cumulative, key, store: DomainStore):
        super().__init__(c, key, store)
        # a task of zero length or height never loads the resource
        self.tasks = [
            (x, d, h)
            for x, d, h in zip(store.indices(c.origins), c.lengths, c.heights)
            if d > 0 and h > 0
        ]
        self.scope = tuple(x for x, _, _ in self.tasks)

    def propagate(self, store: DomainStore) -> bool:
        if not self.tasks:
            return True
        limit = self.constraint.limit
        # compulsory-part profile as a difference map
        diff: dict[int, int] = {}
        comp = []
        for x, d, h in self.tasks:
            lst, est = store.max_value(x), store.min_value(x)
            ect = est + d
            if lst < ect:
                diff[lst] = diff.get(lst, 0) + h
                diff[ect] = diff.get(ect, 0) - h
                comp.append((x, lst, ect, h))
            else:
                comp.append((x, 0, 0, 0))
        # the load from times[k] onward is loads[k]
        times, loads = [-INF], [0]
        for t in sorted(diff):
            load = loads[-1] + diff[t]
            if load > limit:
                return False
            times.append(t)
            loads.append(load)

        for (x, d, h), (_, clst, cect, ch) in zip(self.tasks, comp):
            for s in store.domain_list(x):
                feasible = True
                for t in range(s, s + d):
                    own = ch if clst <= t < cect else 0
                    if loads[bisect_right(times, t) - 1] - own + h > limit:
                        feasible = False
                        break
                if not feasible and not store.remove_value(x, s):
                    return False
        return True


class NoOverlapProp(Propagator):
    __slots__ = ("items",)

    def __init__(self, c: NoOverlap, key, store: DomainStore):
        super().__init__(c, key, store)
        index = store.index

        def length(v):  # a fixed int or a ("var", index) pair
            return v if isinstance(v, int) else ("var", index[v])

        self.items = [(index[x], index[y], length(w), length(h)) for (x, y), (w, h) in zip(c.origins, c.lengths)]

    @staticmethod
    def _len_bounds(store, length):
        if isinstance(length, int):
            return length, length
        return store.bounds(length[1])

    def propagate(self, store: DomainStore) -> bool:
        n = len(self.items)
        geo = []
        for xi, yi, wi, hi in self.items:
            xlo, xhi = store.bounds(xi)
            ylo, yhi = store.bounds(yi)
            wlo, _ = self._len_bounds(store, wi)
            hlo, _ = self._len_bounds(store, hi)
            geo.append((xlo, xhi, ylo, yhi, wlo, hlo))
        for i in range(n):
            xi_lo, xi_hi, yi_lo, yi_hi, wi_lo, hi_lo = geo[i]
            for j in range(n):
                if i == j:
                    continue
                xj_lo, xj_hi, yj_lo, yj_hi, wj_lo, hj_lo = geo[j]
                must_x = xi_hi < xj_lo + wj_lo and xj_hi < xi_lo + wi_lo
                must_y = yi_hi < yj_lo + hj_lo and yj_hi < yi_lo + hi_lo
                if must_x and must_y:
                    return False
                # forbidden starts: i would overlap every placement of j
                if must_y and wi_lo > 0 and wj_lo > 0:
                    x_var = self.items[i][0]
                    if not store.remove_bits(x_var, store.interval_mask(x_var, xj_hi - wi_lo + 1, xj_lo + wj_lo - 1)):
                        return False
                    geo[i] = (*store.bounds(x_var), yi_lo, yi_hi, wi_lo, hi_lo)
                    xi_lo, xi_hi = geo[i][0], geo[i][1]
                if must_x and hi_lo > 0 and hj_lo > 0:
                    y_var = self.items[i][1]
                    if not store.remove_bits(y_var, store.interval_mask(y_var, yj_hi - hi_lo + 1, yj_lo + hj_lo - 1)):
                        return False
                    geo[i] = (xi_lo, xi_hi, *store.bounds(y_var), wi_lo, hi_lo)
                    yi_lo, yi_hi = geo[i][2], geo[i][3]
        return True


# ---------------------------------------------------------------------------
# Circuit


class CircuitProp(Propagator):
    __slots__ = ()

    def propagate(self, store: DomainStore) -> bool:
        n = len(self.scope)
        for x in self.scope:
            if not store.restrict(x, 0, n - 1):
                return False
        # successor values are all distinct (cycle plus fixed points is a
        # permutation)
        seen = _assigned_values(store, self.scope)
        if seen is None:
            return False
        if seen:
            for x in self.scope:
                m = store.masks[x]
                if m & (m - 1) and not store.remove_bits(x, store.value_mask(x, seen)):
                    return False

        succ = {
            pos: store.value(x)
            for pos, x in enumerate(self.scope)
            if store.is_assigned(x) and store.value(x) != pos
        }
        # with every position on a self-loop there is no route
        if not succ and all(map(store.is_assigned, self.scope)):
            return False
        committed = {
            pos for pos, x in enumerate(self.scope) if not store.contains(x, pos)
        }
        # walk assigned chains; a closed cycle forces everyone else off route
        visited = set()
        for start in sorted(succ):
            if start in visited:
                continue
            chain = [start]
            visited.add(start)
            node = start
            closed = False
            while succ.get(node) is not None:
                node = succ[node]
                if node == start:
                    closed = True
                    break
                if node in chain:
                    return False  # lasso: enters a loop not through start
                chain.append(node)
                visited.add(node)
            if closed:
                for pos, x in enumerate(self.scope):
                    if pos not in chain:
                        if not store.assign(x, pos):
                            return False
            else:
                tail = chain[-1]
                if any(k not in chain for k in committed):
                    tail_var = self.scope[tail]
                    if not store.is_assigned(tail_var):
                        if not store.remove_value(tail_var, chain[0]):
                            return False
        return True


# ---------------------------------------------------------------------------
# Order


class OrderedProp(Propagator):
    __slots__ = ("chain", "strict")

    def __init__(self, c: Ordered, key, store: DomainStore):
        super().__init__(c, key, store)
        self.chain = self.scope if c.operator in ("lt", "le") else self.scope[::-1]
        self.strict = c.operator in ("lt", "gt")

    def propagate(self, store: DomainStore) -> bool:
        inc = 1 if self.strict else 0
        chain = self.chain
        for i in range(1, len(chain)):
            if not store.restrict(chain[i], store.min_value(chain[i - 1]) + inc, INF):
                return False
        for i in range(len(chain) - 2, -1, -1):
            if not store.restrict(chain[i], -INF, store.max_value(chain[i + 1]) - inc):
                return False
        return True


class LexPairProp(Propagator):
    """One 2-row lex constraint, kept as ``left`` <= (or <) ``right``;
    multi-row lex constraints are split into adjacent pairs."""

    __slots__ = ("left", "right", "strict")

    def __init__(self, c: Lex, key, store: DomainStore):
        super().__init__(c, key, store)
        left, right = (store.indices(row) for row in c.rows)
        self.left, self.right = (right, left) if c.operator in ("gt", "ge") else (left, right)
        self.strict = c.operator in ("lt", "gt")

    def propagate(self, store: DomainStore) -> bool:
        a, b = self.left, self.right
        n = len(a)
        i = 0
        while True:
            while i < n and store.is_assigned(a[i]) and store.is_assigned(b[i]) and store.value(a[i]) == store.value(b[i]):
                i += 1
            if i == n:
                return not self.strict
            gap = 1 if self.strict and i == n - 1 else 0
            if not store.restrict(a[i], -INF, store.max_value(b[i]) - gap):
                return False
            if not store.restrict(b[i], store.min_value(a[i]) + gap, INF):
                return False
            if store.is_assigned(a[i]) and store.is_assigned(b[i]) and store.value(a[i]) == store.value(b[i]):
                i += 1
                continue
            return True


# ---------------------------------------------------------------------------
# Builder


def _primitives(c):
    """The model constraints, one per propagator, that enforce ``c``: a
    slide's windows, an allDifferent per matrix row then column, a 2-row
    lex per adjacent pair of rows (a matrix's rows, then its columns)."""
    if isinstance(c, Slide):
        for w in c.windows:
            yield from _primitives(w)
    elif isinstance(c, AllDifferentMatrix):
        for line in (*c.grid, *zip(*c.grid)):
            yield AllDifferent(tuple(line))
    elif isinstance(c, (Lex, LexMatrix)):
        for rows in (c.rows,) if isinstance(c, Lex) else (c.grid, tuple(zip(*c.grid))):
            for pair in zip(rows, rows[1:]):
                yield Lex(pair, c.operator)
    else:
        yield c


#: model constraint class -> propagator class
_PROPAGATORS = {
    Intension: IntensionProp,
    Extension: TableProp,
    Regular: RegularProp,
    AllDifferent: AllDifferentProp,
    Ordered: OrderedProp,
    Lex: LexPairProp,
    Sum: SumProp,
    Count: CountProp,
    Cardinality: CardinalityProp,
    Element: ElementProp,
    Channel: ChannelProp,
    NoOverlap: NoOverlapProp,
    Cumulative: CumulativeProp,
    Circuit: CircuitProp,
    Instantiation: InstantiationProp,
}


def make_propagators(constraints, store: DomainStore) -> list[Propagator]:
    """Build the propagators of the constraints; each propagator's ``key``
    is the index of its owning constraint. Compact tables over one relation
    and equal initial domains share their support masks, compiled once per
    call."""
    props: list[Propagator] = []
    masks: dict = {}  # (table, domains, repeat pattern) or (template, domains) -> support masks
    for key, c in enumerate(constraints):
        for p in _primitives(c):
            build = _PROPAGATORS.get(type(p))
            if build is None:
                raise TypeError(f"no propagator for {type(p).__name__}")
            props.append(build(p, key, store, masks) if build in (TableProp, IntensionProp) else build(p, key, store))
    return props


def build_propagators(instance, store: DomainStore) -> list[Propagator]:
    return make_propagators(instance.constraints, store)
