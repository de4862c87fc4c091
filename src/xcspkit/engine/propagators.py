"""Per-constraint propagators.

Every propagator removes only values it proves locally inconsistent; where
filtering is partial, a full-assignment fallback to the ground-truth
checker keeps search verdicts exact."""

from __future__ import annotations

import itertools

from .. import expr as _x
from ..model import (
    AllDifferent,
    AllDifferentMatrix,
    Assignment,
    Cardinality,
    Channel,
    Circuit,
    Condition,
    Constraint,
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
    constraint_satisfied,
)
from .domains import DomainStore

INF = 10**18

# conflicts tables are complemented into supports up to this tuple count
_COMPLEMENT_CAP = 100_000
# exact support scan for intension constraints up to this domain product
_SCAN_CAP = 2048


class Propagator:
    __slots__ = ("scope", "key", "weight")

    def __init__(self, scope: tuple[int, ...], key: int):
        self.scope = scope
        self.key = key
        self.weight = 1

    def propagate(self, store: DomainStore) -> bool:
        raise NotImplementedError

    def _all_assigned(self, store: DomainStore) -> bool:
        return all(store.is_assigned(x) for x in self.scope)


class CheckerMixin:
    """Exact verdict via the model checker once the scope is assigned."""

    constraint: Constraint

    def _check_assigned(self, store: DomainStore) -> bool:
        binding = {store.names[x]: store.value(x) for x in self.scope}
        return constraint_satisfied(self.constraint, Assignment(binding))


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
        ok = True
        for x, entry in zip(scope, row):
            if entry != STAR and entry not in store.pos[x]:
                ok = False
                break
        if ok:
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


class TableProp(Propagator):
    """Compact-table style GAC over a supports bitset (stateless: the valid
    row set is rebuilt from current domains on every call)."""

    __slots__ = ("supports",)

    def __init__(self, scope, key, store: DomainStore, rows):
        super().__init__(scope, key)
        self.supports = _support_masks(store, scope, rows)

    def propagate(self, store: DomainStore) -> bool:
        return _ct_filter(store, self.scope, self.supports)


class NegativeTableFC(Propagator, CheckerMixin):
    """Forward checking for conflicts tables too large to complement."""

    __slots__ = ("constraint", "rows")

    def __init__(self, scope, key, constraint: Extension):
        super().__init__(scope, key)
        self.constraint = constraint
        self.rows = constraint.table.rows

    def propagate(self, store: DomainStore) -> bool:
        free = [i for i, x in enumerate(self.scope) if not store.is_assigned(x)]
        if not free:
            return self._check_assigned(store)
        if len(free) > 1:
            return True
        i = free[0]
        x = self.scope[i]
        fixed = [store.value(v) if store.is_assigned(v) else None for v in self.scope]
        for value in store.domain_list(x):
            fixed[i] = value
            for row in self.rows:
                if all(e == STAR or e == v for e, v in zip(row, fixed)):
                    if not store.remove_value(x, value):
                        return False
                    break
        return True


def _build_extension(scope, key, store, c: Extension):
    if c.table.polarity == "supports":
        return TableProp(scope, key, store, c.table.rows)
    product = 1
    for x in scope:
        product *= len(store.init_values[x])
        if product > _COMPLEMENT_CAP:
            return NegativeTableFC(scope, key, c)
    universe = itertools.product(*(store.init_values[x] for x in scope))
    complement = [row for row in universe if not c.table.matches(row)]
    return TableProp(scope, key, store, complement)


# ---------------------------------------------------------------------------
# Intension


class IntensionProp(Propagator):
    """Small expressions are compiled to a support bitset at build time
    (compact-table pass); larger ones fall back to GAC scans or interval
    filtering."""

    __slots__ = ("expr", "names", "fn", "supports", "constant")

    def __init__(self, scope, key, store: DomainStore, expression):
        super().__init__(scope, key)
        self.expr = expression
        self.names = [store.names[x] for x in scope]
        self.fn = _x.compile_expr(expression, {name: i for i, name in enumerate(self.names)})
        # an expression without variables is a constant verdict
        self.constant = bool(self.fn(())) if not scope else None
        self.supports = None
        product = 1
        for x in scope:
            product *= len(store.init_values[x])
            if product > _SCAN_CAP:
                break
        if len(scope) <= 3 and product <= _SCAN_CAP:
            fn = self.fn
            rows = [
                combo
                for combo in itertools.product(*(store.init_values[x] for x in scope))
                if fn(combo)
            ]
            self.supports = _support_masks(store, scope, rows)

    def propagate(self, store: DomainStore) -> bool:
        if self.constant is not None:
            return self.constant
        if self.supports is not None:
            return _ct_filter(store, self.scope, self.supports)
        arity = len(self.scope)
        product = 1
        for x in self.scope:
            product *= store.size(x)
        if arity <= 3 and product <= _SCAN_CAP:
            return self._scan(store)
        return self._interval_filter(store)

    def _scan(self, store: DomainStore) -> bool:
        domains = [store.domain_list(x) for x in self.scope]
        supported = [set() for _ in self.scope]
        fn = self.fn
        for combo in itertools.product(*domains):
            if fn(combo):
                for i, v in enumerate(combo):
                    supported[i].add(v)
        for i, x in enumerate(self.scope):
            if not supported[i]:
                return False
            if len(supported[i]) < store.size(x):
                if not store.keep_values(x, supported[i]):
                    return False
        return True

    def _interval_filter(self, store: DomainStore) -> bool:
        bounds = {name: store.bounds(x) for name, x in zip(self.names, self.scope)}
        for i, x in enumerate(self.scope):
            name = self.names[i]
            for v in store.domain_list(x):
                bounds[name] = (v, v)
                _, hi = _x.interval(self.expr, bounds)
                if hi == 0 and not store.remove_value(x, v):
                    return False
            bounds[name] = store.bounds(x)
        return True


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
    if op == "in":
        return rlo, rhi
    return None  # ne handled by callers


class SumProp(Propagator):
    """Bounds filtering for linear forms; variable coefficients are handled
    through product intervals."""

    __slots__ = ("terms", "cond", "rhs_idx")

    def __init__(self, scope_idx, coeffs, cond: Condition, key, store: DomainStore, rhs_idx):
        # terms: (coeff int | ('v', idx), var idx)
        terms = []
        for k, x in zip(coeffs, scope_idx):
            terms.append((k, x))
        if rhs_idx is not None and cond.operator != "in":
            terms.append((-1, rhs_idx))
        self.terms = terms
        self.cond = cond
        self.rhs_idx = rhs_idx
        scope = []
        for k, x in terms:
            scope.append(x)
            if not isinstance(k, int):
                scope.append(k[1])
        super().__init__(tuple(dict.fromkeys(scope)), key)

    def _term_bounds(self, store, k, x):
        lo, hi = store.bounds(x)
        if isinstance(k, int):
            return (k * lo, k * hi) if k >= 0 else (k * hi, k * lo)
        clo, chi = store.bounds(k[1])
        cands = (clo * lo, clo * hi, chi * lo, chi * hi)
        return min(cands), max(cands)

    def propagate(self, store: DomainStore) -> bool:
        cond = self.cond
        rhs_folded = self.rhs_idx is not None and cond.operator != "in"
        term_bounds = [self._term_bounds(store, k, x) for k, x in self.terms]
        total_lo = sum(b[0] for b in term_bounds)
        total_hi = sum(b[1] for b in term_bounds)

        if cond.operator == "ne":
            k = 0 if rhs_folded else cond.rhs
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

        effective = Condition(cond.operator, 0) if rhs_folded else cond
        tlo, thi = _condition_targets(effective, store, None)
        if total_lo > thi or total_hi < tlo:
            return False

        for i, (k, x) in enumerate(self.terms):
            blo, bhi = term_bounds[i]
            rest_lo = total_lo - blo
            rest_hi = total_hi - bhi
            allowed_lo = tlo - rest_hi
            allowed_hi = thi - rest_lo
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
                clo, chi = store.bounds(cvar)
                for v in store.domain_list(x):
                    lo = min(clo * v, chi * v)
                    hi = max(clo * v, chi * v)
                    if hi < allowed_lo or lo > allowed_hi:
                        if not store.remove_value(x, v):
                            return False
                vlo, vhi = store.bounds(x)
                for cv in store.domain_list(cvar):
                    lo = min(cv * vlo, cv * vhi)
                    hi = max(cv * vlo, cv * vhi)
                    if hi < allowed_lo or lo > allowed_hi:
                        if not store.remove_value(cvar, cv):
                            return False
        # tighten an interval-condition rhs variable is not needed: rhs folded
        return True


class CountProp(Propagator):
    __slots__ = ("counted", "cond", "rhs_idx")

    def __init__(self, vars_idx, values, cond: Condition, key, rhs_idx, store: DomainStore):
        scope = tuple(dict.fromkeys(vars_idx + ((rhs_idx,) if rhs_idx is not None else ())))
        super().__init__(scope, key)
        # (variable, mask of its counted values)
        self.counted = [(x, store.value_mask(x, values)) for x in vars_idx]
        self.cond = cond
        self.rhs_idx = rhs_idx

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

        cond = self.cond
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
    __slots__ = ("vars_idx", "values", "occurs", "closed")

    def __init__(self, vars_idx, values, occurs, closed, key):
        super().__init__(tuple(vars_idx), key)
        self.vars_idx = vars_idx
        self.values = values
        self.occurs = occurs
        self.closed = closed

    def propagate(self, store: DomainStore) -> bool:
        if self.closed:
            for x in self.vars_idx:
                if not store.keep_values(x, self.values):
                    return False
        n = len(self.vars_idx)
        total_lo = sum(lo for lo, _ in self.occurs)
        total_hi = sum(hi for _, hi in self.occurs)
        if self.closed and (total_lo > n or total_hi < n):
            return False
        for v, (lo, hi) in zip(self.values, self.occurs):
            assigned, possible = 0, 0
            holders = []
            for x in self.vars_idx:
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


def _assigned_values_differ(store: DomainStore, scope) -> bool:
    """Assigned values must differ; remove them from the unassigned."""
    seen = set()
    for x in scope:
        if store.is_assigned(x):
            v = store.value(x)
            if v in seen:
                return False
            seen.add(v)
    if seen:
        for x in scope:
            if not store.is_assigned(x) and not store.remove_bits(x, store.value_mask(x, seen)):
                return False
    return True


class AllDifferentProp(Propagator):
    __slots__ = ()

    def propagate(self, store: DomainStore) -> bool:
        return _assigned_values_differ(store, self.scope) and self._hall_intervals(store)

    def _hall_intervals(self, store: DomainStore) -> bool:
        bounds = [store.bounds(x) for x in self.scope]
        mins = sorted({lo for lo, _ in bounds})
        maxs = sorted({hi for _, hi in bounds})
        for a in mins:
            for b in maxs:
                if b < a:
                    continue
                capacity = b - a + 1
                if capacity > len(bounds):
                    continue
                contained = [i for i, (lo, hi) in enumerate(bounds) if a <= lo and hi <= b]
                if len(contained) > capacity:
                    return False
                if len(contained) == capacity:
                    inside = set(contained)
                    for i, x in enumerate(self.scope):
                        if i not in inside:
                            if not store.remove_bits(x, store.interval_mask(x, a, b)):
                                return False
                            bounds[i] = store.bounds(x)
        return True


# ---------------------------------------------------------------------------
# Element / Channel / Instantiation


class ElementProp(Propagator):
    """GAC through per-cell bit translation tables between each list cell's
    value space and the result's value space."""

    __slots__ = ("list_idx", "index_idx", "value_idx", "index_bits", "cell_to_value", "const_bits")

    def __init__(self, list_idx, index_idx, value, key, name_to_idx, store: DomainStore):
        self.list_idx = list_idx
        self.index_idx = index_idx
        if isinstance(value, str):
            self.value_idx = name_to_idx[value]
        else:
            self.value_idx = None
        scope = tuple(dict.fromkeys(list_idx + (index_idx,) + ((self.value_idx,) if self.value_idx is not None else ())))
        super().__init__(scope, key)
        # index-variable bit for each in-range list position
        self.index_bits = [0] * len(list_idx)
        for i in range(len(list_idx)):
            bit = store.pos[index_idx].get(i)
            if bit is not None:
                self.index_bits[i] = 1 << bit
        # cell bit -> result-space bit (result space = value var bits, or a
        # 1-bit space for a constant result)
        self.cell_to_value = []
        self.const_bits = []
        for cell in list_idx:
            table = [0] * len(store.init_values[cell])
            cbit = 0
            for b, cell_value in enumerate(store.init_values[cell]):
                if self.value_idx is not None:
                    vbit = store.pos[self.value_idx].get(cell_value)
                    if vbit is not None:
                        table[b] = 1 << vbit
                elif cell_value == value:
                    table[b] = 1
                    cbit |= 1 << b
            self.cell_to_value.append(table)
            self.const_bits.append(cbit)

    def propagate(self, store: DomainStore) -> bool:
        n = len(self.list_idx)
        idx = self.index_idx
        in_range = 0
        for i in range(n):
            in_range |= self.index_bits[i]
        if store.masks[idx] & ~in_range:
            if not store.keep_bits(idx, in_range):
                return False
        vmask = store.masks[self.value_idx] if self.value_idx is not None else 1
        supported = 0
        reach = 0
        imask = store.masks[idx]
        for i in range(n):
            bit = self.index_bits[i]
            if not imask & bit:
                continue
            cell = self.list_idx[i]
            if self.value_idx is None:
                meet = store.masks[cell] & self.const_bits[i]
                translated = 1 if meet else 0
            else:
                table = self.cell_to_value[i]
                cmask = store.masks[cell]
                translated = 0
                while cmask:
                    low = cmask & -cmask
                    translated |= table[low.bit_length() - 1]
                    cmask ^= low
                translated &= vmask
            if translated:
                supported |= bit
                reach |= translated
        if not supported:
            return False
        if imask & ~supported:
            if not store.keep_bits(idx, supported):
                return False
        if self.value_idx is not None and vmask & ~reach:
            if not store.keep_bits(self.value_idx, reach):
                return False
        if store.is_assigned(idx):
            i = store.value(idx)
            cell = self.list_idx[i]
            if self.value_idx is None:
                if not store.keep_bits(cell, self.const_bits[i]):
                    return False
            else:
                table = self.cell_to_value[i]
                vnow = store.masks[self.value_idx]
                keep = 0
                cmask = store.masks[cell]
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

    def __init__(self, list_a, list_b, key):
        super().__init__(tuple(dict.fromkeys(list_a + list_b)), key)
        self.list_a = list_a
        self.list_b = list_b

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
    __slots__ = ("values_",)

    def __init__(self, scope, key, values):
        super().__init__(scope, key)
        self.values_ = values

    def propagate(self, store: DomainStore) -> bool:
        for x, v in zip(self.scope, self.values_):
            if not store.assign(x, v):
                return False
        return True


# ---------------------------------------------------------------------------
# Regular


class RegularProp(Propagator):
    __slots__ = ("delta", "start", "finals")

    def __init__(self, scope, key, automaton):
        super().__init__(scope, key)
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
    __slots__ = ("tasks", "limit")

    def __init__(self, origins, lengths, heights, limit, key):
        tasks = [
            (x, d, h)
            for x, d, h in zip(origins, lengths, heights)
            if d > 0 and h > 0
        ]
        super().__init__(tuple(x for x, _, _ in tasks), key)
        self.tasks = tasks
        self.limit = limit

    def propagate(self, store: DomainStore) -> bool:
        if not self.tasks:
            return True
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
        points = sorted(diff)
        profile: list[tuple[int, int]] = []  # (time, load from time onward)
        load = 0
        for t in points:
            load += diff[t]
            profile.append((t, load))
            if load > self.limit:
                return False

        def load_at(t: int) -> int:
            lo, hi = 0, len(profile)
            while lo < hi:
                mid = (lo + hi) // 2
                if profile[mid][0] <= t:
                    lo = mid + 1
                else:
                    hi = mid
            return profile[lo - 1][1] if lo else 0

        for (x, d, h), (_, clst, cect, ch) in zip(self.tasks, comp):
            for s in store.domain_list(x):
                feasible = True
                for t in range(s, s + d):
                    own = ch if clst <= t < cect else 0
                    if load_at(t) - own + h > self.limit:
                        feasible = False
                        break
                if not feasible and not store.remove_value(x, s):
                    return False
        return True


class NoOverlapProp(Propagator, CheckerMixin):
    __slots__ = ("constraint", "items")

    def __init__(self, key, constraint: NoOverlap, name_to_idx):
        self.constraint = constraint
        items = []
        scope = []
        for (x, y), (w, h) in zip(constraint.origins, constraint.lengths):
            xi, yi = name_to_idx[x], name_to_idx[y]
            # lengths are either fixed ints or ("var", index) pairs
            wi = w if isinstance(w, int) else ("var", name_to_idx[w])
            hi = h if isinstance(h, int) else ("var", name_to_idx[h])
            items.append((xi, yi, wi, hi))
            scope.extend([xi, yi])
            if not isinstance(w, int):
                scope.append(wi[1])
            if not isinstance(h, int):
                scope.append(hi[1])
        super().__init__(tuple(dict.fromkeys(scope)), key)
        self.items = items

    @staticmethod
    def _len_bounds(store, length):
        if isinstance(length, int):
            return length, length
        return store.bounds(length[1])

    def propagate(self, store: DomainStore) -> bool:
        if self._all_assigned(store):
            return self._check_assigned(store)
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


class CircuitProp(Propagator, CheckerMixin):
    __slots__ = ("constraint",)

    def __init__(self, scope, key, constraint: Circuit):
        super().__init__(scope, key)
        self.constraint = constraint

    def propagate(self, store: DomainStore) -> bool:
        n = len(self.scope)
        for x in self.scope:
            if not store.restrict(x, 0, n - 1):
                return False
        if self._all_assigned(store):
            return self._check_assigned(store)
        # successor values are all distinct (cycle plus fixed points is a
        # permutation)
        if not _assigned_values_differ(store, self.scope):
            return False

        succ = {
            pos: store.value(x)
            for pos, x in enumerate(self.scope)
            if store.is_assigned(x) and store.value(x) != pos
        }
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

    def __init__(self, scope, key, operator):
        super().__init__(scope, key)
        self.chain = scope if operator in ("lt", "le") else tuple(reversed(scope))
        self.strict = operator in ("lt", "gt")

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


class LexPairProp(Propagator, CheckerMixin):
    """One lexicographic row pair; multi-row lex constraints are expanded
    into adjacent pairs."""

    __slots__ = ("constraint", "left", "right", "strict")

    def __init__(self, key, constraint, left, right, strict):
        super().__init__(tuple(dict.fromkeys(left + right)), key)
        self.constraint = constraint
        self.left = left
        self.right = right
        self.strict = strict

    def propagate(self, store: DomainStore) -> bool:
        if self._all_assigned(store):
            return self._check_assigned(store)
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


def make_propagators(constraints, store: DomainStore) -> list[Propagator]:
    """Expand constraints into propagators; each propagator's ``key`` is
    the index of its owning constraint."""
    name_to_idx = {name: i for i, name in enumerate(store.names)}
    props: list[Propagator] = []
    for key, c in enumerate(constraints):
        props.extend(_expand(c, key, store, name_to_idx))
    return props


def build_propagators(instance, store: DomainStore) -> list[Propagator]:
    return make_propagators(instance.constraints, store)


def _idx(name_to_idx, ids):
    return tuple(name_to_idx[v] for v in ids)


def _expand(c: Constraint, key: int, store: DomainStore, name_to_idx) -> list[Propagator]:
    if isinstance(c, Slide):
        out = []
        for w in c.windows:
            out.extend(_expand(w, key, store, name_to_idx))
        return out
    if isinstance(c, Intension):
        scope = _idx(name_to_idx, tuple(dict.fromkeys(_x.expr_vars(c.expr))))
        return [IntensionProp(scope, key, store, c.expr)]
    if isinstance(c, Extension):
        return [_build_extension(_idx(name_to_idx, c.scope), key, store, c)]
    if isinstance(c, Regular):
        return [RegularProp(_idx(name_to_idx, c.scope), key, c.automaton)]
    if isinstance(c, AllDifferent):
        return [AllDifferentProp(_idx(name_to_idx, c.scope), key)]
    if isinstance(c, AllDifferentMatrix):
        out = []
        for row in c.grid:
            out.append(AllDifferentProp(_idx(name_to_idx, row), key))
        for col in zip(*c.grid):
            out.append(AllDifferentProp(_idx(name_to_idx, col), key))
        return out
    if isinstance(c, Ordered):
        return [OrderedProp(_idx(name_to_idx, c.scope), key, c.operator)]
    if isinstance(c, Lex):
        return _lex_pairs(c, c.rows, key, name_to_idx)
    if isinstance(c, LexMatrix):
        out = _lex_pairs(c, c.grid, key, name_to_idx)
        out.extend(_lex_pairs(c, tuple(zip(*c.grid)), key, name_to_idx))
        return out
    if isinstance(c, Sum):
        rhs_idx = name_to_idx[c.condition.rhs] if isinstance(c.condition.rhs, str) else None
        coeffs = [k if isinstance(k, int) else ("v", name_to_idx[k]) for k in c.coeffs]
        return [SumProp(_idx(name_to_idx, c.scope), coeffs, c.condition, key, store, rhs_idx)]
    if isinstance(c, Count):
        rhs_idx = name_to_idx[c.condition.rhs] if isinstance(c.condition.rhs, str) else None
        return [CountProp(_idx(name_to_idx, c.scope), c.values, c.condition, key, rhs_idx, store)]
    if isinstance(c, Cardinality):
        return [CardinalityProp(_idx(name_to_idx, c.scope), c.values, c.occurs, c.closed, key)]
    if isinstance(c, Element):
        return [ElementProp(_idx(name_to_idx, c.list_vars), name_to_idx[c.index], c.value, key, name_to_idx, store)]
    if isinstance(c, Channel):
        return [ChannelProp(_idx(name_to_idx, c.list_a), _idx(name_to_idx, c.list_b), key)]
    if isinstance(c, NoOverlap):
        return [NoOverlapProp(key, c, name_to_idx)]
    if isinstance(c, Cumulative):
        return [CumulativeProp(_idx(name_to_idx, c.origins), c.lengths, c.heights, c.limit, key)]
    if isinstance(c, Circuit):
        return [CircuitProp(_idx(name_to_idx, c.scope), key, c)]
    if isinstance(c, Instantiation):
        return [InstantiationProp(_idx(name_to_idx, c.scope), key, c.values)]
    raise TypeError(f"no propagator for {type(c).__name__}")


def _lex_pairs(constraint, rows, key, name_to_idx) -> list[Propagator]:
    operator = constraint.operator
    strict = operator in ("lt", "gt")
    out = []
    for left, right in zip(rows, rows[1:]):
        li, ri = _idx(name_to_idx, left), _idx(name_to_idx, right)
        if operator in ("gt", "ge"):
            li, ri = ri, li
        pair_constraint = Lex((left, right), operator)
        out.append(LexPairProp(key, pair_constraint, li, ri, strict))
    return out
