"""Differential tests: one call of ``SumProp`` and of ``AllDifferentProp``
prunes exactly as the pass it replaced, kept here as reference functions
that read each bound through ``min_value``/``max_value``, narrow through
``keep_bits(interval_mask(...))``, rebuild the Sum target on every call
and rebuild the Hall upper bounds for every window start. Both must leave
the same domains, the same trail entries in the same order, the same
touched list and the same return value.

``CountProp`` and ``CardinalityProp`` are held to the value-by-value
passes they replaced in the same way, except that a failing call need only
fail: a closed cardinality may fail before it prunes the variables ahead
of the one that wipes out, and search pops those prunes anyway.

A large linear intension runs the Sum pass where it ran interval
filtering, kept here as a reference too: both must reach the same
fixpoint when no variable repeats, and with repeats a fixpoint between
brute-force GAC and the reference's.

A tabled ``t = u + k`` or ``t = u + v + k`` runs the offset pass where it
ran the compact table, kept here as a reference over the support masks of
the same relation: one call of each must leave the same domains, trail,
touched list and return value."""

import functools
import itertools
import random
from bisect import bisect_left, bisect_right

import pytest

from xcspkit.engine import DomainStore, propagators
from xcspkit.engine.propagators import (
    INF,
    AllDifferentProp,
    CardinalityProp,
    CountProp,
    IntensionProp,
    SumProp,
    TableProp,
    make_propagators,
)
from xcspkit.engine.search import solve
from xcspkit.expr import IntConst, VarRef, compile_expr, op, parse_expr
from xcspkit.model import (
    STAR,
    AllDifferent,
    Cardinality,
    Condition,
    Count,
    Domain,
    Extension,
    Instance,
    Intension,
    Sum,
    Variable,
    conflicts,
)

# -- reference passes


def _bounds(store, x):
    return store.min_value(x), store.max_value(x)


def _restrict(store, x, lo, hi):
    return store.keep_bits(x, store.interval_mask(x, lo, hi))


def _condition_targets(cond, store, rhs_idx):
    op = cond.operator
    if isinstance(cond.rhs, tuple):
        return cond.rhs
    if rhs_idx is not None:
        rlo, rhi = _bounds(store, rhs_idx)
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
    return None


def _term_bounds(store, k, x):
    lo, hi = _bounds(store, x)
    if isinstance(k, int):
        return (k * lo, k * hi) if k >= 0 else (k * hi, k * lo)
    clo, chi = _bounds(store, k[1])
    cands = (clo * lo, clo * hi, chi * lo, chi * hi)
    return min(cands), max(cands)


def reference_sum(prop, store):
    cond = prop.constraint.condition
    rhs_folded = isinstance(prop.constraint.condition.rhs, str)
    term_bounds = [_term_bounds(store, k, x) for k, x in prop.terms]
    total_lo = sum(b[0] for b in term_bounds)
    total_hi = sum(b[1] for b in term_bounds)

    if cond.operator == "ne":
        k = 0 if rhs_folded else cond.rhs
        if total_lo == total_hi:
            return total_lo != k
        fixed_total = 0
        free = []
        for kk, xx in prop.terms:
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

    for i, (k, x) in enumerate(prop.terms):
        blo, bhi = term_bounds[i]
        rest_lo = total_lo - blo
        rest_hi = total_hi - bhi
        allowed_lo = tlo - rest_hi
        allowed_hi = thi - rest_lo
        if isinstance(k, int):
            if k > 0:
                if not _restrict(store, x, -(-allowed_lo // k), allowed_hi // k):
                    return False
            elif k < 0:
                if not _restrict(store, x, -(-allowed_hi // k), allowed_lo // k):
                    return False
        else:
            cvar = k[1]
            clo, chi = _bounds(store, cvar)
            for v in store.domain_list(x):
                lo = min(clo * v, chi * v)
                hi = max(clo * v, chi * v)
                if hi < allowed_lo or lo > allowed_hi:
                    if not store.remove_value(x, v):
                        return False
            vlo, vhi = _bounds(store, x)
            for cv in store.domain_list(cvar):
                lo = min(cv * vlo, cv * vhi)
                hi = max(cv * vlo, cv * vhi)
                if hi < allowed_lo or lo > allowed_hi:
                    if not store.remove_value(cvar, cv):
                        return False
    return True


def _assigned_values_differ(store, scope):
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


def _hall_intervals(scope, store):
    bounds = [_bounds(store, x) for x in scope]
    n = len(bounds)
    mins = sorted({lo for lo, _ in bounds})
    maxs = sorted({hi for _, hi in bounds})
    for a in mins:
        his = sorted(hi for lo, hi in bounds if lo >= a)
        for b in maxs[bisect_left(maxs, a) :]:
            capacity = b - a + 1
            if capacity > n:
                break
            count = bisect_right(his, b)
            if count > capacity:
                return False
            if count == capacity:
                for i, x in enumerate(scope):
                    lo, hi = bounds[i]
                    if (lo < a or hi > b) and lo <= b and a <= hi:
                        if not store.remove_bits(x, store.interval_mask(x, a, b)):
                            return False
                        bounds[i] = _bounds(store, x)
    return True


def reference_all_different(prop, store):
    # a scope that repeats a variable can never hold
    if len(set(prop.scope)) < len(prop.scope):
        return False
    return _assigned_values_differ(store, prop.scope) and _hall_intervals(prop.scope, store)


def reference_count(prop, store):
    c = prop.constraint
    rhs_idx = store.index[c.condition.rhs] if isinstance(c.condition.rhs, str) else None
    maybe = []
    lb = ub = 0
    for x in store.indices(c.scope):
        mask = store.value_mask(x, c.values)
        cur = store.masks[x]
        if cur & mask:
            ub += 1
            if cur & ~mask == 0:
                lb += 1
            else:
                maybe.append((x, mask))

    cond = c.condition
    if cond.operator == "ne":
        k = cond.rhs if rhs_idx is None else (store.value(rhs_idx) if store.is_assigned(rhs_idx) else None)
        if k is None:
            return True
        if lb == ub:
            return lb != k
        return True

    tlo, thi = _condition_targets(cond, store, rhs_idx)
    if lb > thi or ub < tlo:
        return False
    if rhs_idx is not None and cond.operator == "eq":
        if not _restrict(store, rhs_idx, lb, ub):
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


def reference_cardinality(prop, store):
    c = prop.constraint
    if c.closed:
        for x in prop.scope:
            if not store.keep_values(x, c.values):
                return False
    n = len(prop.scope)
    total_lo = sum(lo for lo, _ in c.occurs)
    total_hi = sum(hi for _, hi in c.occurs)
    if c.closed and (total_lo > n or total_hi < n):
        return False
    for v, (lo, hi) in zip(c.values, c.occurs):
        assigned, possible = 0, 0
        holders = []
        for x in prop.scope:
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


def reference_ct_filter(store, scope, supports):
    """One compact-table pass over the relation's support masks."""
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


def reference_interval_filter(bounds_fn, scope, store):
    """Remove each value whose fixing bounds the expression to false, the
    other positions at their current bounds."""
    bounds = [store.bounds(x) for x in scope]
    for i, x in enumerate(scope):
        for v in store.domain_list(x):
            bounds[i] = (v, v)
            if bounds_fn(bounds)[1] == 0 and not store.remove_value(x, v):
                return False
        bounds[i] = store.bounds(x)
    return True


# -- random cases


def _store(rng, n, starts, width, holes=True):
    """``n`` variables, each over the ends of an interval that starts in
    ``starts`` and is at most ``width`` wider, and about half of its inner
    values (all of them without ``holes``); then narrowed at a pushed
    level, some to one value, some to a random subset."""
    variables = []
    for i in range(n):
        lo = rng.choice(starts)
        hi = lo + rng.randint(0, width)
        values = [v for v in range(lo, hi + 1) if not holes or v in (lo, hi) or rng.random() < 0.5]
        variables.append(Variable(f"v{i}", Domain(tuple(values))))
    store = DomainStore(variables)
    store.push()
    for x in range(n):
        live = store.domain_list(x)
        roll = rng.random()
        if roll < 0.25:
            store.assign(x, rng.choice(live))
        elif roll < 0.5 and len(live) > 1:
            store.keep_values(x, rng.sample(live, rng.randint(1, len(live))))
    store.touched.clear()
    return store


def _unit_store(rng, n):
    """``n`` variables, each over 0/1 or -1/1 like knapsack's and LABS's,
    about a quarter of them then assigned at a pushed level."""
    store = DomainStore([Variable(f"v{i}", Domain(rng.choice(((0, 1), (-1, 1))))) for i in range(n)])
    store.push()
    for x in range(n):
        if rng.random() < 0.25:
            store.assign(x, rng.choice(store.init_values[x]))
    store.touched.clear()
    return store


def _random_sum(rng, names, most=5, k=3, r=20):
    """A sum of up to ``most`` terms (a variable may repeat), one
    coefficient in five a variable and the others in ``-k..k``, under any
    operator, its rhs in about ``-r..r``, a variable or an interval."""
    scope = tuple(rng.choice(names) for _ in range(rng.randint(1, most)))
    coeffs = tuple(rng.choice(names) if rng.random() < 0.2 else rng.randint(-k, k) for _ in scope)
    operator = rng.choice(("lt", "le", "ge", "gt", "eq", "ne", "in"))
    if operator == "in":
        lo = rng.randint(-r, r)
        rhs = (lo, lo + rng.randint(-2, 15))
    elif rng.random() < 0.3:
        rhs = rng.choice(names)
    else:
        rhs = rng.randint(-r, r)
    return Sum(scope, coeffs, Condition(operator, rhs))


def _random_all_different(rng, names):
    if rng.random() < 0.5:
        return AllDifferent(tuple(rng.sample(names, rng.randint(1, len(names)))))
    return AllDifferent(tuple(rng.choice(names) for _ in range(rng.randint(1, len(names) + 1))))


def _random_count(rng, store):
    """A count over up to 5 positions (a variable may repeat) of up to 4
    values from -1..6, under any operator, its rhs a constant, a variable
    (possibly in the scope) or an interval."""
    names = store.names
    scope = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
    values = tuple(sorted(rng.sample(range(-1, 7), rng.randint(0, 4))))
    operator = rng.choice(("lt", "le", "ge", "gt", "eq", "ne", "in"))
    if operator == "in":
        lo = rng.randint(-1, 5)
        rhs = (lo, lo + rng.randint(0, 3))
    elif rng.random() < 0.4:
        rhs = rng.choice(names)
    else:
        rhs = rng.randint(-1, 6)
    return Count(scope, values, Condition(operator, rhs))


def _random_cardinality(rng, store):
    """An open or closed cardinality over up to 8 positions (a variable may
    repeat). Its bounds are each value's count, or one off it, in a witness
    drawn mostly from the live values, so that most calls hold and many
    prune; half of them also count a value from -1..8, possibly outside
    every domain."""
    scope = tuple(rng.choice(store.names) for _ in range(rng.randint(1, 8)))
    witness = [
        rng.choice(store.init_values[x] if rng.random() < 0.2 else store.domain_list(x))
        for x in store.indices(scope)
    ]
    values = rng.sample(sorted(set(witness)), rng.randint(1, len(set(witness))))
    extra = rng.randint(-1, 8)
    if extra not in values and rng.random() < 0.5:
        values.append(extra)
    occurs = []
    for v in values:
        k = witness.count(v)
        occurs.append((max(0, k - rng.randint(0, 1)), k + rng.randint(0, 1)))
    return Cardinality(scope, tuple(values), tuple(occurs), closed=rng.random() < 0.5)


def _one_call(prop, store, propagate):
    store.push()
    ok = propagate(prop, store)
    mark = store._marks[-1]
    out = ok, list(store.masks), store._trail[mark:], list(store.touched)
    store.pop()
    store.touched.clear()
    return out


@pytest.mark.parametrize(
    "cls, shape, build, reference",
    [
        (SumProp, (_store, 7, range(-6, 5), 8), _random_sum, reference_sum),
        # a long sum, like knapsack's and LABS's: up to 20 terms over 0/1
        # and -1/1, coefficients up to 30
        (SumProp, (_unit_store, 20), functools.partial(_random_sum, most=20, k=30, r=60), reference_sum),
        # many variables over few values, so that Hall windows fill and
        # their prunes move bounds that later windows read
        (AllDifferentProp, (_store, 10, range(0, 7), 5), _random_all_different, reference_all_different),
        # a permutation, like TSP's successors and magic squares: up to 16
        # variables over 0..15, many of them assigned
        (AllDifferentProp, (_store, 16, range(0, 2), 14), _random_all_different, reference_all_different),
        # a wide one, like Golomb's differences: up to 20 variables over 0..51
        (AllDifferentProp, (_store, 20, range(0, 40), 12), _random_all_different, reference_all_different),
    ],
    ids=["sum", "long-sum", "all-different", "all-different-permutation", "all-different-wide"],
)
@pytest.mark.parametrize("seed", range(4))
def test_one_call_prunes_as_the_reference_pass(cls, shape, build, reference, seed):
    """Over 500 random calls, some fail, more than 25 hold and prune
    nothing, and more than 25 prune. A sum with an interval target that
    holds and prunes nothing is a call in which every term fits the
    slack."""
    rng = random.Random(f"{cls.__name__}-{seed}")
    new_store, most, *sizes = shape
    outcomes = set()
    quiet = pruned = 0
    for _ in range(500):
        store = new_store(rng, rng.randint(1, most), *sizes)
        (prop,) = make_propagators([build(rng, store.names)], store)
        assert isinstance(prop, cls)
        expected = _one_call(prop, store, reference)
        assert _one_call(prop, store, cls.propagate) == expected
        outcomes.add(expected[0])
        quiet += expected[0] and not expected[2]
        pruned += bool(expected[2])
    assert outcomes == {True, False} and quiet > 25 and pruned > 25


@pytest.mark.parametrize(
    "cls, build, reference",
    [(CountProp, _random_count, reference_count), (CardinalityProp, _random_cardinality, reference_cardinality)],
    ids=["count", "cardinality"],
)
@pytest.mark.parametrize("seed", range(4))
def test_one_count_call_prunes_as_the_reference_pass(cls, build, reference, seed):
    """Stores of up to 8 variables over values in 0..6, many of them
    narrowed or assigned."""
    rng = random.Random(f"{cls.__name__}-{seed}")
    outcomes = set()
    pruned = 0
    for _ in range(500):
        store = _store(rng, rng.randint(1, 8), range(0, 4), 3)
        (prop,) = make_propagators([build(rng, store)], store)
        assert isinstance(prop, cls)
        expected = _one_call(prop, store, reference)
        got = _one_call(prop, store, cls.propagate)
        assert got[0] == expected[0]
        if expected[0]:
            assert got == expected
        outcomes.add(expected[0])
        pruned += bool(expected[2])
    assert outcomes == {True, False} and pruned > 25


def test_a_variable_fixed_by_a_hall_prune_still_cuts_its_singleton_window():
    """No variable is assigned when the call begins. The full window 1..2
    (``p`` and ``q``) fixes ``r`` to 4; the one-value window 4..4 that
    follows must then take 4 from ``s``: only the values assigned at the
    start of the call have left the other domains."""
    domains = {"p": (1, 2), "q": (1, 2), "r": (2, 4), "s": (4, 5)}
    store = DomainStore([Variable(name, Domain(values)) for name, values in domains.items()])
    (prop,) = make_propagators([AllDifferent(tuple(domains))], store)
    expected = _one_call(prop, store, reference_all_different)
    assert _one_call(prop, store, AllDifferentProp.propagate) == expected
    assert prop.propagate(store)
    assert [store.domain_list(x) for x in range(4)] == [[1, 2], [1, 2], [4], [5]]


def test_a_full_window_after_windows_that_cannot_be_full_cuts():
    """At ``a = 0`` the upper bounds are 2, 2, 2, 4: windows 0..0 and 0..1
    cannot be full, and 0..2 is, filled by ``p``, ``q`` and ``r``; ``s``
    overlaps it without fitting in it and loses 2."""
    domains = {"p": (0, 1, 2), "q": (0, 1, 2), "r": (0, 1, 2), "s": (2, 3, 4)}
    store = DomainStore([Variable(name, Domain(values)) for name, values in domains.items()])
    (prop,) = make_propagators([AllDifferent(tuple(domains))], store)
    expected = _one_call(prop, store, reference_all_different)
    assert _one_call(prop, store, AllDifferentProp.propagate) == expected
    assert prop.propagate(store)
    assert [store.domain_list(x) for x in range(4)] == [[0, 1, 2], [0, 1, 2], [0, 1, 2], [3, 4]]


@pytest.mark.parametrize("rhs, b", [(2, [-1, 1]), (3, [1])], ids=["widest-at-the-slack", "widest-one-past-it"])
def test_a_term_is_narrowed_only_when_wider_than_the_slack(rhs, b):
    """``3a + 2b + c >= rhs`` over a in 0/1, b in -1/1 and c in -1..1: the
    terms span 0..3, -2..2 and -1..1, so the total is -3..6 and the slack
    ``6 - rhs``. The widest term, 2b, is at the slack for rhs 2, so nothing
    goes, and one past it for rhs 3, so b loses -1."""
    domains = {"a": (0, 1), "b": (-1, 1), "c": (-1, 0, 1)}
    store = DomainStore([Variable(name, Domain(values)) for name, values in domains.items()])
    (prop,) = make_propagators([Sum(("a", "b", "c"), (3, 2, 1), Condition("ge", rhs))], store)
    expected = _one_call(prop, store, reference_sum)
    assert _one_call(prop, store, SumProp.propagate) == expected
    assert prop.propagate(store)
    assert [store.domain_list(x) for x in range(3)] == [[0, 1], b, [-1, 0, 1]]


# -- large linear intensions: the Sum pass against interval filtering


def _random_side(rng, leaf, depth):
    """A linear side: ``add``, ``sub``, ``neg`` and ``mul`` by a constant
    (possibly 0 or negative) over the leaves ``leaf`` draws."""
    if depth == 0 or rng.random() < 0.3:
        return leaf()
    kind = rng.choice(("add", "sub", "neg", "mul"))
    if kind == "neg":
        return op("neg", _random_side(rng, leaf, depth - 1))
    if kind == "mul":
        factors = [IntConst(rng.randint(-3, 3)), _random_side(rng, leaf, depth - 1)]
        rng.shuffle(factors)
        return op("mul", *factors)
    arity = 2 if kind == "sub" else rng.randint(2, 3)
    return op(kind, *(_random_side(rng, leaf, depth - 1) for _ in range(arity)))


def _random_linear(rng, names, repeats):
    """A comparison of two linear sides over ``names``, each at most once
    unless ``repeats``; a leaf is a constant one time in four, and always
    once the names are used up."""
    unused = list(names)
    rng.shuffle(unused)

    def leaf():
        if rng.random() < 0.25 or not (repeats or unused):
            return IntConst(rng.randint(-4, 4))
        return VarRef(rng.choice(names) if repeats else unused.pop())

    kind = rng.choice(("eq", "ne", "lt", "le", "gt", "ge"))
    return op(kind, _random_side(rng, leaf, 3), _random_side(rng, leaf, 3))


def _fixpoint(propagate, store):
    """Call ``propagate`` until it fails or prunes nothing; the live
    values of every variable, or None on a failure."""
    while True:
        masks = list(store.masks)
        if not propagate(store):
            return None
        if store.masks == masks:
            return [store.domain_list(x) for x in range(len(store.names))]


def _gac(fn, scope, store):
    """Brute-force GAC of a predicate on tuples of ``scope``'s values."""
    kept = [set() for _ in scope]
    for combo in itertools.product(*(store.domain_list(x) for x in scope)):
        if fn(combo):
            for seen, v in zip(kept, combo):
                seen.add(v)
    if not all(kept):
        return None
    values = [store.domain_list(x) for x in range(len(store.names))]
    for x, seen in zip(scope, kept):
        values[x] = sorted(seen)
    return values


def _within(inner, outer):
    """Whether every domain of ``inner`` lies inside ``outer``'s; a failure
    (None) lies inside anything and contains only a failure."""
    if inner is None:
        return True
    return outer is not None and all(set(a) <= set(b) for a, b in zip(inner, outer))


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("seed", range(4))
def test_a_linear_intension_reaches_the_fixpoint_of_interval_filtering(repeats, seed, monkeypatch):
    """Both caps at 0, so that every call is the Sum pass, as for a live
    product above ``_SCAN_CAP``. Stores have holes, assigned variables and
    narrowed ones; sides have negative and zero coefficients and constants."""
    monkeypatch.setattr(propagators, "_TABLE_CAP", 0)
    monkeypatch.setattr(propagators, "_SCAN_CAP", 0)
    rng = random.Random(f"linear-{repeats}-{seed}")
    outcomes, pruned, narrower = set(), 0, 0
    for _ in range(400):
        store = _store(rng, rng.randint(1, 4), range(-6, 5), 8)
        expression = _random_linear(rng, store.names, repeats)
        (prop,) = make_propagators([Intension(expression)], store)
        if not prop.scope:
            continue
        assert isinstance(prop, IntensionProp) and prop.linear is not None and not prop.idempotent
        position = {store.names[x]: i for i, x in enumerate(prop.scope)}
        store.push()
        got = _fixpoint(prop.propagate, store)
        store.pop()
        store.push()
        bounds_fn = compile_expr(expression, position, bounds=True)
        expected = _fixpoint(lambda s: reference_interval_filter(bounds_fn, prop.scope, s), store)
        store.pop()
        gac = _gac(compile_expr(expression, position, bounds=False), prop.scope, store)
        pruned += got is not None and got != [store.domain_list(x) for x in range(len(store.names))]
        assert _within(gac, got), expression
        if repeats:
            assert _within(got, expected), expression
            narrower += got != expected
        else:
            assert got == expected, expression
        outcomes.add(got is None)
    assert outcomes == {True, False} and pruned > 25
    if repeats:
        assert narrower > 0


def test_a_linear_intension_beyond_64_bits_keeps_interval_filtering():
    """``mul`` folds its constants into one coefficient, here 2**310, far
    beyond the 64-bit sums the Sum pass's infinite bounds are sized for:
    that pass would round ``x <= 0`` to ``x = 0`` and lose ``x = -1``."""
    store = DomainStore([Variable("x", Domain((-1, *range(9001))))])
    expression = op("le", op("mul", *(2**62 for _ in range(5)), "x"), 0)
    (prop,) = make_propagators([Intension(expression)], store)
    assert prop.linear is None and prop.bounds_fn is not None
    assert _fixpoint(prop.propagate, store) == [[-1, 0]]


# -- unit linear equalities: the offset pass against the compact table

_OFFSETS = (
    "eq({0},add({1},{k}))",
    "eq(add({k},{0}),{1})",
    "eq({0},add({1},{2},{k}))",
    "eq(add({0},{k}),sub({1},neg({2})))",
    "eq({0},sub({1},{2}))",
    "eq(sub({0},{1}),{k})",
    "eq({0},{1})",
)


def _random_offset(rng, names):
    """A unit linear equality over two or three distinct variables; its
    offset is mostly small, negative or not, else past every domain or
    ±10**18."""
    far = rng.choice((-1, 1)) * rng.choice((rng.randint(9, 30), 10**18))
    k = far if rng.random() < 0.1 else rng.randint(-4, 4)
    return Intension(parse_expr(rng.choice(_OFFSETS).format(*rng.sample(names, 3), k=k)))


@pytest.mark.parametrize("seed", range(4))
def test_one_offset_call_prunes_as_the_compact_table(seed):
    """Stores of 3 to 5 variables over intervals in -3..8, many narrowed or
    assigned: over 500 random stores, some calls fail, more than 25 hold
    and prune nothing, and more than 25 prune."""
    rng = random.Random(f"offset-{seed}")
    outcomes = set()
    quiet = pruned = 0
    for _ in range(500):
        store = _store(rng, rng.randint(3, 5), range(-3, 3), 6, holes=False)
        c = _random_offset(rng, store.names)
        (prop,) = make_propagators([c], store)
        assert isinstance(prop, IntensionProp) and prop.offset is not None and prop.supports is None
        assert prop.idempotent and prop.value_watch is None
        # a quarter of the stores start at the pass's fixpoint
        if rng.random() < 0.25 and not prop.propagate(store):
            continue
        store.touched.clear()
        domains = [store.init_values[x] for x in prop.scope]
        position = {store.names[x]: i for i, x in enumerate(prop.scope)}
        rows = filter(compile_expr(c.expr, position, bounds=False), itertools.product(*domains))
        supports = propagators._support_masks(store, prop.scope, rows)
        expected = _one_call(prop, store, lambda p, s: reference_ct_filter(s, p.scope, supports))
        assert _one_call(prop, store, IntensionProp.propagate) == expected, c
        outcomes.add(expected[0])
        quiet += expected[0] and not expected[2]
        pruned += bool(expected[2])
    assert outcomes == {True, False} and quiet > 25 and pruned > 25


@pytest.mark.parametrize("k", [10**18, -(10**18)])
def test_an_offset_past_every_domain_fails_at_the_root(k):
    """An empty relation, as its table was: the shift is clamped, so no
    int of 10**18 bits is built."""
    variables = (Variable("x", Domain.rng(0, 5)), Variable("y", Domain.rng(0, 5)))
    c = Intension(parse_expr(f"eq(x,add(y,{k}))"))
    store = DomainStore(variables)
    (prop,) = make_propagators([c], store)
    assert prop.offset is not None
    out = solve(Instance("CSP", variables, (c,)))
    assert (out.status, out.stats.nodes) == ("UNSAT", 0)


# -- conflicts tables: the pass over the conflict rows against the complement


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
    position i's variable first appears at position ``first[i]``."""
    for row in rows:
        value = {}
        for f, e in zip(first, row):
            if value.setdefault(f, e) != e:
                break
        else:
            yield row


def _support_masks(store, scope, rows):
    """Per-position, per-value-bit row masks of rows over the initial
    domains."""
    supports = [[0] * len(store.init_values[x]) for x in scope]
    for r, row in enumerate(rows):
        for per_value, x, v in zip(supports, scope, row):
            per_value[store.pos[x][v]] |= 1 << r
    return supports


def reference_complement_masks(store, scope, table):
    """The support masks of a conflicts table's complement over the initial
    domains, keeping only the tuples that give a repeated variable one
    value."""
    tuples = filter(_matching_none(table.rows), itertools.product(*(store.init_values[x] for x in scope)))
    return _support_masks(store, scope, _one_value_per_variable(tuples, list(map(scope.index, scope))))


def _random_conflicts(rng, store):
    """A conflicts table over 1 to 4 positions (a variable may repeat) of
    up to 16 rows, each entry a STAR about one time in seven, else a value
    of the position's initial domain or one just outside it."""
    scope = tuple(rng.choice(store.names) for _ in range(rng.randint(1, 4)))
    domains = [store.init_values[store.index[v]] for v in scope]
    rows = {
        tuple(
            STAR if rng.random() < 0.15 else rng.choice(d) if rng.random() < 0.9 else rng.choice((d[0] - 1, d[-1] + 1))
            for d in domains
        )
        for _ in range(rng.randint(1, 16))
    }
    return Extension(scope, conflicts(len(scope), sorted(rows, key=str)))


@pytest.mark.parametrize("seed", range(4))
def test_one_conflicts_call_prunes_as_the_complement(seed):
    """Stores of 2 to 4 variables over at most 4 values, many narrowed or
    assigned: over 500 random conflicts tables, one call over the table's
    own rows leaves the same domains, trail, touched list and return value
    as the compact table over its complement. Some calls fail, more than 25
    hold and prune nothing, and more than 25 prune."""
    rng = random.Random(f"conflicts-{seed}")
    outcomes = set()
    quiet = pruned = 0
    for _ in range(500):
        store = _store(rng, rng.randint(2, 4), range(-1, 2), 3)
        c = _random_conflicts(rng, store)
        (prop,) = make_propagators([c], store)
        assert isinstance(prop, TableProp) and prop.idempotent
        supports = reference_complement_masks(store, prop.scope, c.table)
        expected = _one_call(prop, store, lambda p, s: reference_ct_filter(s, p.scope, supports))
        assert _one_call(prop, store, TableProp.propagate) == expected, c
        outcomes.add(expected[0])
        quiet += expected[0] and not expected[2]
        pruned += bool(expected[2])
    assert outcomes == {True, False} and quiet > 25 and pruned > 25
