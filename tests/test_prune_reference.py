"""Differential tests: one call of ``SumProp`` and of ``AllDifferentProp``
prunes exactly as the pass it replaced, kept here as reference functions
that read each bound through ``min_value``/``max_value``, narrow through
``keep_bits(interval_mask(...))``, rebuild the Sum target on every call
and rebuild the Hall upper bounds for every window start. Both must leave
the same domains, the same trail entries in the same order, the same
touched list and the same return value.

A large linear intension runs the Sum pass where it ran interval
filtering, kept here as a reference too: both must reach the same
fixpoint when no variable repeats, and with repeats a fixpoint between
brute-force GAC and the reference's."""

import itertools
import random
from bisect import bisect_left, bisect_right

import pytest

from xcspkit.engine import DomainStore, propagators
from xcspkit.engine.propagators import INF, AllDifferentProp, IntensionProp, SumProp, make_propagators
from xcspkit.expr import compile_expr, const, op, var
from xcspkit.model import AllDifferent, Condition, Domain, Intension, Sum, Variable

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
    rhs_folded = prop.rhs_idx is not None
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


def _store(rng, n, starts, width):
    """``n`` variables, each over the ends of an interval that starts in
    ``starts`` and is at most ``width`` wider, and about half of its inner
    values; then narrowed at a pushed level, some to one value, some to a
    random subset."""
    variables = []
    for i in range(n):
        lo = rng.choice(starts)
        hi = lo + rng.randint(0, width)
        values = [v for v in range(lo, hi + 1) if v in (lo, hi) or rng.random() < 0.5]
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


def _random_sum(rng, names):
    scope = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
    coeffs = tuple(rng.choice(names) if rng.random() < 0.2 else rng.randint(-3, 3) for _ in scope)
    operator = rng.choice(("lt", "le", "ge", "gt", "eq", "ne", "in"))
    if operator == "in":
        lo = rng.randint(-20, 20)
        rhs = (lo, lo + rng.randint(-2, 15))
    elif rng.random() < 0.3:
        rhs = rng.choice(names)
    else:
        rhs = rng.randint(-20, 20)
    return Sum(scope, coeffs, Condition(operator, rhs))


def _random_all_different(rng, names):
    if rng.random() < 0.5:
        return AllDifferent(tuple(rng.sample(names, rng.randint(1, len(names)))))
    return AllDifferent(tuple(rng.choice(names) for _ in range(rng.randint(1, len(names) + 1))))


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
        (SumProp, (7, range(-6, 5), 8), _random_sum, reference_sum),
        # many variables over few values, so that Hall windows fill and
        # their prunes move bounds that later windows read
        (AllDifferentProp, (10, range(0, 7), 5), _random_all_different, reference_all_different),
        # a permutation, like TSP's successors and magic squares: up to 16
        # variables over 0..15, many of them assigned
        (AllDifferentProp, (16, range(0, 2), 14), _random_all_different, reference_all_different),
        # a wide one, like Golomb's differences: up to 20 variables over 0..51
        (AllDifferentProp, (20, range(0, 40), 12), _random_all_different, reference_all_different),
    ],
    ids=["sum", "all-different", "all-different-permutation", "all-different-wide"],
)
@pytest.mark.parametrize("seed", range(4))
def test_one_call_prunes_as_the_reference_pass(cls, shape, build, reference, seed):
    rng = random.Random(f"{cls.__name__}-{seed}")
    most, starts, width = shape
    outcomes = set()
    pruned = 0
    for _ in range(500):
        store = _store(rng, rng.randint(1, most), starts, width)
        (prop,) = make_propagators([build(rng, store.names)], store)
        assert isinstance(prop, cls)
        expected = _one_call(prop, store, reference)
        assert _one_call(prop, store, cls.propagate) == expected
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
        factors = [const(rng.randint(-3, 3)), _random_side(rng, leaf, depth - 1)]
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
            return const(rng.randint(-4, 4))
        return var(rng.choice(names) if repeats else unused.pop())

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
    expression = op("le", op("mul", *(const(2**62) for _ in range(5)), var("x")), const(0))
    (prop,) = make_propagators([Intension(expression)], store)
    assert prop.linear is None and prop.bounds_fn is not None
    assert _fixpoint(prop.propagate, store) == [[-1, 0]]
