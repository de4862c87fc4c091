"""Differential tests: one call of ``SumProp`` and of ``AllDifferentProp``
prunes exactly as the pass it replaced, kept here as reference functions
that read each bound through ``min_value``/``max_value``, narrow through
``keep_bits(interval_mask(...))``, rebuild the Sum target on every call
and rebuild the Hall upper bounds for every window start. Both must leave
the same domains, the same trail entries in the same order, the same
touched list and the same return value."""

import random
from bisect import bisect_left, bisect_right

import pytest

from xcspkit.engine import DomainStore
from xcspkit.engine.propagators import INF, AllDifferentProp, SumProp, make_propagators
from xcspkit.model import AllDifferent, Condition, Domain, Sum, Variable

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
