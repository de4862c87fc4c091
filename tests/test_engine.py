"""Engine tests: propagation fixpoint examples, solver verdicts against
the generate-and-test oracle, trail exactness, determinism, bounds."""

import dataclasses
import itertools
import math
import random
import time
from collections import deque

import pytest

from helpers import brute_force, search_space
from test_generators import MARIO_DATA, MISTERY_DATA, RCPSP_DATA
from xcspkit.engine import (
    DomainStore,
    SearchConfig,
    enumerate_all,
    optimize,
    propagate_to_fixpoint,
    solve,
)
from xcspkit.engine import search
from xcspkit.engine.propagators import _SCAN_CAP, IntensionProp, TableProp, _defined_variable, make_propagators
from xcspkit.engine.search import _CLEAN, PropagationEngine, _Search, _improving
from xcspkit.errors import InvalidInstanceError
from xcspkit.expr import evaluate, expr_vars, parse_expr
from xcspkit.generators import (
    gen_bibd,
    gen_coloured_queens,
    gen_dubois,
    gen_golomb_ruler,
    gen_graph_coloring,
    gen_knapsack,
    gen_langford,
    gen_low_autocorrelation,
    gen_magic_hexagon,
    gen_magic_square,
    gen_mario,
    gen_mistery_shopper,
    gen_rcpsp,
    gen_social_golfers,
    gen_still_life,
    gen_tsp,
)
from xcspkit.io import parse_instance, write_instance
from xcspkit.model import (
    AllDifferent,
    Assignment,
    Condition,
    Domain,
    Element,
    Extension,
    Instance,
    Intension,
    Objective,
    Ordered,
    STAR,
    Slide,
    Sum,
    Table,
    Variable,
    conflicts,
    constraint_satisfied,
    objective_value,
    supports,
)

KNAPSACK_DATA = {
    "capacity": 10,
    "items": [
        {"weight": 2, "value": 54},
        {"weight": 2, "value": 92},
        {"weight": 1, "value": 62},
        {"weight": 2, "value": 20},
        {"weight": 2, "value": 55},
    ],
}


def make(variables, constraints, objective=None, decision=()):
    return Instance("COP" if objective else "CSP", tuple(variables), tuple(constraints), objective, decision)


def _root_fixpoint(instance):
    """The store and the engine after the root fixpoint, which must hold."""
    store = DomainStore(instance.variables)
    engine = PropagationEngine(store, make_propagators(instance.constraints, store))
    engine.enqueue_all()
    assert engine.fixpoint() is None
    return store, engine


class TestPropagateToFixpoint:
    def test_table_prunes_to_supported_pair(self):
        variables = (Variable("x", Domain.rng(0, 1)), Variable("y", Domain.of(1)))
        store = DomainStore(variables)
        c = Extension(("x", "y"), supports(2, [(0, 0), (1, 1)]))
        assert propagate_to_fixpoint(store, (c,)) is None
        assert store.domain_list(0) == [1]

    def test_sum_bounds(self):
        variables = (Variable("x", Domain.rng(0, 5)), Variable("y", Domain.rng(4, 5)))
        store = DomainStore(variables)
        c = Sum(("x", "y"), (1, 1), Condition("eq", 5))
        assert propagate_to_fixpoint(store, (c,)) is None
        assert store.domain_list(0) == [0, 1]

    def test_pigeonhole_conflict(self):
        variables = tuple(Variable(v, Domain.rng(1, 2)) for v in "abc")
        store = DomainStore(variables)
        c = AllDifferent(("a", "b", "c"))
        assert propagate_to_fixpoint(store, (c,)) == 0

    def test_all_different_over_a_repeated_variable_fails_at_once(self):
        """No assignment gives x two different values, so the root fixpoint
        fails and the search needs no node."""
        variables = (Variable("x", Domain.rng(0, 3)), Variable("y", Domain.rng(0, 3)))
        c = AllDifferent(("x", "y", "x"))
        assert propagate_to_fixpoint(DomainStore(variables), (c,)) == 0
        out = solve(make(list(variables), [c]))
        assert (out.status, out.stats.nodes) == ("UNSAT", 0)

    def test_conflict_reports_constraint_index(self):
        variables = (Variable("x", Domain.rng(0, 3)),)
        store = DomainStore(variables)
        cs = (
            Intension(parse_expr("le(x,2)")),
            Extension(("x",), supports(1, [(3,)])),
        )
        assert propagate_to_fixpoint(store, cs) in (0, 1)
        # the wipe-out is attributed to a real constraint index
        assert propagate_to_fixpoint(DomainStore(variables), cs) < len(cs)

    def test_golomb_12_root_fixpoint_is_pinned(self):
        """Its large intensions are linear, so they reach the Sum pass: the
        domain sizes left and the propagations made are pinned."""
        instance = gen_golomb_ruler(12)
        store = DomainStore(instance.variables)
        engine = PropagationEngine(store, make_propagators(instance.constraints, store))
        engine.enqueue_all()
        assert engine.fixpoint() is None
        assert (sum(store.size(x) for x in range(len(store))), engine.propagations) == (10_672, 458)
        # each eq(x[j], add(x[i], y[i][j])) has 20,880 rows over x[i] and y[i][j], above _TABLE_CAP
        assert not any(isinstance(p, IntensionProp) and p.supports is not None for p in engine.props)

    @pytest.mark.parametrize(
        "build, values, propagations",
        [
            # 720 arity-4 or(ne, ne), each tabled (256 rows)
            (lambda: gen_social_golfers(4, 4, 4), 172, 1_278),
            # 9 linear ge(sub(v, v), c) above _TABLE_CAP
            (lambda: gen_still_life(8), 1_389, 180),
        ],
        ids=["social-golfers-4-4-4", "still-life-8"],
    )
    def test_root_fixpoint_is_pinned(self, build, values, propagations):
        store, engine = _root_fixpoint(build())
        assert (sum(store.size(x) for x in range(len(store))), engine.propagations) == (values, propagations)

    def test_no_load_instance_filters_an_intension_value_by_value(self, monkeypatch):
        """The large generator instances have no intension that reaches the
        per-value bounds closure: each is tabled or linear."""

        def refuse(prop, store):
            raise AssertionError(f"_interval_filter on {prop.constraint}")

        monkeypatch.setattr(IntensionProp, "_interval_filter", refuse)
        for instance in (
            gen_golomb_ruler(12),
            gen_social_golfers(4, 4, 4),
            gen_still_life(8),
            gen_still_life(12),
            gen_low_autocorrelation(40),
        ):
            _root_fixpoint(instance)

    def test_table_over_a_repeated_variable_is_gac(self):
        """Only the rows that give a repeated variable one value count; a
        STAR takes the value of the variable's other position."""
        b01 = Variable("b", Domain.rng(0, 1))
        store = DomainStore((b01,))
        assert propagate_to_fixpoint(store, (Extension(("b", "b"), supports(2, [(0, 1), (1, 0)])),)) == 0
        store = DomainStore((b01, Variable("c", Domain.rng(0, 1))))
        c = Extension(("b", "c", "b"), supports(3, [(0, 1, 1), (1, 0, STAR), (STAR, 0, 0)]))
        assert propagate_to_fixpoint(store, (c,)) is None
        assert (store.domain_list(0), store.domain_list(1)) == ([0, 1], [0])
        store = DomainStore((b01, Variable("c", Domain.rng(0, 1))))
        c = Extension(("b", "c", "b"), conflicts(3, [(0, STAR, 0), (1, 1, 1)]))
        assert propagate_to_fixpoint(store, (c,)) is None
        assert (store.domain_list(0), store.domain_list(1)) == ([1], [0])

    def test_an_open_side_reaches_beyond_every_64_bit_value(self):
        """``x <= y`` keeps y = 2e18, and ``x + y <= 5`` keeps x = -5e18
        (with y = 0), although both lie beyond 10**18."""
        variables = (Variable("x", Domain.of(0)), Variable("y", Domain((0, 2 * 10**18))))
        store = DomainStore(variables)
        assert propagate_to_fixpoint(store, (Ordered(("x", "y"), "le"),)) is None
        assert store.domain_list(1) == [0, 2 * 10**18]
        huge = Domain((-5 * 10**18, *range(100)))
        for c in (Sum(("x", "y"), (1, 1), Condition("le", 5)), Intension(parse_expr("le(add(x,y),5)"))):
            store = DomainStore((Variable("x", huge), Variable("y", huge)))
            assert propagate_to_fixpoint(store, (c,)) is None
            assert store.min_value(0) == -5 * 10**18

    def test_unordered_initial_domain_is_refused(self):
        variables = (Variable("x", Domain((2, 0, 1))),)
        with pytest.raises(InvalidInstanceError, match="ascending"):
            propagate_to_fixpoint(DomainStore(variables), (Sum(("x",), (1,), Condition("le", 1)),))


class TestTrailExactness:
    def test_push_propagate_pop_restores_exactly(self):
        rng = random.Random(5)
        variables = tuple(Variable(f"v{i}", Domain.rng(0, 4)) for i in range(4))
        store = DomainStore(variables)
        baseline = store.snapshot()
        snapshots = [baseline]
        for _ in range(60):
            action = rng.random()
            if action < 0.45 or store.level == 0:
                store.push()
                x = rng.randrange(4)
                if store.size(x) > 1:
                    store.remove_value(x, next(iter(store.values(x))))
                snapshots.append(store.snapshot())
            else:
                store.pop()
                snapshots.pop()
                assert store.snapshot() == snapshots[-1]
        store.pop_all()
        assert store.snapshot() == baseline


class TestSolve:
    def test_dubois_unsat(self):
        for n in (3, 4):
            out = solve(gen_dubois(n))
            assert out.status == "UNSAT"

    def test_langford_sat_with_valid_witness(self):
        inst = gen_langford(3)
        out = solve(inst)
        assert out.status == "SAT"
        for c in inst.constraints:
            assert constraint_satisfied(c, out.witness)

    def test_empty_unary_conflict_is_unsat_at_root(self):
        inst = make(
            [Variable("x", Domain.rng(0, 2))],
            [Extension(("x",), Extension(("x",), supports(1, [])).table)],
        )
        out = solve(inst)
        assert out.status == "UNSAT"
        assert out.stats.nodes == 0

    def test_requires_csp(self):
        inst = make(
            [Variable("x", Domain.rng(0, 2))],
            [],
            Objective("minimize", "variable", ("x",)),
        )
        with pytest.raises(InvalidInstanceError):
            solve(inst)

    def test_decision_variables_honored(self):
        # y is functionally determined by x through propagation
        inst = Instance(
            "CSP",
            (Variable("x", Domain.rng(0, 3)), Variable("y", Domain.rng(0, 3))),
            (Intension(parse_expr("eq(y,x)")),),
            None,
            ("x",),
        )
        out = solve(inst)
        assert out.status == "SAT"
        assert out.witness["y"] == out.witness["x"]


class TestOptimize:
    def test_knapsack_paper_optimum(self):
        out = optimize(gen_knapsack(KNAPSACK_DATA))
        assert out.status == "OPTIMUM"
        assert out.bound == 283

    def test_golomb4(self):
        out = optimize(gen_golomb_ruler(4))
        assert out.status == "OPTIMUM"
        assert out.bound == 6

    def test_monotonic_improving_bounds(self):
        bounds = []
        out = optimize(gen_knapsack(KNAPSACK_DATA), on_bound=bounds.append)
        assert bounds == sorted(bounds)
        assert bounds[-1] == out.bound
        assert len(set(bounds)) == len(bounds)

    def test_unsat_cop(self):
        inst = make(
            [Variable("x", Domain.rng(0, 1)), Variable("y", Domain.rng(0, 1))],
            [Intension(parse_expr("lt(x,y)")), Intension(parse_expr("lt(y,x)"))],
            Objective("minimize", "variable", ("x",)),
        )
        assert optimize(inst).status == "UNSAT"


class TestEnumerate:
    def test_two_vars_ne(self):
        inst = make(
            [Variable("x", Domain.rng(0, 1)), Variable("y", Domain.rng(0, 1))],
            [Intension(parse_expr("ne(x,y)"))],
        )
        out = enumerate_all(inst)
        assert (out.count, out.exact) == (2, True)

    def test_dubois_zero(self):
        out = enumerate_all(gen_dubois(3))
        assert (out.count, out.exact) == (0, True)

    def test_magic_square_3_has_8_solutions(self):
        out = enumerate_all(gen_magic_square(3))
        assert (out.count, out.exact) == (8, True)
        # the first solution found pins the search order
        assert tuple(out.witness.bindings.values()) == (2, 9, 4, 7, 5, 3, 6, 1, 8)

    def test_cap_truncation(self):
        inst = make([Variable("x", Domain.rng(0, 9))], [])
        out = enumerate_all(inst, cap=4)
        assert (out.count, out.exact) == (4, False)


class TestTimeouts:
    def test_solve_timeout_is_unknown(self):
        # far too little time to exhaust the tree, no solution to stumble on
        out = solve(gen_dubois(20), SearchConfig(time_limit=0.3))
        assert out.status == "UNKNOWN"
        assert out.witness is None and out.bound is None

    def test_optimize_timeout_keeps_incumbent(self):
        from xcspkit.harness import verify

        inst = gen_golomb_ruler(7)
        out = optimize(inst, SearchConfig(time_limit=2.0))
        assert out.status in ("SAT", "OPTIMUM")
        assert out.witness is not None
        assert verify(inst, out.witness, out.bound).ok


class TestVariableLengthNoOverlap:
    def test_strip_packing_solves_sat(self):
        # rotatable rectangles: lengths are variables, not constants
        from xcspkit.generators import gen_strip_packing
        from xcspkit.harness import verify

        data = {
            "container": {"width": 4, "height": 3},
            "rectangles": [{"width": 2, "height": 3}, {"width": 2, "height": 2}],
        }
        inst = gen_strip_packing(data)
        out = solve(inst, SearchConfig(time_limit=30))
        assert out.status == "SAT"
        assert verify(inst, out.witness).ok


class TestIntervalPrimitive:
    @pytest.mark.parametrize("seed", range(20))
    def test_interval_mask_and_restrict_match_value_mask(self, seed):
        rng = random.Random(seed)
        values = sorted(rng.sample(range(-12, 13), rng.randint(1, 10)))
        store = DomainStore((Variable("x", Domain(tuple(values))),))
        for _ in range(60):
            # bounds may cross (lo > hi) or lie outside the domain
            lo, hi = rng.randint(-16, 16), rng.randint(-16, 16)
            expected = store.value_mask(0, range(lo, hi + 1))
            assert store.interval_mask(0, lo, hi) == expected
            store.push()
            store.remove_bits(0, rng.getrandbits(len(values) - 1))  # never the top value
            vmin, vmax = store.bounds(0)
            assert (vmin, vmax) == (store.min_value(0), store.max_value(0))
            # a restrict that cuts nothing trails and touches nothing
            trail, touched = len(store._trail), list(store.touched)
            assert store.restrict(0, vmin - rng.randint(0, 3), vmax + rng.randint(0, 3))
            assert (len(store._trail), store.touched) == (trail, touched)
            kept = store.masks[0] & expected
            assert store.restrict(0, lo, hi) == (kept != 0)
            assert store.masks[0] == kept
            store.pop()


# (expression, whether it is eq(z, f(rest)) with z not in rest)
SCAN_EXPRESSIONS = [
    ("eq(z,add(x,y))", True),
    ("eq(sub(x,y),z)", True),
    ("eq(x,mul(y,-3))", True),
    ("eq(x,y)", True),
    ("eq(z,add(z,x))", False),
    ("eq(x,dist(y,x))", False),
    ("ge(sub(x,y),z)", False),
    ("le(abs(x),y)", False),
    ("or(lt(x,y),eq(z,neg(x)))", False),
]


def _brute_force_gac(allowed, store):
    """Supported values per variable over the current domains, or None;
    ``allowed`` tells whether a tuple of values, in store order, is in the
    relation."""
    supported = [set() for _ in store.names]
    for combo in itertools.product(*(store.domain_list(x) for x in range(len(store)))):
        if allowed(combo):
            for seen, v in zip(supported, combo):
                seen.add(v)
    return supported if supported[0] else None


def _holds(text, names):
    """Whether the expression holds on a tuple of values of ``names``."""
    expr = parse_expr(text)
    return lambda combo: evaluate(expr, dict(zip(names, combo)))


@pytest.mark.parametrize("text, functional", SCAN_EXPRESSIONS)
def test_intension_gac_pass_equals_brute_force(text, functional):
    """Intensions with an initial product above _SCAN_CAP are tabled and get
    the GAC pass on every call, whatever the live product, by a table built
    with the propagator that survives every pop."""
    rng = random.Random(text)
    names = list(dict.fromkeys(expr_vars(parse_expr(text))))
    size = 50 if len(names) == 2 else 13  # initial product above _SCAN_CAP
    store = DomainStore(
        [Variable(n, Domain(tuple(sorted(rng.sample(range(-40, 41), size))))) for n in names]
    )
    (prop,) = make_propagators([Intension(parse_expr(text))], store)
    masks = prop.supports
    assert masks is not None and (_defined_variable(parse_expr(text)) is not None) == functional
    outcomes, products = set(), set()
    for _ in range(30):
        store.push()
        for _ in range(rng.randint(1, 3)):
            keep = rng.choice((1, 2, 4, 12, size))
            for x in range(len(names)):
                live = store.domain_list(x)
                store.keep_values(x, rng.sample(live, min(keep, len(live))))
            products.add(math.prod(map(store.size, range(len(names)))) > _SCAN_CAP)
            expected = _brute_force_gac(_holds(text, names), store)
            ok = prop.propagate(store)
            outcomes.add(ok)
            assert ok == (expected is not None)
            if not ok:
                break
            assert [set(store.values(x)) for x in range(len(names))] == expected
        store.pop()
    assert outcomes == {True, False} and products == {True, False}
    assert prop.supports is masks and prop.residues is None and prop.bounds_fn is None


def _intension_above_the_table_cap(text, size):
    def build(rng):
        names = list(dict.fromkeys(expr_vars(parse_expr(text))))
        variables = [Variable(n, Domain(tuple(sorted(rng.sample(range(-60, 61), size))))) for n in names]
        return variables, Intension(parse_expr(text)), _holds(text, names)

    return text, build


def _conflicts_above_the_complement_cap(rng):
    """Three 50-value domains (125,000 tuples): the first value of x is
    forbidden with every (y, z), two STAR rows forbid more slices, and
    about half of all tuples are forbidden one by one, so that values of
    narrowed domains often lose their last support."""
    domains = [tuple(sorted(rng.sample(range(-60, 61), 50))) for _ in "xyz"]
    x, y, z = domains
    rows = [(x[0], b, c) for b in y for c in z]
    rows += [(STAR, y[1], STAR), (x[1], STAR, z[1])]
    rows += [combo for combo in itertools.product(*domains) if rng.random() < 0.5]
    forbidden = {
        combo
        for row in rows
        for combo in itertools.product(*((e,) if e != STAR else d for e, d in zip(row, domains)))
    }
    variables = [Variable(n, Domain(d)) for n, d in zip("xyz", domains)]
    return variables, Extension(("x", "y", "z"), conflicts(3, rows)), lambda combo: combo not in forbidden


def _conflicts_on_a_repeated_scope_above_the_complement_cap(rng):
    """Scope (x, y, x, z) over three 20-value domains (160,000 tuples of
    positions): about half of the tuples that give x one value, a row that
    gives x two values, and STAR rows, one of which forbids x[2] through
    the second x position only."""
    domains = [tuple(sorted(rng.sample(range(-30, 31), 20))) for _ in "xyz"]
    x, y, z = domains
    rows = [(a, b, a, c) for a, b, c in itertools.product(*domains) if rng.random() < 0.5]
    rows += [(x[0], y[0], x[1], z[0]), (STAR, y[1], STAR, STAR), (STAR, STAR, x[2], STAR), (x[3], STAR, STAR, z[1])]
    forbidden = {
        (a, b, c)
        for row in rows
        for a, b, a2, c in itertools.product(*((e,) if e != STAR else d for e, d in zip(row, (x, y, x, z))))
        if a == a2
    }
    variables = [Variable(n, Domain(d)) for n, d in zip("xyz", domains)]
    return variables, Extension(("x", "y", "x", "z"), conflicts(4, rows)), lambda combo: combo not in forbidden


@pytest.mark.parametrize(
    "seed, build",
    [
        _intension_above_the_table_cap("eq(z,add(x,y))", 100),
        _intension_above_the_table_cap("ge(sub(x,y),z)", 25),
        ("conflicts", _conflicts_above_the_complement_cap),
        ("repeated", _conflicts_on_a_repeated_scope_above_the_complement_cap),
    ],
    ids=[
        "functional-rest-above-cap",
        "arity-3-above-cap",
        "conflicts-above-the-complement-cap",
        "conflicts-on-a-repeated-scope-above-the-complement-cap",
    ],
)
def test_intension_gac_pass_above_the_table_cap_equals_brute_force(seed, build):
    """A relation with more than _TABLE_CAP rows (10,000 for eq(z, f(x, y))
    over x and y; 15,625 for the full product) builds no table, nor does a
    conflicts table over more than _COMPLEMENT_CAP tuples: residual
    supports give the same GAC pass, and the first call on the initial
    domains is quick."""
    rng = random.Random(seed)
    variables, constraint, allowed = build(rng)
    n = len(variables)
    store = DomainStore(variables)
    (prop,) = make_propagators([constraint], store)
    store.push()
    start = time.perf_counter()
    assert prop.propagate(store)
    assert time.perf_counter() - start < 0.5
    store.pop()
    outcomes = set()
    for _ in range(30):
        store.push()
        for _ in range(rng.randint(1, 3)):
            keep = rng.choice((1, 2, 4, 12))
            for x in range(n):
                live = store.domain_list(x)
                store.keep_values(x, rng.sample(live, min(keep, len(live))))
            expected = _brute_force_gac(allowed, store)
            ok = prop.propagate(store)
            outcomes.add(ok)
            assert ok == (expected is not None)
            if not ok:
                break
            assert [set(store.values(x)) for x in range(n)] == expected
        store.pop()
    assert outcomes == {True, False}
    assert prop.supports is None and prop.residues is not None


def test_a_wide_intension_above_the_table_cap_is_gac_at_a_small_live_product():
    """Arity 4 and 10,000 rows: no table, and the residual GAC pass on
    every call whose live product is at most _SCAN_CAP, as at arity 3."""
    rng = random.Random(4)
    _, build = _intension_above_the_table_cap("eq(dist(w,x),dist(y,z))", 10)
    variables, constraint, allowed = build(rng)
    store = DomainStore(variables)
    (prop,) = make_propagators([constraint], store)
    assert prop.residues is not None and prop.bounds_fn is not None
    outcomes, pruned = set(), 0
    for _ in range(60):
        store.push()
        for x in range(4):
            live = store.domain_list(x)
            store.keep_values(x, rng.sample(live, rng.choice((1, 2, 4, 6))))
        assert math.prod(map(store.size, range(4))) <= _SCAN_CAP
        expected = _brute_force_gac(allowed, store)
        before = [store.size(x) for x in range(4)]
        ok = prop.propagate(store)
        outcomes.add(ok)
        assert ok == (expected is not None)
        if ok:
            assert [set(store.values(x)) for x in range(4)] == expected
            pruned += [store.size(x) for x in range(4)] != before
        store.pop()
    assert outcomes == {True, False} and pruned > 10


def test_golomb_7_intensions_share_one_table():
    """The 21 ``eq(x[j], add(x[i], y[i][j]))`` relations are one positional
    template over equal initial domains, so they read one set of masks."""
    instance = gen_golomb_ruler(7)
    store = DomainStore(instance.variables)
    props = [p for p in make_propagators(instance.constraints, store) if isinstance(p, IntensionProp)]
    assert len(props) == 21 and props[0].supports is not None
    assert all(p.supports is props[0].supports for p in props)


@pytest.mark.parametrize(
    "texts, shared",
    [
        (("eq(z,add(x,y))", "eq(z,add(y,x))"), True),  # one template over equal domains
        (("eq(z,add(x,1))", "eq(z,add(x,2))"), False),  # a constant
        (("eq(x,add(y,1))", "eq(x,add(y,y))"), False),  # a constant, not the position it equals
        (("gt(x,sub(y,x))", "gt(x,sub(x,y))"), False),  # operand order
        (("eq(z,add(x,y))", "eq(w,add(x,y))"), False),  # initial domains
    ],
)
def test_intensions_share_masks_only_over_one_relation(texts, shared):
    """Tabled intensions share masks when their templates and initial
    domains are equal, and each pass stays GAC against brute force."""
    rng = random.Random(str(texts))
    domains = {"x": range(0, 5), "y": range(0, 5), "z": range(0, 7), "w": range(-1, 5)}
    store = DomainStore([Variable(n, Domain(tuple(d))) for n, d in domains.items()])
    props = make_propagators([Intension(parse_expr(text)) for text in texts], store)
    assert all(p.supports is not None for p in props)
    assert (props[0].supports is props[1].supports) == shared
    for prop, text in zip(props, texts):
        allowed = _holds(text, store.names)
        for _ in range(20):
            store.push()
            for x in range(len(store)):
                live = store.domain_list(x)
                store.keep_values(x, rng.sample(live, rng.randint(1, len(live))))
            expected = _brute_force_gac(allowed, store)
            assert prop.propagate(store) == (expected is not None)
            if expected is not None:
                assert [set(store.values(x)) for x in range(len(store))] == expected
            store.pop()


def test_golomb_6_search_tables_each_intension_once(monkeypatch):
    """Each intension tables its relation when it is built and reads the
    same masks before and after every pop."""
    built, used, pops = {}, {}, [0]
    init, propagate, pop = IntensionProp.__init__, IntensionProp.propagate, DomainStore.pop

    def recorded_init(self, c, key, store, masks):
        init(self, c, key, store, masks)
        built[self] = self.supports

    def recorded_propagate(self, store):
        ok = propagate(self, store)
        if self.supports is not None:
            used.setdefault(self, []).append((pops[0], self.supports))
        return ok

    def counted_pop(self):
        pops[0] += 1
        pop(self)

    monkeypatch.setattr(IntensionProp, "__init__", recorded_init)
    monkeypatch.setattr(IntensionProp, "propagate", recorded_propagate)
    monkeypatch.setattr(DomainStore, "pop", counted_pop)
    out = optimize(gen_golomb_ruler(6))
    assert (out.status, out.bound) == ("OPTIMUM", 17)
    assert used and set(used) <= set(built)
    for prop, calls in used.items():
        assert {id(masks) for _, masks in calls} == {id(built[prop])}
    assert any(calls[0][0] < calls[-1][0] for calls in used.values())


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
@pytest.mark.parametrize(
    "kind, coeffs",
    [("variable", ()), ("sum", (2, -1, 3)), ("sum", ()), ("maximum", ())],
)
def test_improving_constraint_holds_exactly_when_the_objective_beats_best(kind, sense, coeffs):
    domains = {"a": (-2, 0, 1, 3), "b": (-1, 2), "c": (0, 1, 2)}
    objective = Objective(sense, kind, ("a",) if kind == "variable" else ("a", "b", "c"), coeffs)
    values = {v for name in objective.scope for v in domains[name]}
    assignments = [Assignment(dict(zip(domains, combo))) for combo in itertools.product(*domains.values())]
    costs = [objective_value(objective, a) for a in assignments]
    for best in range(min(costs) - 1, max(costs) + 2):
        bound = _improving(objective, best, values)
        for a, cost in zip(assignments, costs):
            beats = cost < best if sense == "minimize" else cost > best
            assert constraint_satisfied(bound, a) == beats, (best, a.bindings)


GRAPH_COLORING_DATA = {
    "nNodes": 6,
    "nColors": 5,
    "edges": [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 5], [5, 3], [0, 5], [1, 4]],
}

# a symmetric 7-city matrix: the optimal tour costs 57
TSP_7_DISTANCES = [
    [0, 28, 28, 2, 3, 3, 12],
    [28, 0, 27, 6, 24, 26, 22],
    [28, 27, 0, 28, 10, 9, 20],
    [2, 6, 28, 0, 7, 20, 2],
    [3, 24, 10, 7, 0, 19, 22],
    [3, 26, 9, 20, 19, 0, 6],
    [12, 22, 20, 2, 22, 6, 0],
]

# 20 (weight, value) items under capacity 129: the best load is worth 544
KNAPSACK_20_DATA = {
    "capacity": 129,
    "items": [
        {"weight": w, "value": v}
        for w, v in [
            (14, 41), (13, 52), (24, 56), (17, 24), (18, 60), (15, 33), (9, 58), (2, 56), (1, 24), (15, 60),
            (11, 59), (13, 28), (29, 57), (17, 11), (18, 12), (8, 15), (1, 12), (11, 12), (5, 33), (17, 24),
        ]
    ],
}

# (status, bound, nodes, failures, propagations, dequeued) of small
# searches, where dequeued counts the calls made and the calls skipped
# because they could not prune. A change here is a change in search
# behaviour and must be explained.
PINNED_SEARCHES = {
    "knapsack-paper": (lambda: optimize(gen_knapsack(KNAPSACK_DATA)), ("OPTIMUM", 283, 10, 0, 52, 52)),
    "golomb-5": (lambda: optimize(gen_golomb_ruler(5)), ("OPTIMUM", 11, 20, 19, 567, 717)),
    "langford-4": (lambda: solve(gen_langford(4)), ("SAT", None, 11, 9, 237, 391)),
    "dubois-6": (lambda: solve(gen_dubois(6)), ("UNSAT", None, 163, 164, 1142, 1600)),
    "dubois-6-restarts": (lambda: solve(gen_dubois(6), SearchConfig(restarts=True)), ("UNSAT", None, 190, 188, 1306, 1833)),
    "graph-coloring-maximum": (lambda: optimize(gen_graph_coloring(GRAPH_COLORING_DATA)), ("OPTIMUM", 2, 6, 6, 75, 83)),
    "golomb-6": (lambda: optimize(gen_golomb_ruler(6)), ("OPTIMUM", 17, 65, 61, 2418, 3166)),
    "still-life-4": (lambda: optimize(gen_still_life(4)), ("OPTIMUM", 8, 192, 187, 9467, 10553)),
    "coloured-queens-5": (lambda: solve(gen_coloured_queens(5)), ("SAT", None, 5, 0, 196, 196)),
    "bibd-7-7-3-3-1": (lambda: solve(gen_bibd(7, 7, 3, 3, 1)), ("SAT", None, 175, 171, 7702, 7702)),
    "rcpsp": (lambda: optimize(gen_rcpsp(RCPSP_DATA)), ("OPTIMUM", 7, 4, 4, 51, 57)),
    # more tabled intensions (54) than any other search pinned here
    "labs-10": (lambda: optimize(gen_low_autocorrelation(10)), ("OPTIMUM", 13, 1197, 1188, 60523, 81543)),
    "mario": (lambda: optimize(gen_mario(MARIO_DATA)), ("OPTIMUM", 10, 1, 0, 44, 57)),
    "mistery-shopper": (lambda: solve(gen_mistery_shopper(MISTERY_DATA)), ("SAT", None, 179, 163, 14685, 16325)),
    "langford-5": (lambda: solve(gen_langford(5)), ("UNSAT", None, 694, 695, 17320, 29363)),
    "langford-4-restarts": (lambda: solve(gen_langford(4), SearchConfig(restarts=True)), ("SAT", None, 11, 9, 237, 391)),
    "golomb-5-restarts": (
        lambda: optimize(gen_golomb_ruler(5), SearchConfig(restarts=True)),
        ("OPTIMUM", 11, 20, 19, 567, 717),
    ),
    # more than 100 failures, so the search restarts and re-posts the bound slot
    "still-life-4-restarts": (
        lambda: optimize(gen_still_life(4), SearchConfig(restarts=True)),
        ("OPTIMUM", 8, 222, 211, 11010, 12237),
    ),
    # Hall windows over the successors and a Sum objective
    "tsp-7": (lambda: optimize(gen_tsp({"distances": TSP_7_DISTANCES})), ("OPTIMUM", 57, 304, 293, 6158, 7876)),
    # one long le sum over 20 items
    "knapsack-20": (lambda: optimize(gen_knapsack(KNAPSACK_20_DATA)), ("OPTIMUM", 544, 654, 584, 3653, 3653)),
    # eq sums over rows, columns and diagonals
    "magic-square-4": (lambda: solve(gen_magic_square(4)), ("SAT", None, 39, 34, 1011, 1011)),
    # the parametric solve and optimize members of the benchmark corpus
    "langford-6": (lambda: solve(gen_langford(6)), ("UNSAT", None, 15355, 15356, 414471, 718156)),
    "langford-7": (lambda: solve(gen_langford(7)), ("SAT", None, 8653, 8648, 273289, 475851)),
    "dubois-12": (lambda: solve(gen_dubois(12)), ("UNSAT", None, 10249, 10250, 88552, 133012)),
    "magic-hexagon-3-1": (lambda: solve(gen_magic_hexagon(3, 1)), ("SAT", None, 21, 18, 888, 901)),
    "golomb-7": (lambda: optimize(gen_golomb_ruler(7)), ("OPTIMUM", 25, 446, 440, 18448, 24506)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_pinned_search_fingerprint(name):
    run, expected = PINNED_SEARCHES[name]
    out = run()
    stats = out.stats
    dequeued = stats.propagations + stats.skipped
    assert (out.status, out.bound, stats.nodes, stats.failures, stats.propagations, dequeued) == expected


class _CheckingQueue(deque):
    """An engine queue that, before the engine skips a dequeued clean
    slot, makes the skipped call anyway and asserts that it is a no-op."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.checked = 0

    def popleft(self):
        i = super().popleft()
        engine = self.engine
        if engine.state[i] == _CLEAN:
            store = engine.store
            masks, trail, touched = list(store.masks), len(store._trail), len(store.touched)
            assert engine.props[i].propagate(store)
            assert (store.masks, len(store._trail), len(store.touched)) == (masks, trail, touched)
            self.checked += 1
        return i


class _CheckingEngine(PropagationEngine):
    def __init__(self, store, props):
        super().__init__(store, props)
        self.queue = _CheckingQueue(self)


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_skipped_calls_are_no_ops(name, monkeypatch):
    """Every call the engine skips, made anyway, prunes nothing and holds,
    and the search keeps its pinned fingerprint."""
    engines = []

    def engine(store, props):
        engines.append(_CheckingEngine(store, props))
        return engines[-1]

    monkeypatch.setattr(search, "PropagationEngine", engine)
    run, expected = PINNED_SEARCHES[name]
    out = run()
    stats = out.stats
    assert (out.status, out.bound, stats.nodes, stats.failures, stats.propagations) == expected[:5]
    assert engines[0].queue.checked == stats.skipped


@pytest.mark.parametrize("mode, instance", [("sat", gen_dubois(6)), ("optimize", gen_still_life(4))])
def test_weighted_degree_is_the_sum_of_watcher_weights(mode, instance):
    """After a search with restarts (and, optimizing, a replaced bound
    slot), each variable's kept weighted degree equals the sum over its
    watchers of one plus the failures counted at each fixpoint."""
    search = _Search(instance, SearchConfig(restarts=True), mode)
    engine = search.engine
    failures = [0] * len(engine.props)
    fixpoint = engine.fixpoint

    def counting_fixpoint():
        failing = fixpoint()
        if failing is not None:
            failures[[p is failing for p in engine.props].index(True)] += 1
        return failing

    engine.fixpoint = counting_fixpoint
    search.run()
    assert sum(failures) > 0
    for x, watching in enumerate(engine.watchers):
        assert engine.wdeg[x] == sum(1 + failures[i] for i, _ in watching)


class _LoggingQueue(deque):
    """An engine queue that logs each dequeued slot and whether the engine
    is about to skip it."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.log = []

    def popleft(self):
        i = super().popleft()
        self.log.append((i, "skip" if self.engine.state[i] == _CLEAN else "run"))
        return i


@pytest.mark.parametrize(
    "removed, log",
    [
        # outside the Element's watched bit: it is queued clean and skipped
        ((0,), [(0, "skip"), (1, "run")]),
        # the watched bit: both run, in watcher order; the Element's own
        # prune of the index queues it again, clean
        ((1,), [(0, "run"), (1, "run"), (0, "skip")]),
        # an unwatched removal after a watched one leaves the Element dirty
        ((1, 0), [(0, "run"), (1, "run"), (0, "skip"), (1, "run")]),
    ],
)
def test_a_variable_watched_by_value_and_plainly_wakes_each_by_its_bits(removed, log):
    """Each cell is watched by a constant Element (slot 0, the bit of value
    1 only) and by an AllDifferent (slot 1, every bit)."""
    variables = [Variable(v, Domain.rng(0, 2)) for v in ("c0", "c1", "c2", "i")]
    cells = ("c0", "c1", "c2")
    constraints = [Element(cells, "i", 1), AllDifferent(cells)]
    store = DomainStore(variables)
    engine = PropagationEngine(store, make_propagators(constraints, store))
    assert engine.props[0].value_watch is not None and engine.props[1].value_watch is None
    engine.queue = _LoggingQueue(engine)
    engine.enqueue_all()
    assert engine.fixpoint() is None
    assert sum(store.masks) == 4 * 0b111  # the root prunes nothing
    engine.queue.log.clear()
    c0 = store.index["c0"]
    for v in removed:
        store.remove_value(c0, v)
    assert engine.fixpoint() is None
    assert engine.queue.log == log


def test_compact_tables_over_one_table_and_equal_domains_share_their_masks():
    variables = [Variable(f"b{i}", Domain.rng(0, 1)) for i in range(4)] + [Variable("t", Domain.rng(0, 2))]
    pair, triple = supports(2, [(0, 1), (1, 0)]), conflicts(3, [(1, 1, 1)])
    constraints = [
        Extension(("b0", "b1"), pair),
        Extension(("b2", "b3"), supports(2, [(1, 0), (0, 1)])),  # an equal copy
        Extension(("b1", "b1"), pair),  # a repeated variable
        Extension(("b0", "t"), pair),  # other initial domains
        Extension(("b0", "b1", "b2"), triple),
        Extension(("b1", "b2", "b3"), triple),
    ]
    store = DomainStore(variables)
    props = make_propagators(constraints, store)
    assert all(isinstance(p, TableProp) for p in props)
    same, copy, repeated, wider, negated, other_negated = (p.supports for p in props)
    assert copy is same and other_negated is negated
    # a scope that repeats a variable keeps only the rows that give it one value
    assert repeated is not same and repeated == [[0, 0], [0, 0]]
    assert wider is not same and wider != same
    # the conflicts table is shared as its complement: 7 rows over {0,1}^3
    assert negated[0][0] | negated[0][1] == (1 << 7) - 1


def _with_equal_copies(c):
    """``c`` with every table replaced by an equal but distinct Table."""
    if isinstance(c, Slide):
        return Slide(tuple(_with_equal_copies(w) for w in c.windows))
    if isinstance(c, Extension):
        return Extension(c.scope, Table(c.table.arity, c.table.polarity, c.table.rows))
    return c


@pytest.mark.parametrize(
    "generate, run",
    [(lambda: gen_still_life(4), optimize), (lambda: gen_dubois(6), solve)],
    ids=["still-life-4", "dubois-6"],
)
def test_shared_tables_search_as_equal_copies_do(generate, run, monkeypatch):
    """Tables shared by parsing and masks shared by ``make_propagators``
    give the search fingerprint of tables rebuilt as equal copies, each
    compiled on its own."""
    shared = parse_instance(write_instance(generate()))
    copies = dataclasses.replace(shared, constraints=tuple(_with_equal_copies(c) for c in shared.constraints))

    def masks_of(instance):
        props = make_propagators(instance.constraints, DomainStore(instance.variables))
        return [p.supports for p in props if isinstance(p, TableProp)]

    def fingerprint(out):
        return out.status, out.bound, out.stats.nodes, out.stats.failures, out.stats.propagations

    assert len({id(m) for m in masks_of(shared)}) < len(masks_of(shared))
    expected = fingerprint(run(shared))
    build = TableProp.__init__
    monkeypatch.setattr(TableProp, "__init__", lambda self, c, key, store, masks: build(self, c, key, store, {}))
    assert len({id(m) for m in masks_of(copies)}) == len(masks_of(copies))
    assert fingerprint(run(copies)) == expected


class TestDeterminism:
    def test_same_config_same_stats(self):
        inst = gen_langford(4)
        a = solve(inst, SearchConfig(time_limit=60))
        b = solve(inst, SearchConfig(time_limit=60))
        assert a.status == b.status
        assert a.stats.nodes == b.stats.nodes
        assert a.witness == b.witness

    def test_heuristic_and_restart_configs_agree_on_verdict(self):
        inst = gen_langford(3)
        assert solve(inst, SearchConfig(restarts=True)).status == "SAT"


# ---------------------------------------------------------------------------
# Randomized oracle equivalence (the smaller, fast version; the acceptance
# suite runs the full 1000-instance spread)


def random_tiny_instance(rng: random.Random, max_vars=6, max_dom=5):
    from tiny_instances import random_instance

    return random_instance(rng, max_vars=max_vars, max_dom=max_dom)


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_sample(seed):
    rng = random.Random(1000 + seed)
    inst = random_tiny_instance(rng)
    assert search_space(inst) <= 4000
    count, best, _ = brute_force(inst)
    got = enumerate_all(_as_csp(inst))
    assert (got.count, got.exact) == (count, True)
    verdict = solve(_as_csp(inst))
    assert verdict.status == ("SAT" if count else "UNSAT")
    if inst.kind == "COP":
        out = optimize(inst)
        if count == 0:
            assert out.status == "UNSAT"
        else:
            assert out.status == "OPTIMUM"
            assert out.bound == best


def _as_csp(inst):
    if inst.kind == "CSP":
        return inst
    return Instance("CSP", inst.variables, inst.constraints, None, inst.decision_variables)


def test_oracle_equivalence_sample_enumeration_csp():
    rng = random.Random(77)
    for _ in range(30):
        inst = _as_csp(random_tiny_instance(rng, max_vars=4, max_dom=4))
        count, _, _ = brute_force(inst)
        assert enumerate_all(inst).count == count
