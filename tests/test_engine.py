"""Engine tests: propagation fixpoint examples, solver verdicts against
the generate-and-test oracle, trail exactness, determinism, bounds."""

import itertools
import random

import pytest

from helpers import brute_force, search_space
from xcspkit.engine import (
    DomainStore,
    SearchConfig,
    enumerate_all,
    optimize,
    propagate_to_fixpoint,
    solve,
)
from xcspkit.engine.search import _improving
from xcspkit.errors import InvalidInstanceError
from xcspkit.expr import parse_expr
from xcspkit.generators import (
    gen_dubois,
    gen_golomb_ruler,
    gen_graph_coloring,
    gen_knapsack,
    gen_langford,
    gen_magic_square,
)
from xcspkit.model import (
    AllDifferent,
    Assignment,
    Condition,
    Domain,
    Extension,
    Instance,
    Intension,
    Objective,
    Sum,
    Variable,
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
            kept = store.masks[0] & expected
            assert store.restrict(0, lo, hi) == (kept != 0)
            assert store.masks[0] == kept
            store.pop()


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

# (status, bound, nodes, failures, propagations) of small searches. A
# change here is a change in search behaviour and must be explained.
PINNED_SEARCHES = {
    "knapsack-paper": (lambda: optimize(gen_knapsack(KNAPSACK_DATA)), ("OPTIMUM", 283, 10, 0, 52)),
    "golomb-5": (lambda: optimize(gen_golomb_ruler(5)), ("OPTIMUM", 11, 20, 19, 717)),
    "langford-4": (lambda: solve(gen_langford(4)), ("SAT", None, 11, 9, 391)),
    "dubois-6": (lambda: solve(gen_dubois(6)), ("UNSAT", None, 163, 164, 1600)),
    "dubois-6-restarts": (lambda: solve(gen_dubois(6), SearchConfig(restarts=True)), ("UNSAT", None, 190, 188, 1833)),
    "graph-coloring-maximum": (lambda: optimize(gen_graph_coloring(GRAPH_COLORING_DATA)), ("OPTIMUM", 2, 6, 6, 83)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_pinned_search_fingerprint(name):
    run, expected = PINNED_SEARCHES[name]
    out = run()
    assert (out.status, out.bound, out.stats.nodes, out.stats.failures, out.stats.propagations) == expected


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
        for config in (
            SearchConfig(var_heuristic="lex"),
            SearchConfig(restarts=True),
        ):
            assert solve(inst, config).status == "SAT"


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
