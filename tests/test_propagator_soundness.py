"""Exhaustive no-support verification: for every propagator, at scope <= 4
and domain size <= 4, any value removed at a single-constraint fixpoint has
no satisfying tuple over the original domains, and a reported conflict
means there is no solution at all. The compact-table GAC bar is checked
separately."""

import itertools
import random
import typing

import pytest

from test_io import _kitchen_sink_instance
from tiny_instances import ALL_KINDS, random_constraint, random_domains
from xcspkit.engine import DomainStore, make_propagators, propagate_to_fixpoint
from xcspkit.engine.propagators import _PROPAGATORS, _primitives
from xcspkit.model import (
    AllDifferentMatrix,
    Assignment,
    Circuit,
    Constraint,
    Domain,
    Element,
    Extension,
    Lex,
    LexMatrix,
    STAR,
    Table,
    Variable,
    constraint_satisfied,
    constraint_scope,
)

TRIALS_PER_KIND = 60


def _fixpoint_case(rng, kind):
    n = 4
    names = [f"v{i}" for i in range(n)]
    domains = random_domains(rng, names, 4)
    constraint = random_constraint(rng, names, domains, kind)
    scope = constraint_scope(constraint)
    variables = tuple(Variable(v, Domain(tuple(domains[v]))) for v in names if v in scope)
    store = DomainStore(variables)
    before = {v.id: list(v.domain.values) for v in variables}
    conflict = propagate_to_fixpoint(store, (constraint,))
    after = {name: list(store.values(i)) for i, name in enumerate(store.names)}
    return constraint, before, after, conflict


def _satisfying_tuples(constraint, before):
    names = list(before)
    for combo in itertools.product(*(before[v] for v in names)):
        a = Assignment(dict(zip(names, combo)))
        if constraint_satisfied(constraint, a):
            yield dict(zip(names, combo))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_unsound_removals(kind):
    rng = random.Random(sum(ord(ch) for ch in kind) * 7919)
    for trial in range(TRIALS_PER_KIND):
        constraint, before, after, conflict = _fixpoint_case(rng, kind)
        supported: dict[str, set] = {v: set() for v in before}
        any_solution = False
        for tup in _satisfying_tuples(constraint, before):
            any_solution = True
            for v, value in tup.items():
                supported[v].add(value)
        if conflict is not None:
            assert not any_solution, (kind, trial, constraint)
            continue
        for v in before:
            removed = set(before[v]) - set(after[v])
            bad = removed & supported[v]
            assert not bad, (kind, trial, constraint, v, sorted(bad))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_full_assignment_fails_exactly_when_the_constraint_does_not_hold(kind):
    """With every variable fixed, the fixpoint reports a conflict exactly
    when the checker rejects the assignment: each pass decides a full
    assignment on its own."""
    rng = random.Random(f"full-{kind}")
    names = [f"v{i}" for i in range(6)]
    verdicts = set()
    for trial in range(400):
        domains = random_domains(rng, names, 4)
        constraint = random_constraint(rng, names, domains, kind)
        # small values too, so that positional constraints such as a circuit can hold
        values = {v: rng.choice(domains[v]) if rng.random() < 0.5 else rng.randrange(4) for v in names}
        store = DomainStore(tuple(Variable(v, Domain((values[v],))) for v in names))
        holds = constraint_satisfied(constraint, Assignment(values))
        assert (propagate_to_fixpoint(store, (constraint,)) is None) == holds, (trial, constraint, values)
        verdicts.add(holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("succ, holds", [((0, 1, 2), False), ((1, 2, 0), True), ((1, 0, 2), True), ((1, 0, 0), False)])
def test_a_full_circuit_without_a_route_fails(succ, holds):
    """Every position on a self-loop leaves no route, which the checker
    rejects, so the pass fails too."""
    names = ("a", "b", "c")
    store = DomainStore(tuple(Variable(v, Domain((s,))) for v, s in zip(names, succ)))
    assert constraint_satisfied(Circuit(names), Assignment(dict(zip(names, succ)))) == holds
    assert (propagate_to_fixpoint(store, (Circuit(names),)) is None) == holds


def test_extension_fixpoint_is_gac():
    """After fixpoint on a lone table constraint, every remaining value
    sits in at least one row compatible with the remaining domains."""
    rng = random.Random(424242)
    for _ in range(200):
        constraint, before, after, conflict = _fixpoint_case(rng, "extension")
        if conflict is not None:
            continue
        scope = constraint_scope(constraint)
        for v in scope:
            for value in after[v]:
                witness = False
                others = [after[u] if u != v else [value] for u in scope]
                for combo in itertools.product(*others):
                    a = Assignment(dict(zip(scope, combo)))
                    if constraint_satisfied(constraint, a):
                        witness = True
                        break
                assert witness, (constraint, v, value)


@pytest.mark.parametrize("polarity", ["supports", "conflicts"])
def test_extension_fixpoint_is_gac_on_repeated_scopes(polarity):
    """A table whose scope repeats a variable: at fixpoint the domains are
    exactly the values that some solution over the scope's variables
    uses, and a conflict is reported exactly when there is none."""
    rng = random.Random(polarity)
    outcomes = set()
    for trial in range(200):
        names = ["a", "b", "c"][: rng.randint(1, 3)]
        scope = tuple(names) + tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
        scope = tuple(rng.sample(scope, len(scope)))
        domains = random_domains(rng, names, 3)
        options = [list(domains[v]) + [STAR] for v in scope]
        rows = tuple(tuple(rng.choice(opt) for opt in options) for _ in range(rng.randint(0, 8)))
        constraint = Extension(scope, Table(len(scope), polarity, rows))
        store = DomainStore(tuple(Variable(v, Domain(tuple(domains[v]))) for v in names))
        conflict = propagate_to_fixpoint(store, (constraint,))
        supported = {v: set() for v in names}
        for combo in itertools.product(*(domains[v] for v in names)):
            if constraint_satisfied(constraint, Assignment(dict(zip(names, combo)))):
                for v, value in zip(names, combo):
                    supported[v].add(value)
        outcomes.add(conflict is None)
        if conflict is not None:
            assert not supported[names[0]], (trial, constraint)
            continue
        assert {v: set(store.values(i)) for i, v in enumerate(names)} == supported, (trial, constraint)
    assert outcomes == {True, False}


def test_gac_on_star_rows():
    variables = (Variable("a", Domain.rng(0, 2)), Variable("b", Domain.rng(0, 2)))
    table = Table(2, "supports", ((0, STAR), (STAR, 2)))
    store = DomainStore(variables)
    assert propagate_to_fixpoint(store, (Extension(("a", "b"), table),)) is None
    assert store.domain_list(0) == [0, 1, 2]
    assert store.domain_list(1) == [0, 1, 2]


def test_every_constraint_class_has_one_propagator_row_or_is_split():
    split = {AllDifferentMatrix, LexMatrix}
    classes = set(typing.get_args(Constraint))
    assert set(_PROPAGATORS).isdisjoint(split)
    assert set(_PROPAGATORS) | split == classes
    sink = _kitchen_sink_instance()
    for c in sink.constraints:
        assert {type(p) for p in _primitives(c)} <= set(_PROPAGATORS), c
    props = make_propagators(sink.constraints, DomainStore(sink.variables))
    assert {type(p.constraint) for p in props} == set(_PROPAGATORS)
    with pytest.raises(TypeError, match="no propagator for Variable"):
        make_propagators(sink.variables[:1], DomainStore(sink.variables))


@pytest.mark.parametrize("operator", ["lt", "le", "ge", "gt"])
@pytest.mark.parametrize("shape", ["lex-3-rows", "lexMatrix-3x3"])
def test_multi_pair_lex_fixpoint_is_sound(shape, operator):
    """Lex constraints that split into several adjacent row pairs: the
    fixpoint removes no supported value, reports a conflict only when
    there is no solution, and accepts a full assignment only when it is a
    solution."""
    rng = random.Random(f"{shape}-{operator}")
    width = 2 if shape == "lex-3-rows" else 3
    grid = tuple(tuple(f"m{i}{j}" for j in range(width)) for i in range(3))
    constraint = Lex(grid, operator) if shape == "lex-3-rows" else LexMatrix(grid, operator)
    names = [v for row in grid for v in row]
    for trial in range(60):
        before = {v: sorted(rng.sample(range(3), rng.choice((1, 1, 1, 2, 3)))) for v in names}
        store = DomainStore(tuple(Variable(v, Domain(tuple(before[v]))) for v in names))
        conflict = propagate_to_fixpoint(store, (constraint,))
        after = {name: list(store.values(i)) for i, name in enumerate(store.names)}
        supported: dict[str, set] = {v: set() for v in names}
        for tup in _satisfying_tuples(constraint, before):
            for v, value in tup.items():
                supported[v].add(value)
        if conflict is not None:
            assert not any(supported.values()), (trial, before)
            continue
        for v in names:
            assert not (set(before[v]) - set(after[v])) & supported[v], (trial, before, v)
        if all(len(values) == 1 for values in after.values()):
            solution = Assignment({v: values[0] for v, values in after.items()})
            assert constraint_satisfied(constraint, solution), (trial, before)


@pytest.mark.parametrize("value", ["v", 2])
def test_element_propagate_equals_brute_force(value):
    """One ElementProp under push/narrow/pop rounds, with an index domain
    reaching outside the list and a list that repeats a variable: after each
    call the index and the result are GAC, a cell is narrowed only once the
    index is fixed and then to exactly its supported values, and False
    comes exactly when no support is left."""
    rng = random.Random(f"element-{value}")
    cells = ["a", "b", "c"]
    constraint = Element(("a", "b", "a", "c"), "i", value)
    variables = [Variable(x, Domain.rng(-1, 5)) for x in cells] + [Variable("i", Domain.rng(-1, 4))]
    if value == "v":
        variables.append(Variable("v", Domain.rng(-1, 5)))
    names = [v.id for v in variables]
    store = DomainStore(variables)
    (prop,) = make_propagators([constraint], store)
    index_at = store.index["i"]
    seen = set()
    for _ in range(60):
        store.push()
        for _ in range(rng.randint(1, 4)):
            for x in range(len(names)):
                live = store.domain_list(x)
                if rng.random() < 0.5:
                    store.keep_values(x, rng.sample(live, rng.randint(1, len(live))))
            before = {name: store.domain_list(x) for x, name in enumerate(names)}
            supported: dict[str, set] = {name: set() for name in names}
            for tup in _satisfying_tuples(constraint, before):
                for name, v in tup.items():
                    supported[name].add(v)
            ok = prop.propagate(store)
            assert ok == bool(supported["i"]), before
            if not ok:
                seen.add("fail")
                break
            after = {name: store.domain_list(x) for x, name in enumerate(names)}
            fixed = store.is_assigned(index_at)
            for name in names:
                if name in cells and not fixed:
                    assert after[name] == before[name], (before, name)
                else:
                    assert set(after[name]) == supported[name], (before, name)
            if fixed and any(after[name] != before[name] for name in cells):
                seen.add("cell narrowed")
            if set(before["i"]) - set(range(4)):
                seen.add("index outside the list")
        store.pop()
    assert seen == {"fail", "cell narrowed", "index outside the list"}
