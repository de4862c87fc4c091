"""Random tiny instances spanning the full constraint catalog, used to
cross-check the engine against the generate-and-test oracle."""

import random

from xcspkit.model import (
    STAR,
    AllDifferent,
    AllDifferentMatrix,
    Automaton,
    Cardinality,
    Channel,
    Circuit,
    Condition,
    Count,
    Cumulative,
    Domain,
    Element,
    Extension,
    Instance,
    Instantiation,
    Intension,
    Lex,
    LexMatrix,
    NoOverlap,
    Objective,
    Ordered,
    Regular,
    Sum,
    Table,
    Variable,
)

SPACE_CAP = 4000

SMALL_KINDS = (
    "extension", "intension", "sum", "count", "alldiff", "ordered",
    "element", "instantiation", "circuit", "cumulative", "regular",
    "cardinality", "lex",
)
WIDE_KINDS = ("alldiffmatrix", "lexmatrix", "channel", "nooverlap")
ALL_KINDS = SMALL_KINDS + WIDE_KINDS


def _rand_arith(rng, names, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.7:
            return rng.choice(names)
        return rng.randint(-3, 4)
    kind = rng.choice(("add", "sub", "mul", "dist", "neg", "abs"))
    if kind in ("neg", "abs"):
        return (kind, _rand_arith(rng, names, depth - 1))
    if kind in ("add", "mul"):
        k = rng.randint(2, 3)
        return (kind, *(_rand_arith(rng, names, depth - 1) for _ in range(k)))
    return (kind, _rand_arith(rng, names, depth - 1), _rand_arith(rng, names, depth - 1))


def _rand_bool(rng, names, depth):
    if depth <= 0 or rng.random() < 0.6:
        kind = rng.choice(("eq", "ne", "lt", "le", "gt", "ge"))
        return (kind, _rand_arith(rng, names, 1), _rand_arith(rng, names, 1))
    kind = rng.choice(("and", "or", "xor", "iff", "imp", "not"))
    if kind == "not":
        return (kind, _rand_bool(rng, names, depth - 1))
    k = rng.randint(2, 3) if kind in ("and", "or") else 2
    return (kind, *(_rand_bool(rng, names, depth - 1) for _ in range(k)))


def _rand_condition(rng, names, small=6):
    op = rng.choice(("lt", "le", "ge", "gt", "eq", "ne", "in"))
    if op == "in":
        a = rng.randint(-2, small)
        return Condition("in", (a, a + rng.randint(0, 3)))
    if rng.random() < 0.25:
        return Condition(op, rng.choice(names))
    return Condition(op, rng.randint(-2, small))


def _rand_table(rng, scope, domains, polarity):
    options = [list(domains[v]) + [STAR] for v in scope]
    rows = []
    universe = 1
    for v in scope:
        universe *= len(domains[v])
    for _ in range(rng.randint(0, min(universe + 2, 10))):
        rows.append(tuple(rng.choice(opt) for opt in options))
    return Table(len(scope), polarity, tuple(rows))


def _rand_automaton(rng, symbols):
    n_states = rng.randint(2, 3)
    states = [f"q{i}" for i in range(n_states)]
    transitions = {}
    for q in states:
        for s in symbols:
            if rng.random() < 0.7:
                transitions[q, s] = rng.choice(states)
    reachable = {"q0"}
    frontier = ["q0"]
    while frontier:
        q = frontier.pop()
        for s in symbols:
            r = transitions.get((q, s))
            if r is not None and r not in reachable:
                reachable.add(r)
                frontier.append(r)
    finals = [q for q in sorted(reachable) if rng.random() < 0.6] or [sorted(reachable)[0]]
    return Automaton("q0", tuple((q, s, r) for (q, s), r in transitions.items()), tuple(finals))


def random_constraint(rng, names, domains, kind=None):
    """One random catalog constraint over the given variables."""
    n = len(names)
    if kind is None:
        kind = rng.choice(ALL_KINDS if n >= 4 else SMALL_KINDS)

    def pick(k, distinct=True):
        k = min(k, n)
        if distinct:
            return tuple(rng.sample(names, k))
        return tuple(rng.choice(names) for _ in range(k))

    if kind == "extension":
        scope = pick(rng.randint(1, 3))
        return Extension(scope, _rand_table(rng, scope, domains, rng.choice(("supports", "conflicts"))))
    if kind == "intension":
        return Intension.of(_rand_bool(rng, names, 2))
    if kind == "sum":
        scope = pick(rng.randint(2, 4))
        if rng.random() < 0.15 and n > len(scope):
            coeffs = tuple(rng.choice(names) if rng.random() < 0.5 else rng.randint(-2, 3) for _ in scope)
        else:
            coeffs = tuple(rng.randint(-3, 3) for _ in scope)
        return Sum(scope, coeffs, _rand_condition(rng, names))
    if kind == "count":
        scope = pick(rng.randint(2, 4))
        values = tuple(sorted(rng.sample(range(-2, 5), rng.randint(1, 2))))
        return Count(scope, values, _rand_condition(rng, names, small=len(scope)))
    if kind == "alldiff":
        return AllDifferent(pick(rng.randint(2, 4)))
    if kind == "alldiffmatrix":
        cells = pick(4)
        return AllDifferentMatrix(((cells[0], cells[1]), (cells[2], cells[3])))
    if kind == "ordered":
        return Ordered(pick(rng.randint(2, 4)), rng.choice(("lt", "le", "gt", "ge")))
    if kind == "element":
        lst = pick(rng.randint(1, max(1, min(3, n - 1))))
        rest = [v for v in names if v not in lst]
        index = rng.choice(rest) if rest else names[0]
        value = rng.choice(names) if rng.random() < 0.5 else rng.randint(-1, 4)
        return Element(lst, index, value)
    if kind == "instantiation":
        scope = pick(rng.randint(1, 3))
        values = tuple(rng.choice(domains[v]) if rng.random() < 0.9 else rng.randint(-2, 5) for v in scope)
        return Instantiation(scope, values)
    if kind == "circuit":
        return Circuit(pick(rng.randint(2, 4)))
    if kind == "cumulative":
        scope = pick(rng.randint(2, 3))
        return Cumulative(
            scope,
            tuple(rng.randint(1, 2) for _ in scope),
            tuple(rng.randint(1, 2) for _ in scope),
            rng.randint(1, 3),
        )
    if kind == "regular":
        scope = pick(rng.randint(2, 4))
        symbols = sorted({v for s in scope for v in domains[s]})[:4]
        return Regular(scope, _rand_automaton(rng, symbols))
    if kind == "cardinality":
        scope = pick(rng.randint(2, 4))
        values = tuple(sorted(rng.sample(range(-1, 4), rng.randint(1, 2))))
        occurs = []
        for _ in values:
            lo = rng.randint(0, 2)
            occurs.append((lo, lo + rng.randint(0, 2)))
        return Cardinality(scope, values, tuple(occurs), closed=rng.random() < 0.3)
    if kind == "lex":
        k = rng.randint(1, 2)
        rows = tuple(pick(k, distinct=False) for _ in range(2))
        return Lex(rows, rng.choice(("lt", "le", "gt", "ge")))
    if kind == "lexmatrix":
        cells = pick(4)
        return LexMatrix(((cells[0], cells[1]), (cells[2], cells[3])), rng.choice(("lt", "le", "gt", "ge")))
    if kind == "channel":
        half = rng.randint(1, n // 2)
        cells = pick(2 * half)
        return Channel(cells[:half], cells[half:])
    if kind == "nooverlap":
        if n >= 6 and rng.random() < 0.5:
            cells = pick(6)
            lengths = ((cells[4], rng.randint(1, 2)), (rng.randint(0, 2), cells[5]))
            return NoOverlap(((cells[0], cells[1]), (cells[2], cells[3])), lengths)
        cells = pick(4)
        lengths = tuple((rng.randint(0, 2), rng.randint(1, 2)) for _ in range(2))
        return NoOverlap(((cells[0], cells[1]), (cells[2], cells[3])), lengths)
    raise AssertionError(kind)


def random_domains(rng, names, max_dom):
    domains = {}
    for v in names:
        lo = rng.randint(-2, 2)
        size = rng.randint(1, max_dom)
        domains[v] = sorted(rng.sample(range(lo, lo + max_dom + 3), size))
    return domains


def random_instance(rng: random.Random, max_vars=6, max_dom=5) -> Instance:
    n = rng.randint(2, max_vars)
    names = [f"v{i}" for i in range(n)]
    domains = random_domains(rng, names, max_dom)
    while _space(domains) > SPACE_CAP:
        v = rng.choice(names)
        if len(domains[v]) > 1:
            domains[v] = sorted(rng.sample(domains[v], len(domains[v]) - 1))

    constraints = tuple(random_constraint(rng, names, domains) for _ in range(rng.randint(1, 6)))
    objective = None
    if rng.random() < 0.5:
        scope = tuple(rng.sample(names, rng.randint(1, min(3, n))))
        okind = rng.choice(("variable", "sum", "maximum"))
        if okind == "variable":
            objective = Objective(rng.choice(("minimize", "maximize")), "variable", scope[:1])
        elif okind == "sum":
            coeffs = tuple(rng.randint(-2, 3) for _ in scope)
            objective = Objective(rng.choice(("minimize", "maximize")), "sum", scope, coeffs)
        else:
            objective = Objective(rng.choice(("minimize", "maximize")), "maximum", scope)

    variables = tuple(Variable(v, Domain(tuple(domains[v]))) for v in names)
    return Instance("COP" if objective else "CSP", variables, constraints, objective)


def _space(domains):
    out = 1
    for values in domains.values():
        out *= len(values)
    return out
