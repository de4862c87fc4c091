"""Checker-level tests: expression evaluation, per-constraint semantics,
validation, and the exhaustive table/channel properties."""

import itertools
import random
import typing

import pytest
from helpers import refusal
from test_io import _kitchen_sink_instance

from xcspkit.engine import DomainStore, make_propagators
from xcspkit.engine.search import SearchStats
from xcspkit.errors import (
    ArityMismatchError,
    InvariantViolationError,
    NotAnOptimizationInstanceError,
    UnboundVariableError,
)
from xcspkit.expr import OPS, IntConst, Op, VarRef, compile_expr, evaluate, op, parse_expr
from xcspkit.io import parse_instance, write_instance
from xcspkit.model import (
    _KINDS,
    STAR,
    AllDifferent,
    AllDifferentMatrix,
    Assignment,
    Automaton,
    Cardinality,
    Channel,
    Circuit,
    Condition,
    Constraint,
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
    assignment_cost,
    conflicts,
    constraint_kind,
    constraint_satisfied,
    constraint_scope,
    supports,
    validate_instance,
)


def asg(**bindings):
    return Assignment(bindings)


def test_op_reads_ints_as_constants_and_strings_as_variables():
    inner = op("add", "x", 1)
    assert inner == Op("add", (VarRef("x"), IntConst(1)))
    outer = op("le", inner, "y[0]")
    assert outer.children[0] is inner and outer.children[1] == VarRef("y[0]")
    assert op("neg", -3) == Op("neg", (IntConst(-3),))
    for kind, operands in [("eq", (1,)), ("sub", ("x", "y", 1)), ("not", ()), ("nope", ("x",))]:
        with pytest.raises(ArityMismatchError):
            op(kind, *operands)


class TestEvaluateExpr:
    def test_dist(self):
        assert evaluate(op("dist", 3, 7), {}) == 4

    def test_eq_add(self):
        e = op("eq", op("add", "x", "y"), "z")
        assert evaluate(e, dict(x=1, y=2, z=3)) == 1
        assert evaluate(e, dict(x=1, y=2, z=4)) == 0

    def test_implication_false_antecedent(self):
        e = op("imp", op("eq", "x", 0), op("ne", "y", 0))
        assert evaluate(e, dict(x=1, y=0)) == 1

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            evaluate(VarRef("q"), {})

    def test_parse_roundtrip(self):
        e = parse_expr("imp(eq(x,0),ne(y[2],0))")
        assert evaluate(e, {"x": 0, "y[2]": 5}) == 1

    @pytest.mark.parametrize(
        "text,binding,expected",
        [
            ("neg(5)", {}, -5),
            ("abs(sub(2,9))", {}, 7),
            ("mul(2,3,4)", {}, 24),
            ("xor(eq(x,1),eq(y,1))", {"x": 1, "y": 1}, 0),
            ("iff(eq(x,1),eq(y,1))", {"x": 1, "y": 0}, 0),
            ("or(eq(x,1),eq(y,1),eq(z,1))", {"x": 0, "y": 0, "z": 1}, 1),
            ("and(le(x,y),le(y,z))", {"x": 1, "y": 2, "z": 3}, 1),
            ("not(eq(x,0))", {"x": 0}, 0),
        ],
    )
    def test_operators(self, text, binding, expected):
        assert evaluate(parse_expr(text), binding) == expected



# (kind, operands, value), written out by hand: the checker and the engine
# share one operator table, so these literals are what pins its semantics.
OPERATOR_CASES = [
    ("neg", (5,), -5),
    ("neg", (-3,), 3),
    ("abs", (-4,), 4),
    ("abs", (6,), 6),
    ("add", (2, -5), -3),
    ("add", (1, 2, 3), 6),
    ("sub", (2, 9), -7),
    ("sub", (-2, -9), 7),
    ("mul", (-2, 3), -6),
    ("mul", (2, -3, 4), -24),
    ("dist", (3, 7), 4),
    ("dist", (-2, 5), 7),
    ("dist", (5, -2), 7),
    ("eq", (3, 3), 1),
    ("eq", (3, 4), 0),
    ("ne", (3, 3), 0),
    ("ne", (-1, 1), 1),
    ("lt", (1, 2), 1),
    ("lt", (2, 2), 0),
    ("le", (2, 2), 1),
    ("le", (3, 2), 0),
    ("gt", (3, 2), 1),
    ("gt", (2, 2), 0),
    ("ge", (2, 2), 1),
    ("ge", (1, 2), 0),
    ("not", (0,), 1),
    ("not", (1,), 0),
    ("and", (1, 1), 1),
    ("and", (1, 0), 0),
    ("and", (1, 1, 1), 1),
    ("and", (1, 0, 1), 0),
    ("or", (0, 0), 0),
    ("or", (0, 1), 1),
    ("or", (0, 0, 0), 0),
    ("or", (0, 0, 1), 1),
    ("xor", (0, 0), 0),
    ("xor", (0, 1), 1),
    ("xor", (1, 0), 1),
    ("xor", (1, 1), 0),
    ("iff", (0, 0), 1),
    ("iff", (0, 1), 0),
    ("iff", (1, 0), 0),
    ("iff", (1, 1), 1),
    ("imp", (0, 0), 1),
    ("imp", (0, 1), 1),
    ("imp", (1, 0), 0),
    ("imp", (1, 1), 1),
]


def _random_expr(rng, names, depth, boolean=False):
    """A random expression. Logical operators mostly get 0/1-valued operands,
    as model validation requires, and sometimes integer ones, which they read
    as truth values (0 is false)."""
    if not boolean and (depth <= 0 or rng.random() < 0.3):
        return VarRef(rng.choice(names)) if rng.random() < 0.7 else IntConst(rng.randint(-3, 3))
    sorts = ("rel", "logic") if depth > 0 else ("rel",)
    kind = rng.choice([k for k, spec in OPS.items() if not boolean or spec.sort in sorts])
    spec = OPS[kind]
    arity = spec.min_arity if spec.max_arity == spec.min_arity else rng.randint(spec.min_arity, spec.min_arity + 1)
    logic = spec.sort == "logic"
    return op(kind, *(_random_expr(rng, names, depth - 1, logic and rng.random() < 0.7) for _ in range(arity)))


class TestOperatorTable:
    def test_cases_cover_every_operator(self):
        assert {kind for kind, _, _ in OPERATOR_CASES} == set(OPS)

    @pytest.mark.parametrize("kind,operands,expected", OPERATOR_CASES)
    def test_literal_semantics(self, kind, operands, expected):
        names = [f"a{i}" for i in range(len(operands))]
        e = op(kind, *names)
        assert evaluate(e, dict(zip(names, operands))) == expected
        assert evaluate(op(kind, *operands), {}) == expected
        position = {n: i for i, n in enumerate(names)}
        assert compile_expr(e, position, bounds=False)(operands) == expected
        assert compile_expr(e, position, bounds=True)([(v, v) for v in operands]) == (expected, expected)

    def test_interval_contains_every_value(self):
        rng = random.Random(4242)
        names = ["x", "y", "z"]
        for _ in range(300):
            e = _random_expr(rng, names, 3, boolean=rng.random() < 0.5)
            box = {}
            for n in names:
                lo = rng.randint(-3, 2)
                box[n] = (lo, lo + rng.randint(0, 3))
            position = {n: i for i, n in enumerate(names)}
            fn = compile_expr(e, position, bounds=False)
            bounds_fn = compile_expr(e, position, bounds=True)
            lo, hi = bounds_fn([box[n] for n in names])
            for values in itertools.product(*(range(box[n][0], box[n][1] + 1) for n in names)):
                binding = dict(zip(names, values))
                value = evaluate(e, binding)
                assert lo <= value <= hi, (e, box, binding)
                assert fn(values) == value, (e, binding)
                assert bounds_fn([(v, v) for v in values]) == (value, value), (e, binding)

class TestConstraintSatisfied:
    def test_alldifferent(self):
        c = AllDifferent(("a", "b", "c"))
        assert constraint_satisfied(c, asg(a=1, b=2, c=3))
        assert not constraint_satisfied(c, asg(a=1, b=2, c=2))

    def test_extension_star(self):
        t = supports(2, [(1, STAR), (0, 3)])
        c = Extension(("a", "b"), t)
        assert constraint_satisfied(c, asg(a=1, b=9))
        assert constraint_satisfied(c, asg(a=0, b=3))
        assert not constraint_satisfied(c, asg(a=0, b=4))

    def test_extension_conflicts(self):
        c = Extension(("a", "b"), conflicts(2, [(1, 1)]))
        assert constraint_satisfied(c, asg(a=0, b=1))
        assert not constraint_satisfied(c, asg(a=1, b=1))

    def test_knapsack_weights_sum(self):
        # weights 2,2,1,2,2 with every item taken stays within capacity 10
        c = Sum(tuple("abcde"), (2, 2, 1, 2, 2), Condition("le", 10))
        assert constraint_satisfied(c, asg(a=1, b=1, c=1, d=1, e=1))

    def test_sum_variable_coeffs(self):
        c = Sum(("a", "b"), ("p", "q"), Condition("eq", 5))
        assert constraint_satisfied(c, asg(a=1, b=1, p=2, q=3))
        assert not constraint_satisfied(c, asg(a=1, b=0, p=2, q=3))

    def test_circuit_enumerated_against_definition(self):
        # Oracle: self-loops are off the route; the rest must be one cycle
        # of length >= 2.
        def oracle(succ):
            n = len(succ)
            route = [i for i in range(n) if succ[i] != i]
            if len(route) < 2:
                return False
            # successor restricted to route must be a single cycle over it
            if sorted(succ[i] for i in route) != sorted(route):
                return False
            seen, node = set(), route[0]
            while node not in seen:
                seen.add(node)
                node = succ[node]
            return node == route[0] and seen == set(route)

        c = Circuit(("a", "b", "c"))
        for succ in itertools.product(range(3), repeat=3):
            got = constraint_satisfied(c, asg(a=succ[0], b=succ[1], c=succ[2]))
            assert got == oracle(list(succ)), succ

    def test_circuit_examples(self):
        c = Circuit(("a", "b", "c"))
        assert constraint_satisfied(c, asg(a=1, b=2, c=0))
        assert constraint_satisfied(c, asg(a=1, b=0, c=2))  # 2 self-loops out
        assert not constraint_satisfied(c, asg(a=0, b=1, c=2))  # no cycle

    def test_channel(self):
        c = Channel(("a", "b"), ("p", "q"))
        assert constraint_satisfied(c, asg(a=1, b=0, p=1, q=0))
        assert not constraint_satisfied(c, asg(a=1, b=0, p=0, q=1))

    def test_element_constant(self):
        c = Element(("a", "b", "c"), "i", 7)
        assert constraint_satisfied(c, asg(a=7, b=0, c=0, i=0))
        assert not constraint_satisfied(c, asg(a=7, b=0, c=0, i=1))
        assert not constraint_satisfied(c, asg(a=7, b=0, c=0, i=3))  # out of range

    def test_element_variable(self):
        c = Element(("a", "b"), "i", "v")
        assert constraint_satisfied(c, asg(a=3, b=5, i=1, v=5))

    def test_count(self):
        c = Count(("a", "b", "c"), (1,), Condition("le", 1))
        assert constraint_satisfied(c, asg(a=1, b=0, c=0))
        assert not constraint_satisfied(c, asg(a=1, b=1, c=0))

    def test_cardinality_closed(self):
        c = Cardinality(("a", "b", "c"), (0, 1), ((1, 2), (1, 2)), closed=True)
        assert constraint_satisfied(c, asg(a=0, b=1, c=0))
        assert not constraint_satisfied(c, asg(a=0, b=1, c=5))
        open_c = Cardinality(("a", "b", "c"), (0, 1), ((1, 2), (1, 2)), closed=False)
        assert constraint_satisfied(open_c, asg(a=0, b=1, c=5))

    def test_ordered(self):
        assert constraint_satisfied(Ordered(("a", "b", "c"), "lt"), asg(a=1, b=2, c=5))
        assert not constraint_satisfied(Ordered(("a", "b", "c"), "lt"), asg(a=1, b=1, c=5))
        assert constraint_satisfied(Ordered(("a", "b", "c"), "le"), asg(a=1, b=1, c=5))

    def test_lex(self):
        c = Lex((("a", "b"), ("c", "d")), "le")
        assert constraint_satisfied(c, asg(a=0, b=5, c=1, d=0))
        assert constraint_satisfied(c, asg(a=0, b=5, c=0, d=5))
        assert not constraint_satisfied(c, asg(a=1, b=0, c=0, d=5))

    def test_lex_matrix(self):
        c = LexMatrix((("a", "b"), ("c", "d")), "le")
        assert constraint_satisfied(c, asg(a=0, b=1, c=1, d=2))
        assert not constraint_satisfied(c, asg(a=1, b=0, c=0, d=1))  # rows break
        assert not constraint_satisfied(c, asg(a=0, b=0, c=1, d=0))  # columns break

    def test_regular(self):
        auto = Automaton("q0", (("q0", 0, "q0"), ("q0", 1, "q1"), ("q1", 1, "q1")), ("q1",))
        c = Regular(("a", "b", "c"), auto)
        assert constraint_satisfied(c, asg(a=0, b=0, c=1))
        assert not constraint_satisfied(c, asg(a=0, b=1, c=0))  # no (q1, 0)

    def test_cumulative(self):
        c = Cumulative(("a", "b"), (2, 2), (2, 2), 3)
        assert constraint_satisfied(c, asg(a=0, b=2))
        assert not constraint_satisfied(c, asg(a=0, b=1))

    def test_nooverlap_constants_and_vars(self):
        c = NoOverlap((("x1", "y1"), ("x2", "y2")), ((2, 2), ("w2", 2)))
        assert constraint_satisfied(c, asg(x1=0, y1=0, x2=2, y2=0, w2=2))
        assert not constraint_satisfied(c, asg(x1=0, y1=0, x2=1, y2=1, w2=2))

    def test_instantiation(self):
        c = Instantiation(("a", "b"), (1, 2))
        assert constraint_satisfied(c, asg(a=1, b=2))
        assert not constraint_satisfied(c, asg(a=1, b=3))



class TestAssignmentCost:
    def make(self, objective):
        variables = tuple(Variable(v, Domain.rng(0, 9)) for v in "abc")
        return Instance("COP", variables, (), objective)

    def test_sum_objective(self):
        inst = self.make(Objective("maximize", "sum", ("a", "b", "c"), (10, 20, 30)))
        assert assignment_cost(inst, asg(a=1, b=0, c=1)) == 40

    def test_maximum_objective(self):
        inst = self.make(Objective("minimize", "maximum", ("a", "b", "c")))
        assert assignment_cost(inst, asg(a=3, b=1, c=2)) == 3

    def test_variable_objective(self):
        inst = self.make(Objective("minimize", "variable", ("b",)))
        assert assignment_cost(inst, asg(a=0, b=7, c=0)) == 7

    def test_not_an_optimization_instance(self):
        inst = Instance("CSP", (Variable("a", Domain.rng(0, 1)),), ())
        with pytest.raises(NotAnOptimizationInstanceError):
            assignment_cost(inst, asg(a=0))


class TestValidation:
    def test_wellformed_empty_report(self):
        inst = Instance(
            "CSP",
            (Variable("a", Domain.rng(0, 1)), Variable("b", Domain.rng(0, 1))),
            (Extension(("a", "b"), supports(2, [(0, 1)])),),
        )
        assert validate_instance(inst) == []

    def test_extension_scope_mismatch(self):
        report = refusal(
            "CSP",
            (Variable("a", Domain.rng(0, 1)), Variable("b", Domain.rng(0, 1))),
            (Extension(("a", "b"), supports(3, [(0, 1, 0)])),),
        )
        codes = [v.code for v in report]
        assert "ScopeMismatch" in codes

    def test_objective_on_csp_kind_mismatch(self):
        report = refusal(
            "CSP",
            (Variable("a", Domain.rng(0, 1)),),
            (),
            Objective("minimize", "variable", ("a",)),
        )
        codes = [v.code for v in report]
        assert "KindMismatch" in codes

    def test_unknown_variable(self):
        report = refusal("CSP", (Variable("a", Domain.rng(0, 1)),), (AllDifferent(("a", "zz")),))
        codes = [v.code for v in report]
        assert "UnknownVariable" in codes

    def test_bound_overflow(self):
        big = Variable("a", Domain.of(0, 2**40))
        report = refusal(
            "CSP",
            (big, Variable("b", Domain.of(0, 2**40))),
            (Sum(("a", "b"), (2**40, 2**40), Condition("le", 0)),),
        )
        codes = [v.code for v in report]
        assert "BoundOverflow" in codes

    @pytest.mark.parametrize(
        "root", [op("add", "a", 1), IntConst(1), VarRef("a")], ids=["integer-operator", "constant", "variable"]
    )
    def test_nonboolean_intension_root(self, root):
        """An intension over any root constructs; an instance refuses a
        root that is not boolean with one report."""
        c = Intension(root)
        report = refusal("CSP", (Variable("a", Domain.rng(0, 1)),), (c,))
        assert [(v.code, v.where, v.detail) for v in report] == [
            ("NotBoolean", "constraint 0", "intension root must be a relational or logical operator")
        ]


@pytest.mark.parametrize(
    "kind, objective, violation",
    [
        ("COP", Objective("minimise", "variable", ("x",)),
         ("BadObjective", "objective", "unknown objective sense 'minimise'")),
        ("COP", Objective("minimize", "avg", ("x",)), ("BadObjective", "objective", "unknown objective kind 'avg'")),
        ("csp", None, ("BadKind", "instance", "kind must be CSP or COP, not 'csp'")),
        ("csp", Objective("minimize", "variable", ("x",)),
         ("BadKind", "instance", "kind must be CSP or COP, not 'csp'")),
    ],
    ids=["sense", "objective-kind", "instance-kind", "instance-kind-with-objective"],
)
def test_an_unknown_sense_or_kind_is_refused(kind, objective, violation):
    """Each would be read wrongly: the search takes any sense but
    ``minimize`` for ``maximize``, and neither the writer's ``<minimise>``
    nor its ``type="csp"`` parses back."""
    report = refusal(kind, (Variable("x", Domain.rng(0, 3)),), (), objective)
    assert [(v.code, v.where, v.detail) for v in report] == [violation]


@pytest.mark.parametrize(
    "objective",
    [Objective("maximize", "maximum", ("x", "y"), (5, 1)), Objective("minimize", "variable", ("x",), (2,))],
    ids=["maximum", "variable"],
)
def test_coeffs_on_an_objective_other_than_a_sum_are_refused(objective):
    """Only a sum reads its coeffs: a weighted maximum was read and then
    taken as max(x, y), so ``optimize`` answered 3 where XCSP3 gives 15."""
    variables = (Variable("x", Domain.rng(0, 3)), Variable("y", Domain.rng(0, 3)))
    report = refusal("COP", variables, (), objective)
    assert [(v.code, v.where, v.detail) for v in report] == [
        ("BadObjective", "objective", f"a {objective.kind!r} objective takes no coeffs"),
    ]


_XY = (Variable("x", Domain.rng(0, 3)), Variable("y", Domain.rng(0, 3)))


@pytest.mark.parametrize(
    "fields, violation",
    [
        (("CSP", (Variable("x", Domain((2, 1))),), ()), ("UnorderedDomain", "x", "domain values not strictly ascending")),
        (
            ("COP", _XY, (), Objective("minimize", "sum", ("x", "q"))),
            ("UnknownVariable", "objective", "references undeclared variable 'q'"),
        ),
        (
            ("COP", _XY, (), Objective("minimize", "sum", ("x", "y"), (1,))),
            ("LengthMismatch", "objective", "coeffs length differs from scope length"),
        ),
        (
            ("COP", _XY, (), Objective("maximize", "variable", ("x", "y"))),
            ("LengthMismatch", "objective", "variable objective needs exactly one variable"),
        ),
        (("CSP", _XY, (), None, ("x", "q")), ("UnknownVariable", "annotations", "decision variable 'q' not declared")),
        (
            ("COP", _XY, (), Objective("minimize", "sum", ("x", "y"), (2**62, 2**62))),
            ("BoundOverflow", "objective", "sum can exceed 64-bit range"),
        ),
        (("CSP", _XY, (_XY[0],)), ("UnknownConstraint", "constraint 0", "unknown constraint Variable")),
    ],
    ids=[
        "unordered-domain",
        "objective-unknown-variable",
        "objective-coeffs-length",
        "variable-objective-length",
        "annotations-unknown-variable",
        "objective-overflow",
        "unknown-constraint",
    ],
)
def test_a_refused_instance_reports_each_fault_with_its_place_and_detail(fields, violation):
    assert [(v.code, v.where, v.detail) for v in refusal(*fields)] == [violation]


class TestRecord:
    """The semantics of ``record``, which every model class is declared with."""

    def test_a_record_never_equals_a_tuple_or_a_record_of_another_class(self):
        assert AllDifferent(("x", "y")) != (("x", "y"),)
        assert (("x", "y"),) != AllDifferent(("x", "y"))
        assert AllDifferent(("x", "y")) != Circuit(("x", "y"))
        assert VarRef("x") != IntConst("x")
        assert AllDifferent(("x", "y")) == AllDifferent(("x", "y"))

    def test_equal_frozen_records_hash_equal_and_are_one_dict_key(self):
        table, copy = supports(2, [(0, 1), (1, 0)]), supports(2, [(1, 0), (0, 1)])
        assert table is not copy and table == copy and hash(table) == hash(copy)
        assert {table: "masks"}[copy] == "masks"
        # so make_propagators builds the masks of equal tables once
        store = DomainStore((Variable("x", Domain.rng(0, 1)), Variable("y", Domain.rng(0, 1))))
        first, second = make_propagators((Extension(("x", "y"), table), Extension(("x", "y"), copy)), store)
        assert first.supports is second.supports

    def test_a_frozen_record_refuses_assignment_and_deletion(self):
        domain = Domain.rng(0, 3)
        with pytest.raises(AttributeError):
            domain.values = (1,)
        with pytest.raises(AttributeError):
            domain.other = 1
        with pytest.raises(AttributeError):
            del domain.values
        assert domain.values == (0, 1, 2, 3)

    def test_a_mutable_record_is_assignable_and_unhashable(self):
        stats = SearchStats()
        stats.nodes += 2
        assert stats == SearchStats(nodes=2) and stats != SearchStats()
        with pytest.raises(TypeError):
            hash(stats)

    def test_defaults_keywords_and_post_init(self):
        objective = Objective("minimize", "sum", ("x",))
        assert objective.coeffs == () and objective == Objective(scope=("x",), kind="sum", sense="minimize")
        x = Variable("x", Domain.rng(0, 1))
        instance = Instance("CSP", [x], [])
        assert (instance.variables, instance.constraints, instance.objective, instance.decision_variables) == (
            (x,), (), None, ())
        by_keyword = Instance(kind="CSP", variables=(x,), constraints=(), decision_variables=["x"])
        assert by_keyword.decision_variables == ("x",)
        # __post_init__ sorts and deduplicates the rows
        assert Table(2, "supports", [[1, 0], (0, 1), (1, 0)]).rows == ((0, 1), (1, 0))
        with pytest.raises(TypeError):
            Objective("minimize", "sum")

    def test_the_repr_of_an_op_tree_is_pinned(self):
        assert repr(op("le", op("add", "x", 1), "y")) == (
            "Op(kind='le', children=(Op(kind='add', children=(VarRef(var_id='x'), IntConst(value=1))),"
            " VarRef(var_id='y')))"
        )


_ORDER_VARS = (
    Variable("x", Domain.of(0)),
    Variable("y", Domain.of(1)),
    Variable("u", Domain.of(0)),
    Variable("v", Domain.of(1)),
)
_ORDER_CONSTRAINTS = {
    "ordered": lambda operator: Ordered(("x", "y"), operator),
    "lex": lambda operator: Lex((("x", "y"), ("u", "v")), operator),
    "lexMatrix": lambda operator: LexMatrix((("x", "y"), ("u", "v")), operator),
}


@pytest.mark.parametrize("operator", ["eq", "ne"])
@pytest.mark.parametrize("kind", sorted(_ORDER_CONSTRAINTS))
def test_order_constraints_refuse_eq_and_ne(kind, operator):
    make = _ORDER_CONSTRAINTS[kind]
    assert [v.code for v in refusal("CSP", _ORDER_VARS, (make(operator),))] == ["BadOperator"]
    text = write_instance(Instance("CSP", _ORDER_VARS, (make("le"),)))
    assert text.count("<operator> le </operator>") == 1
    with pytest.raises(InvariantViolationError, match="BadOperator"):
        parse_instance(text.replace("<operator> le </operator>", f"<operator> {operator} </operator>"))


def test_cardinality_refuses_a_repeated_value():
    """Each listed value has its own bounds, so a repeated value would be
    bounded twice. Closed over x in {0, 1}, this one held at x = 0 for the
    checker, yet the search found it UNSAT: the sum of the bounds, 2, was
    more than the one position."""
    c = Cardinality(("x",), (0, 0), ((1, 1), (1, 1)), closed=True)
    variables = (Variable("x", Domain.rng(0, 1)),)
    assert [v.code for v in refusal("CSP", variables, (c,))] == ["RepeatedValue"]
    text = write_instance(Instance("CSP", variables, (Cardinality(("x",), (0, 1), ((1, 1), (1, 1)), closed=True),)))
    with pytest.raises(InvariantViolationError, match="RepeatedValue"):
        parse_instance(text.replace("<values closed=\"true\"> 0 1 </values>", "<values closed=\"true\"> 0 0 </values>"))


def _random_table(rng, arity, domain_size, polarity, star_ok=True):
    rows = []
    for _ in range(rng.randint(0, domain_size**arity)):
        row = tuple(
            STAR if star_ok and rng.random() < 0.2 else rng.randrange(domain_size) for _ in range(arity)
        )
        rows.append(row)
    return Table(arity, polarity, tuple(rows))


class TestTableProperties:
    def test_star_expansion_equivalence(self):
        """A short table accepts exactly what its star-free expansion does
        (exhaustive over domains of size <= 4)."""
        rng = random.Random(7)
        for _ in range(60):
            arity = rng.randint(1, 3)
            dsize = rng.randint(1, 4)
            table = _random_table(rng, arity, dsize, "supports")
            expanded_rows = []
            for row in table.rows:
                options = [range(dsize) if e == STAR else (e,) for e in row]
                expanded_rows.extend(itertools.product(*options))
            expanded = Table(arity, "supports", tuple(expanded_rows))
            scope = tuple(f"v{i}" for i in range(arity))
            for values in itertools.product(range(dsize), repeat=arity):
                a = Assignment(dict(zip(scope, values)))
                assert constraint_satisfied(Extension(scope, table), a) == constraint_satisfied(
                    Extension(scope, expanded), a
                )

    def test_negative_table_duality(self):
        """SUPPORTS table T and CONFLICTS table (full product minus T's
        matches) accept the same assignments."""
        rng = random.Random(11)
        for _ in range(40):
            arity = rng.randint(1, 3)
            dsize = rng.randint(1, 3)
            table = _random_table(rng, arity, dsize, "supports")
            universe = list(itertools.product(range(dsize), repeat=arity))
            complement = [t for t in universe if not table.matches(t)]
            dual = Table(arity, "conflicts", tuple(complement))
            scope = tuple(f"v{i}" for i in range(arity))
            for values in universe:
                a = Assignment(dict(zip(scope, values)))
                assert constraint_satisfied(Extension(scope, table), a) == constraint_satisfied(
                    Extension(scope, dual), a
                )

    def test_channel_symmetry(self):
        rng = random.Random(13)
        for n in (1, 2, 3, 4):
            la = tuple(f"a{i}" for i in range(n))
            lb = tuple(f"b{i}" for i in range(n))
            for _ in range(50):
                binding = {v: rng.randrange(n) for v in la + lb}
                a = Assignment(binding)
                assert constraint_satisfied(Channel(la, lb), a) == constraint_satisfied(Channel(lb, la), a)


class TestCheckerTotality:
    """Every catalog member yields a boolean on any total assignment."""

    def test_fuzz_no_crash(self):
        rng = random.Random(23)
        names = tuple(f"v{i}" for i in range(4))
        for trial in range(300):
            dsize = rng.randint(1, 5)
            values = {v: rng.randrange(-2, dsize + 2) for v in names}
            a = Assignment(values)
            cands = [
                AllDifferent(names),
                AllDifferentMatrix(((names[0], names[1]), (names[2], names[3]))),
                Ordered(names, rng.choice(("lt", "le", "gt", "ge"))),
                Lex(((names[0], names[1]), (names[2], names[3])), rng.choice(("lt", "le", "gt", "ge"))),
                LexMatrix(((names[0], names[1]), (names[2], names[3])), rng.choice(("lt", "le", "gt", "ge"))),
                Sum(names, tuple(rng.randint(-3, 3) for _ in names), Condition("le", rng.randint(-5, 5))),
                Count(names, (0, 1), Condition("eq", rng.randint(0, 4))),
                Cardinality(names, (0, 1), ((0, 2), (0, 2)), closed=bool(rng.getrandbits(1))),
                Element(names[:3], names[3], rng.randint(-1, 4)),
                Channel(names[:2], names[2:]),
                NoOverlap(((names[0], names[1]), (names[2], names[3])), ((1, 2), (2, 1))),
                Cumulative(names, (1, 2, 1, 2), (1, 1, 2, 1), 2),
                Circuit(names),
                Instantiation(names, (0, 1, 0, 1)),
                Extension(names[:2], _random_table(rng, 2, dsize, rng.choice(("supports", "conflicts")))),
                Regular(
                    names[:2],
                    Automaton("s", (("s", 0, "s"), ("s", 1, "t"), ("t", 0, "t")), ("t",)),
                ),
                Intension(op("le", op("add", names[0], names[1]), names[2])),
            ]
            c = cands[trial % len(cands)]
            assert constraint_satisfied(c, a) in (True, False)


# Malformed twins of each class of the kitchen sink: one per well-formedness
# rule, a table shared by two constraints, and undeclared variables ("u",
# "v") whose order in the report follows the scope order.
_SHARED = supports(2, [(0, 1), (2,), (1, 2, 3)])
_TWINS = {
    Intension: (
        Intension(parse_expr("add(x[0],x[1])")),
        Intension(op("and", "x[0]", op("le", "x[1]", "u"))),
        Intension(op("add", op("not", op("add", "x[0]", 1)), 1)),
    ),
    Extension: (
        Extension(("x[0]", "x[1]", "x[2]"), supports(2, [(0, 1)])),
        Extension(("x[0]", "x[1]"), _SHARED),
        Extension(("x[2]", "x[3]"), _SHARED),
        Extension(("x[0]", "x[2]"), supports(2, [(0, 1), (2,), (1, 2, 3)])),
        Extension(("x[0]",), Table(1, "maybe", ((0,),))),
        Extension(("u", "x[0]"), Table(3, "maybe", ((0,), (0, 1, 2)))),
    ),
    Regular: (
        Regular(("x[0]", "x[1]"), Automaton("q0", (("q0", 0, "q1"), ("q0", 0, "q0")), ("q1",))),
        Regular(("x[0]", "x[1]"), Automaton("q0", (("q0", 0, "q1"),), ("q9", "q1", "q8"))),
        Regular(("x[0]", "u"), Automaton("q0", (("q0", 1, "q0"), ("q0", 1, "q1")), ("q2",))),
    ),
    AllDifferent: (AllDifferent(("x[0]", "u", "x[1]", "u", "v")),),
    AllDifferentMatrix: (
        AllDifferentMatrix((("y[0][0]", "y[0][1]"), ("y[1][0]",))),
        AllDifferentMatrix((("u", "y[0][1]"), ("y[1][0]", "v"))),
    ),
    Ordered: (Ordered(("x[0]", "x[1]"), "eq"), Ordered(("u", "x[1]", "u"), "le")),
    Lex: (
        Lex((("x[0]", "x[1]"), ("x[2]",)), "ne"),
        Lex((("x[0]", "x[1]"), ("x[2]", "x[3]")), "eq"),
        Lex((("x[0]", "x[1]"), ("x[2]", "x[3]"), ("u",)), "lt"),
    ),
    LexMatrix: (
        LexMatrix((("y[0][0]", "y[0][1]"), ("y[1][0]",)), "eq"),
        LexMatrix((("y[0][0]", "u"), ("y[1][0]", "y[1][1]")), "ge"),
    ),
    Sum: (
        Sum(("x[0]", "x[1]"), (1,), Condition("le", 3)),
        Sum(("x[0]",), (1,), Condition("xx", 3)),
        Sum(("x[0]",), (1,), Condition("le", (1, 2))),
        Sum(("x[0]",), (1,), Condition("in", (5, 1))),
        Sum(("x[0]",), (1,), Condition("in", 3)),
        Sum(("x[0]", "x[1]"), ("u", "x[2]"), Condition("eq", "v")),
        Sum(("x[0]",), (2**62,), Condition("le", 0)),
        Sum(("x[0]", "x[1]", "x[2]"), (1, 2), Condition("zz", (4, 3))),
    ),
    Count: (
        Count(("x[0]",), (1,), Condition("in", (3, 2))),
        Count(("x[0]", "u"), (1,), Condition("zz", "v")),
        Count(("x[0]",), (1,), Condition("eq", (0, 1))),
    ),
    Cardinality: (
        Cardinality(("x[0]", "x[1]"), (0, 1), ((0, 1),)),
        Cardinality(("x[0]", "u"), (0, 1), ((2, 1), (0, 1), (3, 0))),
        Cardinality(("x[0]",), (1, 0, 1), ((0, 1),) * 3),
    ),
    Element: (Element((), "x[0]", 1), Element(("x[0]", "u"), "v", "w"), Element(("x[0]",), "x[1]", "u")),
    Channel: (Channel(("x[0]", "x[1]"), ("x[2]",)), Channel(("u",), ("x[0]", "v"))),
    NoOverlap: (
        NoOverlap((("x[0]", "x[1]"), ("x[2]", "x[3]")), ((1, 1),)),
        NoOverlap((("x[0]", "u"), ("x[2]", "x[3]")), ((1, "v"), ("u", "w"))),
    ),
    Cumulative: (
        Cumulative(("x[0]", "x[1]"), (1,), (1, 1), 2),
        Cumulative(("x[0]",), (-1,), (1,), 2),
        Cumulative(("x[0]", "u", "x[1]"), (1, 1), (1, -2, 1, 1), 2),
    ),
    Circuit: (Circuit(("x[0]", "u", "x[1]", "u")),),
    Instantiation: (Instantiation(("x[0]", "x[1]"), (0,)), Instantiation(("u",), (0, 1))),
}

#: class -> (scopes of the sink's constraints of that class, their kind,
#: the report on an instance of the class's twins as (code, where, detail))
_PINNED = {
    Intension: (
        [('x[0]', 'x[1]', 'z'), ('x[0]', 'x[1]'), ('x[1]', 'x[2]')],
        'intension',
        [
            ('NotBoolean', 'constraint 0', 'intension root must be a relational or logical operator'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('NotBoolean', 'constraint 1', 'and requires boolean operands, got VarRef'),
            ('NotBoolean', 'constraint 2', 'intension root must be a relational or logical operator'),
            ('NotBoolean', 'constraint 2', 'not requires boolean operands, got Op'),
        ],
    ),
    Extension: (
        [('x[0]', 'x[1]'), ('x[0]',), ('x[0]', 'x[1]'), ('x[1]', 'x[2]'), ('x[2]', 'x[3]'), ('x[1]',), ('x[2]',)],
        'extension',
        [
            ('ScopeMismatch', 'constraint 0', 'table arity 2 != scope length 3'),
            ('ScopeMismatch', 'constraint 1', 'row (1, 2, 3) does not have 2 entries'),
            ('ScopeMismatch', 'constraint 1', 'row (2,) does not have 2 entries'),
            ('ScopeMismatch', 'constraint 2', 'row (1, 2, 3) does not have 2 entries'),
            ('ScopeMismatch', 'constraint 2', 'row (2,) does not have 2 entries'),
            ('ScopeMismatch', 'constraint 3', 'row (1, 2, 3) does not have 2 entries'),
            ('ScopeMismatch', 'constraint 3', 'row (2,) does not have 2 entries'),
            ('BadPolarity', 'constraint 4', "unknown polarity 'maybe'"),
            ('UnknownVariable', 'constraint 5', "references undeclared variable 'u'"),
            ('ScopeMismatch', 'constraint 5', 'table arity 3 != scope length 2'),
            ('ScopeMismatch', 'constraint 5', 'row (0,) does not have 3 entries'),
            ('BadPolarity', 'constraint 5', "unknown polarity 'maybe'"),
        ],
    ),
    Regular: (
        [('x[0]', 'x[1]')],
        'regular',
        [
            ('NondeterministicAutomaton', 'constraint 0', 'two transitions share (state, symbol)'),
            ('UnreachableFinal', 'constraint 1', "final state 'q8' unreachable from start"),
            ('UnreachableFinal', 'constraint 1', "final state 'q9' unreachable from start"),
            ('UnknownVariable', 'constraint 2', "references undeclared variable 'u'"),
            ('NondeterministicAutomaton', 'constraint 2', 'two transitions share (state, symbol)'),
            ('UnreachableFinal', 'constraint 2', "final state 'q2' unreachable from start"),
        ],
    ),
    AllDifferent: (
        [('x[0]', 'x[1]', 'x[2]')],
        'allDifferent',
        [
            ('UnknownVariable', 'constraint 0', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 0', "references undeclared variable 'v'"),
        ],
    ),
    AllDifferentMatrix: (
        [('y[0][0]', 'y[0][1]', 'y[1][0]', 'y[1][1]')],
        'allDifferentMatrix',
        [
            ('RaggedMatrix', 'constraint 0', 'matrix rows have differing lengths'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'v'"),
        ],
    ),
    Ordered: (
        [('x[0]', 'x[1]', 'x[2]')],
        'ordered',
        [
            ('BadOperator', 'constraint 0', "order operator must be one of lt, le, ge, gt, got 'eq'"),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
        ],
    ),
    Lex: (
        [('x[0]', 'x[1]', 'x[2]', 'x[3]')],
        'lex',
        [
            ('BadOperator', 'constraint 0', "order operator must be one of lt, le, ge, gt, got 'ne'"),
            ('RaggedMatrix', 'constraint 0', 'lex rows have differing lengths'),
            ('BadOperator', 'constraint 1', "order operator must be one of lt, le, ge, gt, got 'eq'"),
            ('UnknownVariable', 'constraint 2', "references undeclared variable 'u'"),
            ('RaggedMatrix', 'constraint 2', 'lex rows have differing lengths'),
        ],
    ),
    LexMatrix: (
        [('y[0][0]', 'y[0][1]', 'y[1][0]', 'y[1][1]')],
        'lexMatrix',
        [
            ('BadOperator', 'constraint 0', "order operator must be one of lt, le, ge, gt, got 'eq'"),
            ('RaggedMatrix', 'constraint 0', 'matrix rows have differing lengths'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
        ],
    ),
    Sum: (
        [('x[0]', 'x[1]'), ('x[0]', 'x[1]', 'w'), ('x[0]', 'x[1]', 'y[0][0]', 'y[0][1]')],
        'sum',
        [
            ('LengthMismatch', 'constraint 0', 'coeffs length differs from scope length'),
            ('BadOperator', 'constraint 1', "unknown condition operator 'xx'"),
            ('BadCondition', 'constraint 2', "interval rhs only valid with operator 'in'"),
            ('BadBounds', 'constraint 3', 'interval (5, 1) inverted'),
            ('BadCondition', 'constraint 4', "operator 'in' requires an interval rhs"),
            ('UnknownVariable', 'constraint 5', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 5', "references undeclared variable 'v'"),
            ('LengthMismatch', 'constraint 7', 'coeffs length differs from scope length'),
            ('BadOperator', 'constraint 7', "unknown condition operator 'zz'"),
            ('BadCondition', 'constraint 7', "interval rhs only valid with operator 'in'"),
            ('BoundOverflow', 'constraint 6', 'sum can exceed 64-bit range'),
        ],
    ),
    Count: (
        [('x[0]', 'x[1]', 'x[2]')],
        'count',
        [
            ('BadBounds', 'constraint 0', 'interval (3, 2) inverted'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'v'"),
            ('BadOperator', 'constraint 1', "unknown condition operator 'zz'"),
            ('BadCondition', 'constraint 2', "interval rhs only valid with operator 'in'"),
        ],
    ),
    Cardinality: (
        [('x[0]', 'x[1]', 'x[2]')],
        'cardinality',
        [
            ('LengthMismatch', 'constraint 0', 'values and occurs lengths differ'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('LengthMismatch', 'constraint 1', 'values and occurs lengths differ'),
            ('BadBounds', 'constraint 1', 'occurrence bounds 2..1 inverted'),
            ('BadBounds', 'constraint 1', 'occurrence bounds 3..0 inverted'),
            ('RepeatedValue', 'constraint 2', 'a value is listed twice'),
        ],
    ),
    Element: (
        [('x[0]', 'x[1]', 'x[2]', 'z'), ('x[0]', 'x[1]', 'x[2]')],
        'element',
        [
            ('LengthMismatch', 'constraint 0', 'element list is empty'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'v'"),
            ('UnknownVariable', 'constraint 2', "references undeclared variable 'u'"),
        ],
    ),
    Channel: (
        [('x[0]', 'x[1]', 'x[2]', 'x[3]')],
        'channel',
        [
            ('LengthMismatch', 'constraint 0', 'channel lists have differing lengths'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'v'"),
            ('LengthMismatch', 'constraint 1', 'channel lists have differing lengths'),
        ],
    ),
    NoOverlap: (
        [('x[0]', 'x[1]', 'x[2]', 'x[3]', 'h[0][1]', 'h[1][0]')],
        'noOverlap',
        [
            ('LengthMismatch', 'constraint 0', 'origins and lengths differ in item count'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'v'"),
        ],
    ),
    Cumulative: (
        [('x[0]', 'x[1]')],
        'cumulative',
        [
            ('LengthMismatch', 'constraint 0', 'origins, lengths, heights must have equal lengths'),
            ('BadBounds', 'constraint 1', 'negative task length or height'),
            ('UnknownVariable', 'constraint 2', "references undeclared variable 'u'"),
            ('LengthMismatch', 'constraint 2', 'origins, lengths, heights must have equal lengths'),
            ('BadBounds', 'constraint 2', 'negative task length or height'),
        ],
    ),
    Circuit: (
        [('x[0]', 'x[1]', 'x[2]')],
        'circuit',
        [
            ('UnknownVariable', 'constraint 0', "references undeclared variable 'u'"),
        ],
    ),
    Instantiation: (
        [('x[0]', 'x[1]')],
        'instantiation',
        [
            ('LengthMismatch', 'constraint 0', 'scope and values lengths differ'),
            ('UnknownVariable', 'constraint 1', "references undeclared variable 'u'"),
            ('LengthMismatch', 'constraint 1', 'scope and values lengths differ'),
        ],
    ),
}


@pytest.mark.parametrize("cls", list(_TWINS), ids=lambda cls: cls.__name__)
def test_scope_kind_and_report_of_each_class_are_pinned(cls):
    sink = _kitchen_sink_instance()
    scopes, kind, report = _PINNED[cls]
    own = [c for c in sink.constraints if type(c) is cls]
    assert [constraint_scope(c) for c in own] == scopes
    assert {constraint_kind(c) for c in own} == {kind}
    assert [(v.code, v.where, v.detail) for v in refusal("CSP", sink.variables, _TWINS[cls])] == report


def test_every_constraint_class_has_one_catalogue_row():
    classes = set(typing.get_args(Constraint))
    assert set(_KINDS) == classes
    assert set(_TWINS) == classes
    with pytest.raises(TypeError, match="unknown constraint Variable"):
        constraint_kind(Variable("a", Domain.rng(0, 1)))


def test_sum_windows_of_a_slide_are_each_checked_for_overflow():
    big = 2**63 - 1
    text = f"""<instance format="XCSP3" type="CSP">
    <variables> <array id="x" size="[3]"> 0..3 </array> </variables>
    <constraints> <slide> <list> x[0] x[1] x[2] </list>
      <sum> <list> %0 %1 </list> <coeffs> {big} {big} </coeffs> <condition> (le,5) </condition> </sum>
    </slide> </constraints> </instance>"""
    with pytest.raises(InvariantViolationError) as err:
        parse_instance(text)
    assert [(v.code, v.where) for v in err.value.report] == [
        ("BoundOverflow", "constraint 0"),
        ("BoundOverflow", "constraint 1"),
    ]
    assert err.value.location.line == 3
    variables = tuple(Variable(f"x[{i}]", Domain.rng(0, 3)) for i in range(3))
    windows = (Sum(("x[0]", "x[1]"), (big, big), Condition("le", 5)), Sum(("x[1]", "x[2]"), (1, 1), Condition("le", 5)))
    assert [(v.code, v.where, v.detail) for v in refusal("CSP", variables, windows)] == [
        ("BoundOverflow", "constraint 0", "sum can exceed 64-bit range")
    ]


# The scope and template of an intension, as the walks that one walk
# replaced computed them: the distinct variables of a depth-first walk, and
# the expression over their positions.


def _reference_vars(expression):
    if isinstance(expression, VarRef):
        yield expression.var_id
    elif isinstance(expression, Op):
        for child in expression.children:
            yield from _reference_vars(child)


def _reference_template(expression, position):
    if isinstance(expression, Op):
        return (expression.kind, *(_reference_template(e, position) for e in expression.children))
    return position[expression.var_id] if isinstance(expression, VarRef) else expression


def _intensions(constraints):
    return (c for c in constraints if isinstance(c, Intension))


def _random_expression(rng, depth):
    """An expression over four names and the constants -1..4, so that
    variables repeat and constants equal positions; any kind of any arity
    its row allows, whatever the sorts of its operands."""
    if depth == 0 or rng.random() < 0.3:
        return VarRef(rng.choice("wxyz")) if rng.random() < 0.6 else IntConst(rng.randint(-1, 4))
    kind = rng.choice(sorted(OPS))
    spec = OPS[kind]
    arity = rng.randint(spec.min_arity, spec.max_arity or 4)
    return Op(kind, tuple(_random_expression(rng, depth - 1) for _ in range(arity)))


def _expressions_to_compare():
    from test_generators import ALL_REQUESTS
    from xcspkit.generators import build, gen_golomb_ruler, gen_low_autocorrelation, gen_social_golfers, gen_still_life

    instances = [build(r) for r in ALL_REQUESTS]
    instances += [gen_still_life(12), gen_still_life(8), gen_low_autocorrelation(40), gen_golomb_ruler(12)]
    instances.append(gen_social_golfers(4, 4, 4))
    for instance in instances:
        for c in _intensions(instance.constraints):
            yield c.expr
    rng = random.Random(31)
    for _ in range(500):
        yield _random_expression(rng, 4)
    yield from (VarRef("x"), IntConst(0), IntConst(1), parse_expr("eq(x,0)"), parse_expr("add(x,y,x,1,0)"))


def test_an_intension_keeps_the_scope_and_template_of_the_walks_it_replaced():
    count = 0
    for expression in _expressions_to_compare():
        c = Intension(expression)
        scope = tuple(dict.fromkeys(_reference_vars(expression)))
        template = _reference_template(expression, {v: i for i, v in enumerate(scope)})
        assert c.scope == scope and constraint_scope(c) == scope
        assert c.template == template and repr(c.template) == repr(template)
        count += 1
    assert count > 2000


def _reference_operand_violations(e):
    """The operand check as it walked every node of every intension at
    each validation, before it was worked out once per template."""
    if not isinstance(e, Op):
        return
    if OPS[e.kind].sort == "logic":
        for child in e.children:
            if not (isinstance(child, Op) and OPS[child.kind].sort != "int"):
                yield "NotBoolean", f"{e.kind} requires boolean operands, got {type(child).__name__}"
    for child in e.children:
        yield from _reference_operand_violations(child)


def test_an_intension_report_is_that_of_the_walk_it_replaced():
    """One memo, as one validating call keeps, holds one operand report per
    distinct template, and every intension's report, a random expression's
    non-boolean operands of ``and``, ``or`` and ``not`` included, is the one
    the walk over its own expression gives."""
    check = _KINDS[Intension].violations
    memo: dict = {}
    templates = set()
    refused = 0
    for expression in _expressions_to_compare():
        c = Intension(expression)
        expected = list(_reference_operand_violations(expression))
        if not (isinstance(expression, Op) and OPS[expression.kind].sort != "int"):
            expected.insert(0, ("NotBoolean", "intension root must be a relational or logical operator"))
        assert list(check(c, memo)) == expected
        assert list(check(c, {})) == expected
        templates.add(c.template)
        refused += bool(expected)
    assert len(memo) == len(templates) and refused > 100


def test_table_rows_sort_as_the_keyed_sort_with_and_without_star():
    """Rows without a STAR sort as themselves; the order and the dedupe are
    those of the sort keyed on ints first and STAR last at each position."""
    rng = random.Random(2024)
    for trial in range(400):
        arity = rng.randint(1, 4)
        star = trial % 2 == 1
        rows = [
            tuple(STAR if star and rng.random() < 0.2 else rng.randint(-3, 3) for _ in range(arity))
            for _ in range(rng.randint(0, 40))
        ]
        distinct = list(dict.fromkeys(rows))
        keyed = sorted(distinct, key=lambda row: tuple((1, 0) if v == STAR else (0, v) for v in row))
        assert Table(arity, "supports", tuple(rows)).rows == tuple(keyed)
