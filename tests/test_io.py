"""Parser/writer tests: the spec'd fragments, error reporting with
locations, and round-trip identity on hand-built instances."""

import typing

import pytest

from xcspkit.errors import (
    InvariantViolationError,
    LengthMismatchError,
    UnknownVariableError,
    UnsupportedFeatureError,
    XmlSyntaxError,
)
from xcspkit.expr import parse_expr
from xcspkit.io import _LAYOUTS, parse_instance, parse_solution, write_instance, write_solution
from xcspkit.model import (
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
    Slide,
    Sum,
    Variable,
    conflicts,
    supports,
)


def test_minimal_extension_instance():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables>
        <var id="x"> 0..2 </var>
      </variables>
      <constraints>
        <extension>
          <list> x </list>
          <supports> 0 2 </supports>
        </extension>
      </constraints>
    </instance>
    """
    inst = parse_instance(text)
    assert len(inst.variables) == 1
    assert inst.variables[0].domain.values == (0, 1, 2)
    (c,) = inst.constraints
    assert isinstance(c, Extension)
    assert len(c.table.rows) == 2


def test_star_token_in_tuples():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables>
        <array id="v" size="[3]"> 1..3 </array>
      </variables>
      <constraints>
        <extension>
          <list> v[0] v[1] v[2] </list>
          <supports> (1,*,3) </supports>
        </extension>
      </constraints>
    </instance>
    """
    inst = parse_instance(text)
    (c,) = inst.constraints
    assert c.table.rows == ((1, STAR, 3),)


def test_truncated_document_reports_location():
    with pytest.raises(XmlSyntaxError) as err:
        parse_instance("<instance format=\"XCSP3\" type=\"CSP\">\n  <variables>")
    assert err.value.location.line >= 1
    assert err.value.location.column >= 1


def test_unknown_variable_in_constraint():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <var id="x"> 0 1 </var> </variables>
      <constraints> <allDifferent> x yy </allDifferent> </constraints>
    </instance>
    """
    with pytest.raises(UnknownVariableError) as err:
        parse_instance(text)
    assert err.value.var_id == "yy"


def test_unsupported_elements_are_named():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <var id="x"> 0 1 </var> </variables>
      <constraints> <mdd> <list> x </list> </mdd> </constraints>
    </instance>
    """
    with pytest.raises(UnsupportedFeatureError) as err:
        parse_instance(text)
    assert err.value.feature == "mdd"


def test_group_expansion():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[3]"> 0..4 </array> </variables>
      <constraints>
        <group>
          <intension> lt(%0,%1) </intension>
          <args> x[0] x[1] </args>
          <args> x[1] x[2] </args>
        </group>
      </constraints>
    </instance>
    """
    inst = parse_instance(text)
    assert len(inst.constraints) == 2
    assert inst.constraints[0] == Intension(parse_expr("lt(x[0],x[1])"))
    assert inst.constraints[1] == Intension(parse_expr("lt(x[1],x[2])"))


def test_block_flattening():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[2]"> 0..4 </array> </variables>
      <constraints>
        <block>
          <intension> lt(x[0],x[1]) </intension>
          <block> <allDifferent> x[0] x[1] </allDifferent> </block>
        </block>
      </constraints>
    </instance>
    """
    inst = parse_instance(text)
    assert len(inst.constraints) == 2


def test_slide_compact_form_expands():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[4]"> 0 1 </array> </variables>
      <constraints>
        <slide>
          <list> x[0] x[1] x[2] x[3] </list>
          <extension>
            <list> %0 %1 %2 </list>
            <conflicts> (1,1,1) </conflicts>
          </extension>
        </slide>
      </constraints>
    </instance>
    """
    inst = parse_instance(text)
    (c,) = inst.constraints
    assert isinstance(c, Slide)
    assert len(c.windows) == 2
    assert c.windows[0].scope == ("x[0]", "x[1]", "x[2]")
    assert c.windows[1].scope == ("x[1]", "x[2]", "x[3]")


def test_domain_run_compression():
    inst = Instance("CSP", (Variable("x", Domain.of(0, 1, 2, 3, 7)),), ())
    out = write_instance(inst)
    assert '<var id="x"> 0..3 7 </var>' in out


def test_objective_block_unique():
    inst = Instance(
        "COP",
        (Variable("x", Domain.rng(0, 5)),),
        (),
        Objective("minimize", "variable", ("x",)),
    )
    out = write_instance(inst)
    assert out.count("<objectives>") == 1
    assert "<minimize> x </minimize>" in out


def test_parse_solution_fragment():
    a = parse_solution("<instantiation> <list> x y </list> <values> 1 2 </values> </instantiation>")
    assert a.bindings == {"x": 1, "y": 2}


def test_parse_solution_length_mismatch():
    with pytest.raises(LengthMismatchError):
        parse_solution("<instantiation> <list> x y </list> <values> 1 </values> </instantiation>")


def test_parse_solution_rejects_repeated_id():
    text = "<instantiation>\n<list> x y x </list> <values> 1 2 3 </values> </instantiation>"
    with pytest.raises(XmlSyntaxError, match="'x' listed twice") as err:
        parse_solution(text)
    assert (err.value.location.line, err.value.location.column) == (2, 1)


def test_parse_solution_rejects_wildcard():
    with pytest.raises(UnsupportedFeatureError):
        parse_solution("<instantiation> <list> x </list> <values> * </values> </instantiation>")


def test_solution_roundtrip():
    a = Assignment({"x[0]": 3, "x[1]": -2})
    assert parse_solution(write_solution(a)).bindings == a.bindings


def test_write_rejects_invalid_instance():
    bad = Instance(
        "CSP",
        (Variable("a", Domain.rng(0, 1)),),
        (Extension(("a",), supports(2, [(0, 1)])),),
    )
    with pytest.raises(InvariantViolationError):
        write_instance(bad)


def _kitchen_sink_instance() -> Instance:
    """One instance touching every serializable constraint form."""
    variables = [Variable(f"x[{i}]", Domain.rng(0, 3)) for i in range(4)]
    variables += [Variable(f"y[{i}][{j}]", Domain.rng(0, 3)) for i in range(2) for j in range(2)]
    variables.append(Variable("z", Domain.of(0, 1, 5)))
    variables.append(Variable("w", Domain.rng(0, 9)))
    # a holey family stays as scalar vars
    variables.append(Variable("h[0][1]", Domain.rng(1, 2)))
    variables.append(Variable("h[1][0]", Domain.rng(1, 2)))
    x = [f"x[{i}]" for i in range(4)]
    grid = (("y[0][0]", "y[0][1]"), ("y[1][0]", "y[1][1]"))
    cs = [
        Intension(parse_expr("eq(add(x[0],x[1]),z)")),
        Extension((x[0], x[1]), supports(2, [(0, 1), (2, STAR)])),
        Extension((x[0],), conflicts(1, [(1,), (3,)])),
        Regular(
            (x[0], x[1]),
            Automaton("q0", (("q0", 0, "q1"), ("q1", 1, "q1"), ("q0", 1, "q0")), ("q1",)),
        ),
        AllDifferent((x[0], x[1], x[2])),
        AllDifferentMatrix(grid),
        Ordered((x[0], x[1], x[2]), "le"),
        Lex(((x[0], x[1]), (x[2], x[3])), "lt"),
        LexMatrix(grid, "le"),
        Sum((x[0], x[1]), (2, -3), Condition("in", (-5, 5))),
        Sum((x[0], x[1]), (1, 1), Condition("eq", "w")),
        Sum((x[0], x[1]), ("y[0][0]", "y[0][1]"), Condition("le", 9)),
        Count((x[0], x[1], x[2]), (1, 2), Condition("ge", 1)),
        Cardinality((x[0], x[1], x[2]), (0, 1), ((0, 2), (1, 1)), closed=True),
        Element((x[0], x[1]), x[2], "z"),
        Element((x[0], x[1]), x[2], 3),
        Channel((x[0], x[1]), (x[2], x[3])),
        NoOverlap(
            (("x[0]", "x[1]"), ("x[2]", "x[3]")),
            ((1, 2), ("h[0][1]", "h[1][0]")),
        ),
        Cumulative((x[0], x[1]), (2, 3), (1, 2), 2),
        Circuit((x[0], x[1], x[2])),
        Instantiation((x[0], x[1]), (0, 3)),
        Slide(
            (
                Extension((x[0], x[1]), conflicts(2, [(1, 1)])),
                Extension((x[1], x[2]), conflicts(2, [(1, 1)])),
                Extension((x[2], x[3]), conflicts(2, [(1, 1)])),
            )
        ),
        Slide(
            (
                Intension(parse_expr("le(x[0],x[1])")),
                Intension(parse_expr("le(x[1],x[2])")),
            )
        ),
        Slide(
            (
                Extension((x[1],), supports(1, [(1,), (2,)])),
                Extension((x[2],), supports(1, [(1,), (2,)])),
            )
        ),
    ]
    objective = Objective("maximize", "sum", (x[0], x[1]), (3, 4))
    return Instance("COP", tuple(variables), tuple(cs), objective, (x[0], x[1]))


def test_roundtrip_kitchen_sink():
    inst = _kitchen_sink_instance()
    text = write_instance(inst)
    back = parse_instance(text)
    assert back == inst


def test_canonical_stability_kitchen_sink():
    inst = _kitchen_sink_instance()
    text = write_instance(inst)
    assert write_instance(parse_instance(text)) == text


def test_every_constraint_class_has_one_layout_or_explicit_case():
    explicit = {Intension: "intension", Extension: "extension", Slide: "slide"}
    classes = set(typing.get_args(Constraint))
    assert set(_LAYOUTS).isdisjoint(explicit)
    assert set(_LAYOUTS) | set(explicit) == classes
    assert set(explicit.values()).isdisjoint(layout.tag for layout in _LAYOUTS.values())
    sink = _kitchen_sink_instance().constraints
    windows = [w for c in sink if isinstance(c, Slide) for w in c.windows]
    assert {type(c) for c in sink} | {type(w) for w in windows} == classes


@pytest.mark.parametrize(
    "constraint,child",
    [
        ("<sum> <list> a b </list>\n<coefs> 2 3 </coefs> <condition> (le,4) </condition> </sum>", "<coefs>"),
        ("<allDifferent> <list> a b </list>\n<list> b c </list> </allDifferent>", "<list>"),
        ("<channel> <list> a b </list> <list> b c </list>\n<list> a c </list> </channel>", "<list>"),
        ("<extension> <list> a b </list>\n<tuples> (0,1) </tuples> <supports> (1,0) </supports> </extension>",
         "<tuples>"),
    ],
    ids=["sum-coefs", "allDifferent-two-lists", "channel-three-lists", "extension-tuples"],
)
def test_unknown_or_repeated_child_is_refused(constraint, child):
    text = f"""<instance format="XCSP3" type="CSP">
    <variables> <var id="a"> 0..1 </var> <var id="b"> 0..1 </var> <var id="c"> 0..1 </var> </variables>
    <constraints> {constraint} </constraints> </instance>"""
    with pytest.raises(XmlSyntaxError) as err:
        parse_instance(text)
    assert child in str(err.value)
    assert (err.value.location.line, err.value.location.column) == (4, 1)


def test_indexed_variables_before_a_full_array_are_single_vars():
    variables = tuple(Variable(v, Domain.rng(0, 1)) for v in ("y[5]", "y[0]", "y[1]"))
    text = write_instance(Instance("CSP", variables, ()))
    assert text.splitlines()[1:5] == [
        "  <variables>",
        '    <var id="y[5]"> 0..1 </var>',
        '    <array id="y" size="[2]"> 0..1 </array>',
        "  </variables>",
    ]
    assert parse_instance(text).variables == variables


def test_array_with_mixed_domains_roundtrip():
    variables = (
        Variable("s[0]", Domain.of(0)),
        Variable("s[1]", Domain.rng(0, 7)),
        Variable("s[2]", Domain.rng(0, 7)),
    )
    inst = Instance("CSP", variables, (AllDifferent(("s[0]", "s[1]", "s[2]")),))
    text = write_instance(inst)
    assert '<array id="s" size="[3]">' in text
    assert '<domain for="s[0]"> 0 </domain>' in text
    assert '<domain for="s[1] s[2]"> 0..7 </domain>' in text
    assert parse_instance(text) == inst


def test_objective_without_coeffs_roundtrip():
    inst = Instance(
        "COP",
        (Variable("a", Domain.rng(0, 3)), Variable("b", Domain.rng(0, 3))),
        (),
        Objective("minimize", "maximum", ("a", "b")),
    )
    back = parse_instance(write_instance(inst))
    assert back == inst


def test_array_domain_for_a_cell_outside_the_array_is_refused():
    text = "\n".join([
        '<instance format="XCSP3" type="CSP">',
        "<variables>",
        '<array id="s" size="[2]">',
        '<domain for="s[0]"> 0 </domain>',
        '<domain for="s[1] s[2]"> 0..7 </domain>',
        "</array>",
        "</variables>",
        "</instance>",
    ])
    with pytest.raises(XmlSyntaxError, match=r"domain for unknown cell 's\[2\]'") as err:
        parse_instance(text)
    assert (err.value.location.line, err.value.location.column) == (5, 1)
