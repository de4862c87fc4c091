"""Parser/writer tests: the spec'd fragments, error reporting with
locations, and round-trip identity on hand-built instances."""

import random
import typing

import pytest

import xcspkit.io
from xcspkit.errors import (
    InvariantViolationError,
    LengthMismatchError,
    UnknownVariableError,
    UnsupportedFeatureError,
    XmlSyntaxError,
)
from xcspkit.expr import INT64_MAX, MAX_DEPTH, ExprSyntaxError, _tokenize, format_expr, parse_expr
from xcspkit.generators import gen_low_autocorrelation, gen_social_golfers, gen_still_life
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


def _slide_over(template: str, extra: str = "") -> str:
    return f"""
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[4]"> 0..3 </array> {extra} </variables>
      <constraints>
        <slide> <list> x[0] x[1] x[2] x[3] </list> {template} </slide>
      </constraints>
    </instance>
    """


@pytest.mark.parametrize(
    "text",
    [
        _slide_over("<sum> <list> %0 %1 </list> <coeffs> 1 2 </coeffs> <condition> (le,5) </condition> </sum>"),
        _slide_over("<allDifferent> %0 %1 </allDifferent>"),
        _slide_over("<intension> le(add(%0,%1),z) </intension>", '<var id="z"> 4 </var>'),
        _slide_over("<intension> lt(%1,%0) </intension>"),
    ],
    ids=["sum", "allDifferent", "fixed-variable", "reversed"],
)
def test_slide_that_is_no_template_writes_each_window(text):
    """A slide whose windows are not one extension or intension template
    slid by offset 1 is written as its windows, each its own constraint."""
    (slide,) = parse_instance(text).constraints
    written = write_instance(parse_instance(text))
    assert "<slide>" not in written
    back = parse_instance(written)
    assert back.constraints == slide.windows
    assert write_instance(back) == written


def test_intension_reads_a_function_child():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <var id="x"> 0 1 </var> <var id="y"> 0 1 </var> </variables>
      <constraints> <intension> <function> ne(x,y) </function> </intension> </constraints>
    </instance>
    """
    inst = parse_instance(text)
    assert inst.constraints == (Intension(parse_expr("ne(x,y)")),)
    written = write_instance(inst)
    assert "<intension> ne(x,y) </intension>" in written
    assert write_instance(parse_instance(written)) == written


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
    explicit = {Extension: "extension", Slide: "slide"}
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


@pytest.mark.parametrize(
    "constraint, text",
    [
        ("<allDifferent> x y <list> a b </list> </allDifferent>", "x y"),
        ("<intension> eq(a,b) <function> ne(a,b) </function> </intension>", "eq(a,b)"),
        ("<sum> a b <list> a b </list> <condition> (le,1) </condition> </sum>", "a b"),
    ],
    ids=["allDifferent", "intension", "sum"],
)
def test_text_beside_child_elements_is_refused(constraint, text):
    document = f"""<instance format="XCSP3" type="CSP">
    <variables> <var id="a"> 0..1 </var> <var id="b"> 0..1 </var> </variables>
    <constraints>
{constraint} </constraints> </instance>"""
    with pytest.raises(XmlSyntaxError, match="beside its child elements") as err:
        parse_instance(document)
    assert repr(text) in str(err.value)
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


def test_a_repeated_table_text_parses_to_one_table():
    """Extensions that repeat a table's polarity, arity and whitespace-
    normalised text share one Table: written out, in a <group> and in the
    windows of a <slide>."""
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[4]"> 0..2 </array> </variables>
      <constraints>
        <extension> <list> x[0] x[1] </list> <supports> (0,1)(1,2) </supports> </extension>
        <extension> <list> x[2] x[3] </list> <supports>
          (0,1)(1,2)
        </supports> </extension>
        <extension> <list> x[1] x[2] </list> <conflicts> (0,1)(1,2) </conflicts> </extension>
        <extension> <list> x[0] x[1] x[2] </list> <supports> (0,1,2) </supports> </extension>
        <group>
          <extension> <list> %0 %1 </list> <supports> (0,1)(1,2) </supports> </extension>
          <args> x[0] x[2] </args>
          <args> x[1] x[3] </args>
        </group>
        <slide>
          <list> x[0] x[1] x[2] x[3] </list>
          <extension> <list> %0 %1 </list> <conflicts> (0,1)(1,2) </conflicts> </extension>
        </slide>
      </constraints>
    </instance>
    """
    plain, spread, negated, ternary, grouped, other_grouped, slide = parse_instance(text).constraints
    pair = plain.table
    assert pair == supports(2, [(0, 1), (1, 2)])
    assert all(c.table is pair for c in (spread, grouped, other_grouped))
    assert [w.scope for w in slide.windows] == [("x[0]", "x[1]"), ("x[1]", "x[2]"), ("x[2]", "x[3]")]
    assert all(w.table is negated.table for w in slide.windows)
    assert negated.table == conflicts(2, [(0, 1), (1, 2)])
    assert len({id(c.table) for c in (plain, negated, ternary)}) == 3


@pytest.mark.parametrize(
    "body, message",
    [("(0,1)(1,q)", "bad tuple entry 'q'"), ("(0,1)(1,2,0)", r"tuple \(1, 2, 0\) does not match arity 2")],
    ids=["bad-entry", "bad-arity"],
)
def test_a_bad_tuple_in_a_repeated_table_is_reported_at_its_first_location(body, message):
    text = "\n".join([
        '<instance format="XCSP3" type="CSP">',
        '<variables> <array id="x" size="[4]"> 0..2 </array> </variables>',
        "<constraints>",
        "<extension> <list> x[0] x[1] </list>",
        f"<supports> {body} </supports> </extension>",
        "<extension> <list> x[2] x[3] </list>",
        f"<supports> {body} </supports> </extension>",
        "</constraints>",
        "</instance>",
    ])
    with pytest.raises(XmlSyntaxError, match=message) as err:
        parse_instance(text)
    assert (err.value.location.line, err.value.location.column) == (5, 1)


def test_still_life_8_roundtrips_byte_for_byte():
    text = write_instance(gen_still_life(8))
    parsed = parse_instance(text)
    assert write_instance(parsed) == text
    # 64 cells share the neighbourhood table; the border slides share another
    tables = [w.table for c in parsed.constraints for w in (c.windows if isinstance(c, Slide) else (c,))
              if isinstance(w, Extension)]
    assert len(tables) == 64 + 4 * 8
    assert len({id(t) for t in tables}) == 2



_ONE_VAR = (
    '<instance format="XCSP3" type="CSP"> <variables> <var id="x"> {domain} </var> </variables>'
    " <constraints> <extension> <list> x </list> <supports> {supports} </supports> </extension> </constraints>"
    " </instance>"
)


@pytest.mark.parametrize(
    "domain, error, message",
    [
        ("0..99999999999999999999999", XmlSyntaxError, "outside the 64-bit integers"),
        ("0 9223372036854775808", XmlSyntaxError, "outside the 64-bit integers"),
        ("-9223372036854775809..0", XmlSyntaxError, "outside the 64-bit integers"),
        ("0..9223372036854775807", UnsupportedFeatureError, "of more than 1048576 values"),
    ],
    ids=["huge-range", "above-int64", "below-int64", "int64-wide"],
)
def test_a_domain_outside_int64_or_too_wide_is_refused_before_it_is_listed(domain, error, message):
    with pytest.raises(error, match=message):
        parse_instance(_ONE_VAR.format(domain=domain, supports="0"))


def test_the_int64_extremes_are_domain_values():
    inst = parse_instance(_ONE_VAR.format(domain="9223372036854775807 -9223372036854775808", supports="0"))
    assert inst.variables[0].domain.values == (-(2**63), 2**63 - 1)


@pytest.mark.parametrize(
    "domain, supports, error",
    [
        ("0..3", "0..3", None),
        ("0..4", "0", UnsupportedFeatureError),
        ("0..3", "0..4", UnsupportedFeatureError),
        ("0..3", "-5..99999999999999999999999", XmlSyntaxError),
    ],
    ids=["at-the-cap", "wide-domain", "wide-unary-table", "huge-unary-table"],
)
def test_the_range_cap_holds_for_domains_and_unary_tables(domain, supports, error, monkeypatch):
    monkeypatch.setattr(xcspkit.io, "_RANGE_CAP", 4)
    text = _ONE_VAR.format(domain=domain, supports=supports)
    if error is None:
        assert len(parse_instance(text).constraints[0].table.rows) == 4
    else:
        with pytest.raises(error):
            parse_instance(text)


_THREE_VARS = (
    '<instance format="XCSP3" type="CSP"> <variables> <var id="x"> 0..1 </var> <var id="y"> 0..1 </var>'
    ' <var id="i"> 0..1 </var> </variables> <constraints> {} </constraints> </instance>'
)


# each site reads ``{n}``; an intension reports through the expression parser
_INTEGER_SITES = {
    "table-tuple": (parse_instance, "<extension> <list> x y </list> <supports> (0,{n}) </supports> </extension>"),
    "condition-value": (parse_instance, "<sum> <list> x y </list> <condition> (le,{n}) </condition> </sum>"),
    "condition-range": (parse_instance, "<sum> <list> x y </list> <condition> (in,{n}..{n}) </condition> </sum>"),
    "element-value": (parse_instance, "<element> <list> x y </list> <index> i </index> <value> {n} </value> </element>"),
    "intension-constant": (parse_instance, "<intension> le(x,{n}) </intension>"),
    "solution-value": (parse_solution, "<instantiation> <list> x </list> <values> {n} </values> </instantiation>"),
}


@pytest.mark.parametrize("site", sorted(_INTEGER_SITES))
def test_every_integer_io_reads_is_a_64_bit_one(site):
    parse, text = _INTEGER_SITES[site]
    if parse is parse_instance:
        text = _THREE_VARS.format(text)
    error = UnsupportedFeatureError if site == "intension-constant" else XmlSyntaxError
    for n in (INT64_MAX, -INT64_MAX - 1):
        parse(text.replace("{n}", str(n)))
    for n in ("99999999999999999999999", str(-INT64_MAX - 2)):
        with pytest.raises(error, match="outside the 64-bit integers"):
            parse(text.replace("{n}", n))


@pytest.mark.parametrize(
    "text, error",
    [
        # a superscript two passes ``isdigit`` but is no integer, so it is a name
        (_THREE_VARS.format("<intension> eq(x,\u00b2) </intension>"), UnknownVariableError),
        # an Arabic-Indic three is a digit to ``int`` but not to the XCSP3 grammar
        (_ONE_VAR.format(domain="\u0663", supports="0"), XmlSyntaxError),
        (_THREE_VARS.format("<intension> eq(x,\u0663) </intension>"), UnknownVariableError),
    ],
    ids=["superscript-in-intension", "arabic-indic-in-domain", "arabic-indic-in-intension"],
)
def test_an_integer_is_ascii_digits_with_an_optional_sign(text, error):
    with pytest.raises(error):
        parse_instance(text)


@pytest.mark.parametrize("size, refused", [("[4]", False), ("[2][2]", False), ("[5]", True), ("[2][3]", True)])
def test_the_range_cap_holds_for_array_cells(size, refused, monkeypatch):
    monkeypatch.setattr(xcspkit.io, "_RANGE_CAP", 4)
    text = (
        f'<instance format="XCSP3" type="CSP"> <variables> <array id="x" size="{size}"> 0..1 </array>'
        " </variables> </instance>"
    )
    if refused:
        with pytest.raises(UnsupportedFeatureError, match="of more than 4 cells"):
            parse_instance(text)
    else:
        assert len(parse_instance(text).variables) == 4


def _nested(depth: int) -> str:
    return "neg(" * depth + "x" + ")" * depth


def test_an_expression_nested_beyond_the_depth_cap_is_refused():
    assert parse_expr(_nested(MAX_DEPTH)).kind == "neg"
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_expr(_nested(MAX_DEPTH + 1))
    with pytest.raises(UnsupportedFeatureError, match="nested deeper"):
        parse_instance(_THREE_VARS.format(f"<intension> eq({_nested(2000)},0) </intension>"))


def _reference_tokenize(text: str) -> list[str]:
    """The character loop that the tokenizer's two regular expressions
    replaced."""
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        else:
            j = i
            if ch == "-":
                j += 1
            while j < len(text) and (text[j].isalnum() or text[j] in "_[]"):
                j += 1
            if j == i:
                raise ExprSyntaxError(f"bad character {ch!r} in {text!r}")
            tokens.append(text[i:j])
            i = j
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as exc:
        return str(exc)


# ASCII token characters, Unicode spaces, letters, digits that only
# ``isalnum`` knows (superscript two, Arabic-Indic three), a combining
# accent and characters no token holds
_TOKEN_ALPHABET = "ax9_0[]()-,  \t\n\x0b\x1c\u00a0\u2003é中\u00b2\u0663\u0301+.$;"


def test_the_tokenizer_splits_as_the_character_loop_it_replaced():
    texts = [
        format_expr(c.expr)
        for instance in (gen_low_autocorrelation(40), gen_social_golfers(4, 4, 4))
        for c in instance.constraints
        if isinstance(c, Intension)
    ]
    assert len(texts) > 1_000
    texts += ["", "-", "--3", "a-b", "x[-1]", "- 3", "eq(x,-)", "add(x,+1)", "3x[0]y"]
    rng = random.Random(2009)
    texts += ["".join(rng.choices(_TOKEN_ALPHABET, k=rng.randint(1, 12))) for _ in range(20_000)]
    outcomes = set()
    for text in texts:
        expected = _tokens_or_error(_reference_tokenize, text)
        assert _tokens_or_error(_tokenize, text) == expected, text
        outcomes.add(type(expected))
    assert outcomes == {list, str}
