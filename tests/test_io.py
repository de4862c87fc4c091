"""Parser/writer tests: the spec'd fragments, error reporting with
locations, and round-trip identity on hand-built instances."""

import random
import re
import time
import typing

import pytest

import xcspkit.expr
import xcspkit.io
from helpers import mutant, refusal
from xcspkit.errors import (
    InvariantViolationError,
    LengthMismatchError,
    SourceLocation,
    UnsupportedFeatureError,
    XcspError,
    XmlSyntaxError,
)
from xcspkit.expr import INT64_MAX, MAX_DEPTH, ExprSyntaxError, _tokenize, format_expr, parse_expr
from xcspkit.generators import (
    gen_dubois,
    gen_golomb_ruler,
    gen_langford,
    gen_low_autocorrelation,
    gen_social_golfers,
    gen_still_life,
)
from xcspkit.io import _LAYOUTS, parse_instance, parse_solution, write_instance, write_solution
from xcspkit.model import (
    CONDITION_OPERATORS,
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
    Variable,
    conflicts,
    supports,
    validate_instance,
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
    with pytest.raises(InvariantViolationError) as err:
        parse_instance(text)
    assert [str(v) for v in err.value.report] == [
        "UnknownVariable at constraint 0: references undeclared variable 'yy'"
    ]
    assert err.value.location == SourceLocation(4, 21)


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
    assert inst.constraints[0] == Intension.of(parse_expr("lt(x[0],x[1])"))
    assert inst.constraints[1] == Intension.of(parse_expr("lt(x[1],x[2])"))


@pytest.mark.parametrize(
    "template, first, line",
    [("lt(%0,1)", "x[0]", 8), ("lt(%0,%1)", "x[0] x[1]", 8), ("lt(%0,%1)", "x[0]", 7)],
    ids=["one-placeholder", "two-placeholders", "too-few-ids"],
)
def test_group_args_hold_exactly_the_template_arity(template, first, line):
    """An ``<args>`` with more ids than its template has placeholders is
    refused at that ``<args>``, not read with its extra ids dropped; one
    with fewer is refused there too, not at the template (line 6)."""
    text = f"""
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[3]"> 0..4 </array> </variables>
      <constraints>
        <group>
          <intension> {template} </intension>
          <args> {first} </args>
          <args> x[0] x[1] x[2] </args>
        </group>
      </constraints>
    </instance>
    """
    with pytest.raises(XmlSyntaxError) as err:
        parse_instance(text)
    assert err.value.location.line == line


def _group_of(template: str, *args: str, slide: bool = False) -> str:
    """A document over x[0..2] in 0..4 and y, x_1 and y__2 in 0..1 whose
    one ``<group>`` holds ``template`` on line 4 and each ``<args>`` on a
    line of its own from line 5; with ``slide``, a ``<slide>`` whose
    ``<list>`` is the one args."""
    if slide:
        (ids,) = args
        body = ["<constraints> <slide>", f"<list> {ids} </list>", template, "</slide> </constraints>"]
    else:
        body = ["<constraints> <group>", template, *(f"<args> {a} </args>" for a in args), "</group> </constraints>"]
    return "\n".join([
        '<instance format="XCSP3" type="CSP">',
        '<variables> <array id="x" size="[3]"> 0..4 </array> <var id="y"> 0 1 </var>'
        ' <var id="x_1"> 0 1 </var> <var id="y__2"> 0 1 </var> </variables>',
        body[0],
        *body[1:],
        "</instance>",
    ])


_LT = "<intension> lt(%0,%1) </intension>"

# each group or slide of an intension template, and what it reads: the
# expressions of its constraints, or the error class, message and line it
# is refused with; a model refusal is located at the <args> of the member
_GROUP_READS = {
    "ids": (_group_of(_LT, "x[0] x[1]", "x[1] y"), ["lt(x[0],x[1])", "lt(x[1],y)"]),
    "integers": (_group_of(_LT, "x[0] 3", "-2 x[1]", "007 -0"), ["lt(x[0],3)", "lt(-2,x[1])", "lt(7,0)"]),
    "int64-extremes": (
        _group_of(_LT, f"x[0] {INT64_MAX}", f"{-INT64_MAX - 1} x[1]"),
        [f"lt(x[0],{INT64_MAX})", f"lt({-INT64_MAX - 1},x[1])"],
    ),
    "repeated-id": (_group_of(_LT, "x[0] x[0]"), ["lt(x[0],x[0])"]),
    "placeholder-twice": (_group_of("<intension> eq(%0,add(%0,%1)) </intension>", "x[2] 0"), ["eq(x[2],add(x[2],0))"]),
    "literal-id-and-constant": (_group_of("<intension> le(add(%1,y),3) </intension>", "q x[1]"), ["le(add(x[1],y),3)"]),
    "function-child": (
        _group_of("<intension> <function> ne(%0,%1) </function> </intension>", "x[0] y", "y x[2]"),
        ["ne(x[0],y)", "ne(y,x[2])"],
    ),
    "slide": (_group_of(_LT, "x[0] x[1] x[2]", slide=True), ["lt(x[0],x[1])", "lt(x[1],x[2])"]),
    # ids beside placeholders in one template
    "ids-with-underscores": (
        _group_of("<intension> le(add(%0,x_1),add(%1,y__2)) </intension>", "x[0] x[1]", "x_1 y__2", "y__2 4"),
        ["le(add(x[0],x_1),add(x[1],y__2))", "le(add(x_1,x_1),add(y__2,y__2))", "le(add(y__2,x_1),add(4,y__2))"],
    ),
    "no-args": (_group_of("<intension> lt(%0,%) </intension>"), []),
    "unknown-id": (
        _group_of(_LT, "x[0] x[1]", "x[1] q"),
        (InvariantViolationError, "^UnknownVariable at constraint 1: references undeclared variable 'q'", 6),
    ),
    "unknown-literal-before-unknown-arg": (
        _group_of("<intension> lt(q,%0) </intension>", "z"),
        (InvariantViolationError, "^UnknownVariable at constraint 0: references undeclared variable 'q'", 5),
    ),
    "not-an-id": (_group_of(_LT, "x[0] -x"), (XmlSyntaxError, "<args> entry '-x' is no variable id or integer", 5)),
    "arabic-indic-arg": (
        _group_of(_LT, "x[0] ٣"),
        (XmlSyntaxError, "<args> entry '٣' is no variable id or integer", 5),
    ),
    "plus-sign": (_group_of(_LT, "x[0] +4"), (XmlSyntaxError, "<args> entry '\\+4' is no variable id or integer", 5)),
    "above-int64": (
        _group_of(_LT, "x[0] 99999999999999999999"),
        (XmlSyntaxError, "'99999999999999999999' is outside the 64-bit integers", 5),
    ),
    # an entry is read whether or not the template names its placeholder
    "unused-placeholder-entry": (
        _group_of("<intension> le(add(%1,y),3) </intension>", "3q x[1]"),
        (XmlSyntaxError, "<args> entry '3q' is no variable id or integer", 5),
    ),
    # a placeholder is a whole name
    "placeholder-in-id": (
        _group_of("<intension> lt(x[%0],%1) </intension>", "1 y"),
        (XmlSyntaxError, "bad variable id 'x\\[%0\\]'", 4),
    ),
    "negated-placeholder": (
        _group_of("<intension> lt(-%0,%1) </intension>", "x[0] y"),
        (XmlSyntaxError, "bad variable id '-%0'", 4),
    ),
    "placeholder-outside-template": (
        _group_of("<intension> lt(%0,1) </intension>").replace(" <group>", "").replace("</group> ", ""),
        (XmlSyntaxError, "bad variable id '%0'", 4),
    ),
    "too-few-ids": (_group_of(_LT, "x[0] x[1]", "x[0]"), (XmlSyntaxError, "<args> holds 1 ids for a template of arity 2", 6)),
    "too-many-ids": (
        _group_of(_LT, "x[0] x[1] x[2]"),
        (XmlSyntaxError, "<args> holds 3 ids for a template of arity 2", 5),
    ),
    "too-many-ids-one-unknown": (
        _group_of(_LT, "q x[1] x[2]"),
        (XmlSyntaxError, "<args> holds 3 ids for a template of arity 2", 5),
    ),
    "too-few-ids-before-a-broken-template": (
        _group_of("<intension> lt(%0,%1,) </intension>", "x[0]"),
        (XmlSyntaxError, "<args> holds 1 ids for a template of arity 2", 5),
    ),
    "remaining-args": (
        _group_of("<intension> eq(%...) </intension>", "x[0] x[1]"),
        (UnsupportedFeatureError, "group remaining-args placeholder '%...'", 4),
    ),
    "arabic-indic-placeholder": (
        _group_of("<intension> lt(%0,%٠) </intension>", "x[0] x[1]"),
        (UnsupportedFeatureError, "bad character '%' in 'lt\\(%0,%٠\\)'", 4),
    ),
    "broken-template": (
        _group_of("<intension> lt(%0,%1 </intension>", "x[0] x[1]"),
        (UnsupportedFeatureError, "missing '\\)' in 'lt\\(%0,%1'", 4),
    ),
    "text-beside-function": (
        _group_of("<intension> lt(%0,%1) <function> eq(%0,%1) </function> </intension>", "x[0] x[1]"),
        (XmlSyntaxError, "<intension> has text 'lt\\(%0,%1\\)' beside its child elements", 4),
    ),
}


@pytest.mark.parametrize("case", list(_GROUP_READS))
def test_an_intension_template_reads_as_its_substituted_text(case):
    """An intension template is read once, as written, and each ``<args>``
    puts its ids and integers in for its placeholders. What it reads is
    what each ``<args>``'s substituted text reads. The template's text is
    refused at the template, quoted as written, and a ``%k`` is a whole
    name there and nowhere else; every entry is read as an id or an
    integer and refused at its ``<args>``. The model check refuses what the
    reader takes, such as an undeclared id, at the ``<args>`` of the member
    it names."""
    text, expected = _GROUP_READS[case]
    if isinstance(expected, list):
        assert list(parse_instance(text).constraints) == [Intension.of(parse_expr(e)) for e in expected]
        return
    error, message, line = expected
    with pytest.raises(error, match=message) as err:
        parse_instance(text)
    assert err.value.location.line == line


_NESTED = {
    "slide": "<slide> <list> %0 %1 %2 </list> <intension> lt(%0,%1) </intension> </slide>",
    "group": "<group> <intension> lt(%0,%1) </intension> <args> %0 %1 </args> </group>",
    "block": "<block> <intension> lt(%0,%1) </intension> </block>",
}


@pytest.mark.parametrize("outer", ["group", "slide"])
@pytest.mark.parametrize("inner", list(_NESTED))
def test_a_template_is_one_constraint_element(outer, inner):
    """A ``<group>``, ``<slide>`` or ``<block>`` as the template of a
    ``<group>`` or ``<slide>`` is refused at the template, on line 4 of a
    group and line 5 of a slide."""
    with pytest.raises(UnsupportedFeatureError, match=f"^unsupported feature: <{inner}> as the template of a <{outer}>") as err:
        parse_instance(_group_of(_NESTED[inner], "x[0] x[1] x[2]", slide=outer == "slide"))
    assert err.value.location.line == {"group": 4, "slide": 5}[outer]


def _walks(monkeypatch) -> list:
    """The expressions that ``expr.scope_and_template`` walks from now on."""
    walks: list = []
    scope_and_template = xcspkit.expr.scope_and_template
    monkeypatch.setattr(xcspkit.expr, "scope_and_template", lambda e: walks.append(e) or scope_and_template(e))
    return walks


@pytest.mark.parametrize(
    "generate, members",
    [(lambda: gen_low_autocorrelation(40), 819), (lambda: gen_social_golfers(4, 4, 4), 720)],
    ids=["labs-40", "social-golfers-4-4-4"],
)
def test_a_canonical_group_walks_its_template_and_no_member(generate, members, monkeypatch):
    """Reading a written instance walks one expression per ``<intension>``
    element, a group template or a plain intension, and none per group
    member: each member is its group's template over its ``<args>``."""
    instance = generate()
    text = write_instance(instance)
    walks = _walks(monkeypatch)
    assert parse_instance(text) == instance
    assert sum(isinstance(c, Intension) for c in instance.constraints) == members
    assert len(walks) <= text.count("<intension>") < members / 10


# (document, distinct patterns of its members' entries): a repeated id or
# an integer folds the template once per pattern
_FOLDS = {
    "repeated-id": (_GROUP_READS["repeated-id"][0], 1),
    "integers": (_GROUP_READS["integers"][0], 3),
    "placeholder-twice": (_GROUP_READS["placeholder-twice"][0], 1),
    "patterns-repeated": (_group_of(_LT, "x[0] x[0]", "x[0] 3", "y y", "x[2] 4", "x[1] 3", "x[1] y"), 3),
    "literal-id-repeated": (_group_of("<intension> le(add(%0,y),3) </intension>", "y", "x[0]", "y"), 1),
}


@pytest.mark.parametrize("case", list(_FOLDS))
def test_a_group_template_is_walked_once_and_folded_once_per_pattern(case, monkeypatch):
    """A template is walked once, and members with a repeated id or an
    integer fold it (``io._fold``) once per distinct pattern of entries,
    to the intensions their substituted texts read to."""
    text, patterns = _FOLDS[case]
    folds, depth = [], [0]
    fold = xcspkit.io._fold

    def counted(template, pattern):
        if not depth[0]:
            folds.append(pattern)
        depth[0] += 1
        try:
            return fold(template, pattern)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(xcspkit.io, "_fold", counted)
    walks = _walks(monkeypatch)
    constraints = parse_instance(text).constraints
    assert len(walks) == 1 and len(folds) == len(set(folds)) == patterns
    template = re.search("<intension> (.*) </intension>", text)[1]
    texts = [
        re.sub("%([0-9]+)", lambda m: args.split()[int(m[1])], template)
        for args in re.findall("<args> (.*) </args>", text)
    ]
    assert constraints == tuple(Intension.of(parse_expr(t)) for t in texts)


def test_an_args_entry_that_is_no_id_or_integer_is_refused():
    """An ``<args>`` entry is a variable id or an integer. One that holds
    an expression, which reading the substituted text would take, is
    refused at its ``<args>``."""
    with pytest.raises(XmlSyntaxError, match="<args> entry 'add\\(x\\[0\\],y\\)' is no variable id or integer") as err:
        parse_instance(_group_of(_LT, "x[1] x[2]", "add(x[0],y) x[1]"))
    assert err.value.location.line == 6


def _sum_with_condition(condition: str) -> str:
    return f"""
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[2]"> 0..4 </array> </variables>
      <constraints>
        <sum> <list> x[0] x[1] </list> <condition> {condition} </condition> </sum>
      </constraints>
    </instance>
    """


@pytest.mark.parametrize("operator", CONDITION_OPERATORS)
def test_every_condition_operator_is_read_written_and_valid(operator):
    """Each operator of ``CONDITION_OPERATORS`` is read, written back
    unchanged and passes the validator; the condition holds exactly where
    its relation (or, for ``in``, the interval) does."""
    rhs = "2..5" if operator == "in" else "3"
    inst = parse_instance(_sum_with_condition(f"({operator},{rhs})"))
    (c,) = inst.constraints
    assert c == Sum(("x[0]", "x[1]"), (1, 1), Condition(operator, (2, 5) if operator == "in" else 3))
    assert parse_instance(write_instance(inst)) == inst
    assert validate_instance(inst) == []
    relation = {
        "lt": lambda s: s < 3,
        "le": lambda s: s <= 3,
        "ge": lambda s: s >= 3,
        "gt": lambda s: s > 3,
        "eq": lambda s: s == 3,
        "ne": lambda s: s != 3,
        "in": lambda s: 2 <= s <= 5,
    }[operator]
    assert [c.condition.holds(s, {}) for s in range(9)] == [relation(s) for s in range(9)]


@pytest.mark.parametrize("operator", ["add", "and", "LE", "lex"])
def test_a_condition_operator_outside_the_list_is_refused(operator):
    """An operator of expressions that is not a relation, a relation in
    another case, or no operator at all is refused where it is read."""
    with pytest.raises(XmlSyntaxError, match="bad condition operator") as err:
        parse_instance(_sum_with_condition(f"({operator},3)"))
    assert err.value.location.line == 5


def _constraints_over_x(constraints: str) -> str:
    return f"""
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[3]"> 0..2 </array> </variables>
      <constraints> {constraints} </constraints>
    </instance>
    """


_SLID = "<intension> lt(%0,%1) </intension>"


def _element(list_attrs: str = "", index_attrs: str = "") -> str:
    return f"<element> <list{list_attrs}> x[0] x[1] </list> <index{index_attrs}> x[2] </index> <value> 1 </value> </element>"


@pytest.mark.parametrize(
    "constraint",
    [
        f'<slide circular="true"> <list> x[0] x[1] x[2] </list> {_SLID} </slide>',
        f'<slide> <list offset="2"> x[0] x[1] x[2] </list> {_SLID} </slide>',
        f'<slide> <list collect="2"> x[0] x[1] x[2] </list> {_SLID} </slide>',
        _element(list_attrs=' startIndex="1"'),
        _element(index_attrs=' rank="first"'),
    ],
    ids=["circular-slide", "slide-offset", "slide-collect", "list-start-index", "index-rank"],
)
def test_attributes_of_another_meaning_are_refused(constraint):
    with pytest.raises(UnsupportedFeatureError):
        parse_instance(_constraints_over_x(constraint))


def test_attributes_with_their_default_meaning_are_read():
    plain = f"<slide> <list> x[0] x[1] x[2] </list> {_SLID} </slide> {_element()}"
    spelled = (
        f'<slide circular="false"> <list offset="1" collect="1"> x[0] x[1] x[2] </list> {_SLID} </slide>'
        + _element(' startIndex="0"', ' rank="any"')
    )
    assert parse_instance(_constraints_over_x(spelled)) == parse_instance(_constraints_over_x(plain))


def test_an_identifier_is_matched_whole():
    """A trailing newline is no part of an identifier; the writer could not
    write such an id back in a form the parser reads."""
    with pytest.raises(InvariantViolationError):
        parse_instance(
            '<instance format="XCSP3" type="CSP"> <variables> <var id="x&#10;"> 0 1 </var> </variables> </instance>'
        )
    assert [v.code for v in refusal("CSP", (Variable("x\n", Domain.of(0, 1)),), ())] == ["BadIdentifier"]


@pytest.mark.parametrize(
    "variables, constraints, error",
    [
        # an index in Arabic-Indic digits
        ('<var id="x[٤]"> 0 1 </var>', "", InvariantViolationError),
        # a placeholder in them is no placeholder, so its % is left in the expression
        (
            '<array id="x" size="[2]"> 0..4 </array>',
            "<group> <intension> lt(%0,%٠) </intension> <args> x[0] x[1] </args> </group>",
            UnsupportedFeatureError,
        ),
    ],
    ids=["identifier", "placeholder"],
)
def test_ids_and_placeholders_take_only_ascii_digits(variables, constraints, error):
    text = f"""
    <instance format="XCSP3" type="CSP">
      <variables> {variables} </variables>
      <constraints> {constraints} </constraints>
    </instance>
    """
    with pytest.raises(error):
        parse_instance(text)


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


def test_slide_compact_form_reads_as_its_windows():
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
    assert [c.scope for c in inst.constraints] == [("x[0]", "x[1]", "x[2]"), ("x[1]", "x[2]", "x[3]")]
    assert all(isinstance(c, Extension) and c.table == conflicts(3, [(1, 1, 1)]) for c in inst.constraints)


def _slide_over(template: str, extra: str = "", group: bool = False) -> str:
    """A document over x[0..3] whose one ``<slide>`` slides ``template``
    over them; with ``group``, the ``<group>`` of that template whose
    ``<args>`` are the slide's windows."""
    if group:
        args = " ".join(f"<args> x[{i}] x[{i + 1}] </args>" for i in range(3))
        constraint = f"<group> {template} {args} </group>"
    else:
        constraint = f"<slide> <list> x[0] x[1] x[2] x[3] </list> {template} </slide>"
    return f"""
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[4]"> 0..3 </array> {extra} </variables>
      <constraints>
        {constraint}
      </constraints>
    </instance>
    """


_SLID_TEMPLATES = {
    "sum": ("<sum> <list> %0 %1 </list> <coeffs> 1 2 </coeffs> <condition> (le,5) </condition> </sum>", ""),
    "allDifferent": ("<allDifferent> %0 %1 </allDifferent>", ""),
    "fixed-variable": ("<intension> le(add(%0,%1),z) </intension>", '<var id="z"> 4 </var>'),
    "reversed": ("<intension> lt(%1,%0) </intension>", ""),
    "extension": ("<extension> <list> %0 %1 %0 </list> <supports> (0,1,0)(2,3,2) </supports> </extension>", ""),
}


@pytest.mark.parametrize("case", list(_SLID_TEMPLATES))
def test_a_slide_reads_as_the_group_of_its_windows(case):
    """A slide is read as its windows, in order, each its own constraint:
    as the ``<group>`` of its template whose ``<args>`` are the windows.
    Written, it reads back as them, byte-stable, with no ``<slide>``."""
    template, extra = _SLID_TEMPLATES[case]
    instance = parse_instance(_slide_over(template, extra))
    windows = instance.constraints
    assert len(windows) == 3
    assert windows == parse_instance(_slide_over(template, extra, group=True)).constraints
    written = write_instance(instance)
    assert "<slide>" not in written
    back = parse_instance(written)
    assert back.constraints == windows
    assert write_instance(back) == written


def _in_turn(*constraints) -> Instance:
    return Instance("CSP", tuple(Variable(f"x[{i}]", Domain.rng(0, 3)) for i in range(4)), constraints)


@pytest.mark.parametrize(
    "instance",
    [
        _in_turn(Intension.of(parse_expr("le(add(x[0],x[1]),1)")), Intension.of(parse_expr("le(add(x[1],x[2]),2)"))),
        _in_turn(Intension.of(parse_expr("le(x[0],x[1])")), Intension.of(parse_expr("lt(x[1],x[2])"))),
        _in_turn(Intension.of(parse_expr("le(x[0],x[1])")), Intension.of(parse_expr("le(add(x[1],x[1]),x[2])"))),
        _in_turn(Intension.of(parse_expr("le(x[0],x[1])")), Extension(("x[1]", "x[2]"), supports(2, [(0, 1)]))),
        _in_turn(
            Extension(("x[0]", "x[1]", "x[1]"), supports(3, [(0, 1, 1)])),
            Extension(("x[1]", "x[2]", "x[1]"), supports(3, [(0, 1, 1)])),
        ),
    ],
    ids=["constants", "operators", "repeat-pattern", "intension-and-extension", "extension-repeat-pattern"],
)
def test_constraints_of_two_templates_are_written_one_by_one(instance):
    """Constraints whose scopes slide by offset 1 but whose templates
    differ, in a constant, an operator, a repeated variable or their kind,
    are written one by one and read back as such."""
    written = write_instance(instance)
    assert "<group>" not in written
    assert parse_instance(written).constraints == instance.constraints


def test_a_slide_joins_the_group_beside_it():
    """The windows of a ``<slide>`` are constraints of the sequence, so
    they join a run of their template around them: written, the document's
    intensions are one ``<group>``, and the text reads back as the windows
    in turn, byte-stable."""
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <array id="x" size="[4]"> 0..3 </array> </variables>
      <constraints>
        <intension> lt(x[2],x[0]) </intension>
        <slide> <list> x[0] x[1] x[2] x[3] </list> <intension> lt(%0,%1) </intension> </slide>
        <intension> lt(x[3],x[0]) </intension>
        <slide> <list> x[0] x[1] x[2] </list> <intension> lt(%1,%0) </intension> </slide>
      </constraints>
    </instance>
    """
    expected = ["lt(x[2],x[0])", "lt(x[0],x[1])", "lt(x[1],x[2])", "lt(x[2],x[3])", "lt(x[3],x[0])", "lt(x[1],x[0])",
                "lt(x[2],x[1])"]
    constraints = parse_instance(text).constraints
    assert list(constraints) == [Intension.of(parse_expr(e)) for e in expected]
    written = write_instance(parse_instance(text))
    assert written.count("<group>") == 1 and written.count("<args>") == 7 and "<slide>" not in written
    back = parse_instance(written)
    assert back.constraints == constraints
    assert write_instance(back) == written


def test_intension_reads_a_function_child():
    text = """
    <instance format="XCSP3" type="CSP">
      <variables> <var id="x"> 0 1 </var> <var id="y"> 0 1 </var> </variables>
      <constraints> <intension> <function> ne(x,y) </function> </intension> </constraints>
    </instance>
    """
    inst = parse_instance(text)
    assert inst.constraints == (Intension.of(parse_expr("ne(x,y)")),)
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
    """An invalid instance cannot be built, so it never reaches the writer."""
    report = refusal(
        "CSP",
        (Variable("a", Domain.rng(0, 1)),),
        (Extension(("a",), supports(2, [(0, 1)])),),
    )
    assert [v.code for v in report] == ["ScopeMismatch"]


#: max(5x, y) over x, y in 0..3 as XCSP3 reads it: 15 at x = y = 3
WEIGHTED_MAXIMUM = (
    '<instance format="XCSP3" type="COP">\n'
    '<variables> <var id="x"> 0..3 </var> <var id="y"> 0..3 </var> </variables>\n'
    '<objectives> <maximize type="maximum"> <list> x y </list> <coeffs> 5 1 </coeffs> </maximize> </objectives>\n'
    "</instance>"
)


def test_the_coeffs_of_a_maximum_objective_are_refused():
    """The model has no weighted maximum: it read the coeffs and then
    ignored them, and so answered ``OPTIMUM 3`` for this document."""
    with pytest.raises(InvariantViolationError) as err:
        parse_instance(WEIGHTED_MAXIMUM)
    assert [(v.code, v.where, v.detail) for v in err.value.report] == [
        ("BadObjective", "objective", "a 'maximum' objective takes no coeffs"),
    ]


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
        Intension.of(parse_expr("eq(add(x[0],x[1]),z)")),
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
        Extension((x[0], x[1]), conflicts(2, [(1, 1)])),
        Extension((x[1], x[2]), conflicts(2, [(1, 1)])),
        Extension((x[2], x[3]), conflicts(2, [(1, 1)])),
        Intension.of(parse_expr("le(x[0],x[1])")),
        Intension.of(parse_expr("le(x[1],x[2])")),
        Extension((x[1],), supports(1, [(1,), (2,)])),
        Extension((x[2],), supports(1, [(1,), (2,)])),
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
    explicit = {Extension: "extension"}
    classes = set(typing.get_args(Constraint))
    assert set(_LAYOUTS).isdisjoint(explicit)
    assert set(_LAYOUTS) | set(explicit) == classes
    assert set(explicit.values()).isdisjoint(layout.tag for layout in _LAYOUTS.values())
    assert {type(c) for c in _kitchen_sink_instance().constraints} == classes


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


def _over_x(body: str, kind: str = "CSP") -> str:
    """A document whose ``body`` (constraints or objectives) starts on
    line 3, after an array ``x`` of three 0..2 cells."""
    return (
        f'<instance format="XCSP3" type="{kind}">\n'
        '<variables> <array id="x" size="[3]"> 0..2 </array> </variables>\n'
        f"{body}\n</instance>"
    )


# each refusal of the reader that no other test reaches, with the line it is reported at
_REFUSALS = {
    "empty-document": ("", XmlSyntaxError, 1, "no element found"),
    "second-root": ("<instance/>\n<instance/>", XmlSyntaxError, 2, "junk after document element"),
    "root-not-instance": ("\n<variables> </variables>", XmlSyntaxError, 2, "root element must be <instance>"),
    "no-variables": ('<instance format="XCSP3" type="CSP">\n<constraints/> </instance>', XmlSyntaxError, 1,
                     "missing <variables>"),
    "variables-child": ('<instance format="XCSP3" type="CSP"> <variables>\n<set id="s"/> </variables> </instance>',
                        UnsupportedFeatureError, 2, "set"),
    "condition-of-three-parts": (
        _over_x("<constraints> <sum> <list> x[0] x[1] </list>\n<condition> (le,3,4) </condition>"
                " </sum> </constraints>"),
        XmlSyntaxError, 4, r"bad condition '\(le,3,4\)'",
    ),
    "transition-symbol": (
        _over_x("<constraints> <regular> <list> x[0] x[1] </list>\n<transitions> (a,b,c) </transitions>"
                " <start> a </start> <final> c </final> </regular> </constraints>"),
        XmlSyntaxError, 4, r"bad transition \(a,b,c\)",
    ),
    "length-not-a-pair": (
        _over_x("<constraints> <noOverlap> <origins> (x[0],x[1]) </origins>\n<lengths> (1,1,1) </lengths>"
                " </noOverlap> </constraints>"),
        XmlSyntaxError, 4, r"expected \(x,y\) pairs",
    ),
    "constant-origin": (
        _over_x("<constraints> <noOverlap>\n<origins> (x[0],1) </origins> <lengths> (1,1) </lengths>"
                " </noOverlap> </constraints>"),
        XmlSyntaxError, 4, "noOverlap origins must be variables",
    ),
    "cumulative-condition": (
        _over_x("<constraints> <cumulative> <origins> x[0] x[1] </origins> <lengths> 1 1 </lengths>"
                " <heights> 1 1 </heights>\n<condition> (lt,2) </condition> </cumulative> </constraints>"),
        UnsupportedFeatureError, 4, "cumulative condition other than",
    ),
    "missing-child": (
        _over_x("<constraints> <sum> <list> x[0] x[1] </list>\n</sum> </constraints>"),
        XmlSyntaxError, 3, "<sum> needs 1 <condition>, got 0",
    ),
    "remaining-args-placeholder": (
        _over_x("<constraints> <group>\n<intension> eq(%...) </intension> <args> x[0] x[1] </args>"
                " </group> </constraints>"),
        UnsupportedFeatureError, 4, "remaining-args placeholder",
    ),
    "group-without-template": (
        _over_x("<constraints> <group>\n<args> x[0] </args> </group> </constraints>"),
        XmlSyntaxError, 3, "<group> needs one template, got 0",
    ),
    "extension-without-list": (
        _over_x("<constraints> <extension>\n<supports> (0,1) </supports> </extension> </constraints>"),
        XmlSyntaxError, 3, "<extension> missing <list>",
    ),
    "extension-without-tuples": (
        _over_x("<constraints> <extension> <list> x[0] x[1] </list>\n</extension> </constraints>"),
        XmlSyntaxError, 3, "exactly one of <supports>/<conflicts>",
    ),
    "slide-with-two-lists": (
        _over_x("<constraints> <slide> <list> x[0] x[1] </list>\n<list> x[1] x[2] </list>"
                " <intension> lt(%0,%1) </intension> </slide> </constraints>"),
        XmlSyntaxError, 3, "<slide> needs exactly one <list>, got 2",
    ),
    "objective-without-list": (
        _over_x('<objectives>\n<minimize type="sum"> <coeffs> 1 </coeffs> </minimize> </objectives>', "COP"),
        XmlSyntaxError, 4, "<minimize> missing <list>",
    ),
    "two-objectives": (
        _over_x("<objectives> <minimize> x[0] </minimize>\n<maximize> x[1] </maximize> </objectives>", "COP"),
        XmlSyntaxError, 3, "exactly one minimize/maximize",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refusal_is_reported_at_its_line(case):
    text, error, line, message = _REFUSALS[case]
    with pytest.raises(error, match=message) as err:
        parse_instance(text)
    assert err.value.location.line == line


# a <sum> whose <coeffs> is one short, on line 5, read as constraint 2
# after a two-constraint <group>
SHORT_COEFFS = _over_x(
    "<constraints>\n"
    "<group> <intension> ne(%0,%1) </intension> <args> x[0] x[1] </args> <args> x[1] x[2] </args> </group>\n"
    "<sum> <list> x[0] x[1] x[2] </list> <coeffs> 1 2 </coeffs> <condition> (le,5) </condition> </sum>\n"
    "</constraints>"
)

# x declared on lines 2 and 3
DUPLICATE_VAR = (
    '<instance format="XCSP3" type="CSP">\n<variables> <var id="x"> 0..1 </var>\n'
    '<var id="x"> 0..2 </var> </variables>\n</instance>'
)

# x without values, on line 3 after a y
EMPTY_VAR = (
    '<instance format="XCSP3" type="CSP">\n<variables> <var id="y"> 0..1 </var>\n'
    '  <var id="x"> </var> </variables>\n</instance>'
)

# a[1] declared by the array on line 2 and again on line 3
DUPLICATE_CELL = (
    '<instance format="XCSP3" type="CSP">\n<variables> <array id="a" size="[2]"> 0..1 </array>\n'
    '<var id="a[1]"> 0..1 </var> </variables>\n</instance>'
)

# each kind of model-check refusal of a parsed document: its codes and the
# line and column of the element its first violation names
_MODEL_REFUSALS = {
    "objective": (WEIGHTED_MAXIMUM, ["BadObjective"], 3, 14),
    "constraint-after-a-group": (SHORT_COEFFS, ["LengthMismatch"], 5, 1),
    "constraint-of-a-group": (
        _over_x(
            "<constraints> <intension> ne(x[0],x[1]) </intension>\n"
            "<group> <sum> <list> %0 %1 </list> <coeffs> 1 </coeffs> <condition> (le,3) </condition> </sum>"
            " <args> x[0] x[1] </args> <args> x[1] x[2] </args> </group> </constraints>"
        ),
        ["LengthMismatch", "LengthMismatch"],
        4,
        96,
    ),
    "instantiation-lengths": (
        _over_x("<constraints> <instantiation> <list> x[0] x[1] </list>\n<values> 1 </values>"
                " </instantiation> </constraints>"),
        ["LengthMismatch"],
        3,
        15,
    ),
    "instance": (_over_x("<objectives> <minimize> x[0] </minimize> </objectives>"), ["KindMismatch"], 1, 1),
    "variable-declared-twice": (DUPLICATE_VAR, ["DuplicateVariable"], 3, 1),
    "variable-without-values": (EMPTY_VAR, ["EmptyDomain"], 3, 3),
    "array-cell-declared-again": (DUPLICATE_CELL, ["DuplicateVariable"], 3, 1),
}


@pytest.mark.parametrize("case", list(_MODEL_REFUSALS))
def test_a_model_check_refusal_is_reported_at_its_element(case):
    """The report is that of the model check, and the error adds the line
    of the element behind its first violation: a constraint's own element,
    or the ``<args>`` of a ``<group>`` member; the ``<maximize>``; the
    ``<instance>``; the
    ``<var>`` or ``<array>`` that declares a variable, the later one for a
    variable declared twice."""
    text, codes, line, column = _MODEL_REFUSALS[case]
    with pytest.raises(InvariantViolationError) as err:
        parse_instance(text)
    assert [v.code for v in err.value.report] == codes
    assert err.value.location == SourceLocation(line, column)
    assert str(err.value) == "; ".join(map(str, err.value.report)) + f" (line {line}, column {column})"


def _naming_q(element: str) -> str:
    """A document over x[0..2] whose one constraint ``element``, on line
    4, names the undeclared ``q``."""
    return _over_x(f"<constraints>\n{element}\n</constraints>")


# a document over x[0..2] in 0..2 that names the undeclared q, one per place
# the reader reads an id, and the line of the element the refusal names
UNDECLARED_ID = _naming_q("<allDifferent> x[0] q </allDifferent>")
_UNDECLARED_IDS = {
    "list": (_naming_q("<allDifferent> <list> x[0] q </list> </allDifferent>"), 4),
    "inline-list": (UNDECLARED_ID, 4),
    "matrix": (_naming_q("<allDifferent> <matrix> (x[0],x[1])(x[2],q) </matrix> </allDifferent>"), 4),
    "element-index": (
        _naming_q("<element> <list> x[0] x[1] </list> <index> q </index> <value> 1 </value> </element>"),
        4,
    ),
    "element-value": (
        _naming_q("<element> <list> x[0] x[1] </list> <index> x[2] </index> <value> q </value> </element>"),
        4,
    ),
    "sum-coeffs": (
        _naming_q("<sum> <list> x[0] x[1] </list> <coeffs> 1 q </coeffs> <condition> (le,3) </condition> </sum>"),
        4,
    ),
    "condition-rhs": (_naming_q("<sum> <list> x[0] x[1] </list> <condition> (le,q) </condition> </sum>"), 4),
    "noOverlap-origins": (
        _naming_q("<noOverlap> <origins> (x[0],q) </origins> <lengths> (1,1) </lengths> </noOverlap>"),
        4,
    ),
    "noOverlap-lengths": (
        _naming_q("<noOverlap> <origins> (x[0],x[1]) </origins> <lengths> (1,q) </lengths> </noOverlap>"),
        4,
    ),
    "cumulative-origins": (
        _naming_q(
            "<cumulative> <origins> x[0] q </origins> <lengths> 1 1 </lengths> <heights> 1 1 </heights>"
            " <condition> (le,2) </condition> </cumulative>"
        ),
        4,
    ),
    "channel-first-list": (_naming_q("<channel> <list> x[0] q </list> <list> x[1] x[2] </list> </channel>"), 4),
    "channel-second-list": (_naming_q("<channel> <list> x[1] x[2] </list> <list> x[0] q </list> </channel>"), 4),
    "extension-list": (_naming_q("<extension> <list> x[0] q </list> <supports> (0,1) </supports> </extension>"), 4),
    "intension": (_naming_q("<intension> lt(x[0],q) </intension>"), 4),
    "group-args": (_naming_q("<group> <intension> lt(%0,%1) </intension>\n<args> x[0] q </args> </group>"), 5),
    "slide-list": (_naming_q("<slide>\n<list> x[0] x[1] q </list> <intension> lt(%0,%1) </intension> </slide>"), 5),
    "variable-objective": (_over_x("<objectives>\n<minimize> q </minimize>\n</objectives>", "COP"), 4),
    "list-objective": (
        _over_x('<objectives>\n<minimize type="sum"> <list> x[0] q </list> </minimize>\n</objectives>', "COP"),
        4,
    ),
    "decision": (_over_x("<annotations>\n<decision> x[0] q </decision>\n</annotations>"), 4),
}


@pytest.mark.parametrize("case", list(_UNDECLARED_IDS))
def test_the_model_check_sees_every_id_the_reader_reads(case):
    """The reader takes any well-spelled id; the model check refuses an
    undeclared one wherever it is read, and the refusal is located at the
    element that reads it."""
    text, line = _UNDECLARED_IDS[case]
    with pytest.raises(InvariantViolationError) as err:
        parse_instance(text)
    first = err.value.report[0]
    assert first.code == "UnknownVariable" and "variable 'q'" in first.detail
    assert err.value.location.line == line


# each document of _UNDECLARED_IDS with ``3q`` in place of ``q``, and a few
# more misspellings: the document, the line of the element that reads the
# id, and the id the refusal names
_MISSPELLED_IDS = {
    **{case: (re.sub(r"\bq\b", "3q", text), line, "3q") for case, (text, line) in _UNDECLARED_IDS.items()},
    "element-index-integer": (
        _naming_q("<element> <list> x[0] x[1] </list> <index> 3 </index> <value> 1 </value> </element>"),
        4,
        "3",
    ),
    "variable-objective-integer": (_over_x("<objectives>\n<minimize> 3 </minimize>\n</objectives>", "COP"), 4, "3"),
    "intension-negated-name": (_naming_q("<intension> eq(x[0],-x[1]) </intension>"), 4, "-x[1]"),
    "intension-function": (_naming_q("<intension> <function>\neq(x[0],3y) </function> </intension>"), 4, "3y"),
    "group-template": (_naming_q("<group> <intension> lt(%0,-x[1]) </intension>\n<args> x[0] </args> </group>"), 4, "-x[1]"),
}


@pytest.mark.parametrize("case", list(_MISSPELLED_IDS))
def test_the_reader_refuses_a_misspelled_id_wherever_it_reads_one(case):
    """Every id the reader reads, an intension's names included, is read
    through ``expr.ID_RE``: a misspelled one is refused by the reader with
    one class and message, located at the element that reads it. A group's
    ``<args>`` entry, which may be an integer too, says so."""
    text, line, bad = _MISSPELLED_IDS[case]
    message = f"<args> entry {bad!r} is no variable id or integer" if case == "group-args" else f"bad variable id {bad!r}"
    with pytest.raises(XmlSyntaxError) as err:
        parse_instance(text)
    assert str(err.value) == f"{message} ({err.value.location})"
    assert err.value.location.line == line


# a CSP document whose empty variable is named as the objective section
EMPTY_OBJECTIVE_VAR = (
    '<instance format="XCSP3" type="CSP">\n<variables> <var id="objective"> </var> </variables>\n</instance>'
)

# variables named as the sections of the report: the violation is the
# variable's, located at its <var> on line 2 (the column given), whether or
# not the document has the section
_VARIABLE_REFUSALS = {
    "objective-without-objectives": (EMPTY_OBJECTIVE_VAR, "EmptyDomain at objective", 13),
    "objective-with-a-maximize": (
        '<instance format="XCSP3" type="COP">\n'
        '<variables> <var id="objective"> </var> <var id="y"> 0..3 </var> </variables>\n'
        "<objectives> <maximize> y </maximize> </objectives>\n</instance>",
        "EmptyDomain at objective",
        13,
    ),
    "annotations-twice": (
        '<instance format="XCSP3" type="CSP">\n'
        '<variables> <var id="annotations"> 0..1 </var> <var id="annotations"> 0..1 </var> </variables>\n</instance>',
        "DuplicateVariable at annotations",
        48,
    ),
    "instance": (
        _over_x("").replace("</variables>", '<var id="instance"> </var> </variables>'),
        "EmptyDomain at instance",
        53,
    ),
}


@pytest.mark.parametrize("case", list(_VARIABLE_REFUSALS))
def test_a_refused_variable_named_as_a_section_is_located_at_its_declaration(case):
    text, first, column = _VARIABLE_REFUSALS[case]
    with pytest.raises(InvariantViolationError) as err:
        parse_instance(text)
    assert str(err.value.report[0]).startswith(first)
    assert err.value.location == SourceLocation(2, column)


def test_a_unary_table_with_a_star_roundtrips():
    text = _over_x(
        "<constraints> <extension> <list> x[0] </list> <conflicts> 1 * </conflicts> </extension> </constraints>"
    )
    instance = parse_instance(text)
    assert instance.constraints[0].table.rows == ((1,), (STAR,))
    written = write_instance(instance)
    assert "<conflicts> 1 * </conflicts>" in written
    assert parse_instance(written) == instance


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
    plain, spread, negated, ternary, grouped, other_grouped, *windows = parse_instance(text).constraints
    pair = plain.table
    assert pair == supports(2, [(0, 1), (1, 2)])
    assert all(c.table is pair for c in (spread, grouped, other_grouped))
    assert [w.scope for w in windows] == [("x[0]", "x[1]"), ("x[1]", "x[2]"), ("x[2]", "x[3]")]
    assert all(w.table is negated.table for w in windows)
    assert negated.table == conflicts(2, [(0, 1), (1, 2)])
    assert len({id(c.table) for c in (plain, negated, ternary)}) == 3


@pytest.mark.parametrize(
    "body, error, message, line",
    [
        ("(0,1)(1,q)", XmlSyntaxError, "bad tuple entry 'q'", 5),
        ("(0,1)(1,2,0)", InvariantViolationError, r"^ScopeMismatch at constraint 0: row \(1, 2, 0\) does not", 4),
    ],
    ids=["bad-entry", "bad-arity"],
)
def test_a_bad_tuple_in_a_repeated_table_is_reported_at_its_first_location(body, error, message, line):
    """A bad entry is the reader's refusal, at the first body; a tuple of
    another arity the model's, at the first ``<extension>``."""
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
    with pytest.raises(error, match=message) as err:
        parse_instance(text)
    assert (err.value.location.line, err.value.location.column) == (line, 1)


def test_still_life_8_roundtrips_byte_for_byte():
    text = write_instance(gen_still_life(8))
    parsed = parse_instance(text)
    assert write_instance(parsed) == text
    # 64 cells share the neighbourhood table; the border windows share another
    tables = [c.table for c in parsed.constraints if isinstance(c, Extension)]
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
        # a superscript two passes ``isdigit`` but is no integer, and no id
        (_THREE_VARS.format("<intension> eq(x,\u00b2) </intension>"), XmlSyntaxError),
        # an Arabic-Indic three is a digit to ``int`` but not to the XCSP3 grammar
        (_ONE_VAR.format(domain="\u0663", supports="0"), XmlSyntaxError),
        (_THREE_VARS.format("<intension> eq(x,\u0663) </intension>"), XmlSyntaxError),
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
    assert parse_expr(_nested(MAX_DEPTH))[0] == "neg"
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_expr(_nested(MAX_DEPTH + 1))
    with pytest.raises(UnsupportedFeatureError, match="nested deeper"):
        parse_instance(_THREE_VARS.format(f"<intension> eq({_nested(2000)},0) </intension>"))


def _reference_tokenize(text: str) -> list[str]:
    """The character loop that the tokenizer's two regular expressions
    replaced; a ``%`` is a name's character before an ASCII digit."""
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
            while j < len(text) and (text[j].isalnum() or text[j] in "_[]" or text[j : j + 2] in _PLACEHOLDER_STARTS):
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


_PLACEHOLDER_STARTS = {f"%{d}" for d in range(10)}

# ASCII token characters, Unicode spaces, letters, digits that only
# ``isalnum`` knows (superscript two, Arabic-Indic three), a combining
# accent and characters no token holds, and the placeholder sign
_TOKEN_ALPHABET = "ax9_0[]()-,  \t\n\x0b\x1c\u00a0\u2003é中\u00b2\u0663\u0301+.$;%"


def test_the_tokenizer_splits_as_the_character_loop_it_replaced():
    texts = [
        format_expr(c.template, c.scope)
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


# what a mutation of an instance or solution inserts: digits, signs, XML
# and tuple punctuation, spaces, a wildcard, an underscore, letters of
# names and operators, and non-ASCII digits
_XML_INSERTS = "0123456789+-_.,()<>/=\"' \t\n*[]%xeqltd\u0663\u00b2"
# runs of 7 make ranges too long to list, runs of 25 numbers beyond int64
_XML_RUNS = (1, 1, 1, 7, 25)


@pytest.mark.parametrize("seed", range(2))
def test_mutated_instances_and_solutions_are_read_or_refused_with_a_typed_error(seed):
    """Seeded mutations of written instances and solution fragments: every
    mutant reads into a valid instance or assignment, within the readers'
    own bounds, or is refused with an ``XcspError``; no other exception
    escapes, and no read is slow."""
    rng = random.Random(seed)
    instances = [
        write_instance(inst)
        for inst in (_kitchen_sink_instance(), gen_langford(3), gen_golomb_ruler(4), gen_low_autocorrelation(5), gen_dubois(3))
    ]
    solutions = [
        write_solution(Assignment({"x[0]": 3, "x[1]": -4, "y[0][1]": 0})),
        write_solution(Assignment({"z": INT64_MAX, "w": -INT64_MAX - 1})),
    ]
    outcomes = set()
    slowest = 0.0
    for text in instances:
        for _ in range(150):
            start = time.perf_counter()
            try:
                instance = parse_instance(mutant(rng, text, _XML_INSERTS, _XML_RUNS))
            except XcspError:
                outcomes.add("refused")
            else:
                outcomes.add("read")
                assert validate_instance(instance) == []
                for v in instance.variables:
                    values = v.domain.values
                    assert len(values) <= 1 << 20 and -INT64_MAX - 1 <= values[0] and values[-1] <= INT64_MAX
            slowest = max(slowest, time.perf_counter() - start)
    for text in solutions:
        for _ in range(300):
            try:
                assignment = parse_solution(mutant(rng, text, _XML_INSERTS, _XML_RUNS))
            except XcspError:
                outcomes.add("solution refused")
            else:
                outcomes.add("solution read")
                assert all(-INT64_MAX - 1 <= x <= INT64_MAX for x in assignment.bindings.values())
    assert outcomes == {"refused", "read", "solution refused", "solution read"}
    assert slowest < 1.0
