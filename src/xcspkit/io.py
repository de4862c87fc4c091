"""XCSP3 subset parsing and canonical serialization.

The writer emits one fixed form (declaration order, ``a..b`` run
compression, lexicographically sorted tuples, 2-space indentation); the
parser accepts that form plus ordinary whitespace variation, and reads
each ``<group>``, ``<block>`` and ``<slide>`` as the constraints it stands
for: a slide's windows, in order, each its own constraint.

The reader checks how a document is spelled and nested: each token (an
id, an integer, a range, a condition operator) and which children each
element takes. What an id refers to and which fields must agree (every
id declared, a tuple as long as its scope, an instantiation's values as
many as its list) is the model's check, made once, when the ``Instance``
is built; ``parse_instance`` locates its first violation in the document.

``_LAYOUTS`` is the one description of each constraint element's XML
layout: its tag, its children in canonical order with how each reads and
formats, and how they map to the fields of the model record. The reader
and the writer are walks over it, so a constraint element is added in one
place.
``intension`` is an inline row, read from its text or one ``<function>``.
Only ``extension`` (its shared tables, below) is an explicit case.

The canonical form writes each template once, and ``<group>`` is its one
template form. Constraints of one shape (``_shape``) are intensions of one
``Intension.template``, or extensions of one table and one repeat pattern
of their scope. Each maximal run of two or more constraints of one shape
is written as one ``<group>``: the first of them renamed to ``%0``,
``%1``, ... as the template, and each one's distinct ids as an ``<args>``.

A ``<group>``'s or ``<slide>``'s template is one constraint element: a
``<group>``, ``<slide>`` or ``<block>`` there is refused. It is read once
(``_template_reader``). An ``<intension>`` template's expression is parsed
once with each ``%k`` as a placeholder, which must be a whole operand, and
each ``<args>`` entry binds a variable id or an integer into it. Any other
template is instantiated by substituting its text, and its subtrees
without a placeholder are shared, not copied.

Each distinct table is parsed once per call, and written once per run of
its extensions. ``parse_instance`` keys every ``<supports>``/``<conflicts>``
body by polarity, arity and whitespace-normalised text, so extensions that
repeat it (plain, in a ``<group>`` or in the windows of a ``<slide>``)
share one ``Table``, read and checked at its first occurrence.
``write_instance`` renders each distinct ``Table``'s body once.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import xml.parsers.expat
from typing import Any, Callable, NamedTuple, Union

from . import expr as _expr
from .errors import (
    InvariantViolationError,
    LengthMismatchError,
    SourceLocation,
    UnsupportedFeatureError,
    XcspError,
    XmlSyntaxError,
)
from .model import (
    CONDITION_OPERATORS,
    ID_RE,
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
    Violation,
)

_RANGE_RE = re.compile(rf"({_expr.INT_RE.pattern})\.\.({_expr.INT_RE.pattern})")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_SIZE_RE = re.compile(r"\[([0-9]+)\]")
# a group template's %k placeholder
_PLACEHOLDER_RE = re.compile(r"%([0-9]+)")
# the most values one range of a domain or of a unary table may list, and
# the most cells of an array
_RANGE_CAP = 1 << 20


# ---------------------------------------------------------------------------
# Location-aware XML layer


class _Node:
    """An element: its tag, attributes, location, children and its text,
    whitespace-normalised once, when the element closes."""

    __slots__ = ("tag", "attrib", "loc", "children", "text")

    def __init__(self, tag: str, attrib: dict[str, str], loc: SourceLocation):
        self.tag = tag
        self.attrib = attrib
        self.loc = loc
        self.children: list[_Node] = []
        self.text = ""

    def child(self, tag: str) -> "_Node | None":
        for c in self.children:
            if c.tag == tag:
                return c
        return None

    def all(self, tag: str) -> list["_Node"]:
        return [c for c in self.children if c.tag == tag]


def _parse_xml(text: str) -> _Node:
    parser = xml.parsers.expat.ParserCreate()
    root: list[_Node] = []
    stack: list[_Node] = []
    parts: list[list[str]] = []  # the text chunks of each open element

    def loc() -> SourceLocation:
        return SourceLocation(parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def start(tag, attrs):
        node = _Node(tag, dict(attrs), loc())
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)
        parts.append([])

    def end(tag):
        stack.pop().text = " ".join("".join(parts.pop()).split())

    def chardata(data):
        if parts:
            parts[-1].append(data)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chardata
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlSyntaxError(
            xml.parsers.expat.errors.messages[exc.code],
            SourceLocation(exc.lineno, exc.offset + 1),
        ) from None
    # expat refuses an empty document and a second root element
    return root[0]


# ---------------------------------------------------------------------------
# Token helpers


def _parse_ints(text: str, loc: SourceLocation) -> list[int]:
    out: list[int] = []
    for tok in text.split():
        values = _values(tok, loc)
        if not values:
            raise XmlSyntaxError(f"inverted range {tok!r}", loc)
        out.extend(values)
    return out


def _parse_var_list(text: str, loc: SourceLocation) -> list[str]:
    out = text.split()
    for tok in out:
        if not ID_RE.fullmatch(tok):
            raise XmlSyntaxError(f"bad variable id {tok!r}", loc)
    return out


def _split_tuples(text: str, tag: str, loc: SourceLocation) -> list[list[str]]:
    """The stripped parts of each ``(a,b)`` of ``text``, the body of a
    ``<tag>``; any text outside the tuples is refused."""
    stray = _TUPLE_RE.sub("", text).strip()
    if stray:
        raise XmlSyntaxError(f"stray content {stray!r} in <{tag}>", loc)
    return [[p.strip() for p in m.group(1).split(",")] for m in _TUPLE_RE.finditer(text)]


def _int(tok: str, loc: SourceLocation) -> int | None:
    """The integer ``tok`` (``expr.int64``), which must be a 64-bit one;
    None when ``tok`` is no integer."""
    value = _expr.int64(tok)
    if value is None and _expr.INT_RE.fullmatch(tok):
        raise XmlSyntaxError(f"{tok!r} is outside the 64-bit integers", loc)
    return value


def _tuple_entry(part: str, loc: SourceLocation) -> Union[int, str]:
    if part == STAR:
        return STAR
    value = _int(part, loc)
    if value is None:
        raise XmlSyntaxError(f"bad tuple entry {part!r}", loc)
    return value


def _bounds(tok: str, loc: SourceLocation) -> tuple[int, int]:
    """Inclusive bounds of ``a..b`` or of ``a``; each must be a 64-bit
    integer."""
    m = _RANGE_RE.fullmatch(tok)
    lo, hi = (_int(m[1], loc), _int(m[2], loc)) if m else (_int(tok, loc),) * 2
    if lo is None:
        raise XmlSyntaxError(f"expected integer or range, got {tok!r}", loc)
    return lo, hi


def _values(tok: str, loc: SourceLocation) -> range:
    """The values of ``a..b`` or of ``a``, refused before they are listed
    when there are more than ``_RANGE_CAP``."""
    lo, hi = _bounds(tok, loc)
    if hi - lo >= _RANGE_CAP:
        raise UnsupportedFeatureError(f"range {tok!r} of more than {_RANGE_CAP} values", loc)
    return range(lo, hi + 1)


def _term(tok: str, loc: SourceLocation) -> Union[int, str]:
    """An integer or a variable id."""
    value = _int(tok, loc)
    if value is not None:
        return value
    if not ID_RE.fullmatch(tok):
        raise XmlSyntaxError(f"bad token {tok!r}", loc)
    return tok


def _parse_condition(text: str, loc: SourceLocation) -> Condition:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise XmlSyntaxError(f"bad condition {text!r}", loc)
    parts = [p.strip() for p in body[1:-1].split(",")]
    if len(parts) != 2:
        raise XmlSyntaxError(f"bad condition {text!r}", loc)
    op, rhs_text = parts
    if op not in CONDITION_OPERATORS:
        raise XmlSyntaxError(f"bad condition operator {op!r}", loc)
    return Condition(op, _bounds(rhs_text, loc) if _RANGE_RE.fullmatch(rhs_text) else _term(rhs_text, loc))


def _compress_ints(values) -> str:
    """Sorted distinct ints rendered with maximal ``a..b`` run compression."""
    vals = sorted(set(values))
    parts = []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] == vals[j] + 1:
            j += 1
        if j > i:
            parts.append(f"{vals[i]}..{vals[j]}")
        else:
            parts.append(str(vals[i]))
        i = j + 1
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Constraint element layouts


class _Codec(NamedTuple):
    """How a child element's text (and attributes) reads to a value and
    formats back."""

    read: Callable[[_Node], Any]  # child -> value
    fmt: Callable[[Any], str]
    attrs: Callable[[Any], str] = lambda value: ""


class _Child(NamedTuple):
    tag: str
    codec: _Codec
    least: int = 1
    most: int | None = 1  # None: unbounded; unless 1, the value is a tuple of reads


class _Layout(NamedTuple):
    """A constraint element: its tag and its children in canonical order.
    ``pack`` maps the children's values to the constraint and ``unpack``
    back; both default to the record's fields in order. An ``inline`` layout
    has one child, written as the element's own text and read from it when
    the element has no children."""

    tag: str
    children: tuple[_Child, ...]
    pack: Callable[..., Constraint] | None = None
    unpack: Callable[[Constraint], tuple] | None = None
    inline: bool = False


def _tuple_list(read_entry):
    """Reader of ``(a,b)(c,d)`` text; ``read_entry(parts, node)`` reads the
    stripped parts of one tuple."""

    def read(node: _Node) -> tuple:
        return tuple(read_entry(parts, node) for parts in _split_tuples(node.text, node.tag, node.loc))

    return read


def _transition(parts, node):
    if len(parts) != 3 or _int(parts[1], node.loc) is None:
        raise XmlSyntaxError(f"bad transition ({','.join(parts)})", node.loc)
    return parts[0], int(parts[1]), parts[2]


def _pair(parts, node):
    if len(parts) != 2:
        raise XmlSyntaxError(f"expected (x,y) pairs, got ({','.join(parts)})", node.loc)
    return tuple(_term(p, node.loc) for p in parts)


def _origin(parts, node):
    row = _pair(parts, node)
    if any(isinstance(e, int) for e in row):
        raise XmlSyntaxError("noOverlap origins must be variables", node.loc)
    return row


def _read_limit(node: _Node) -> int:
    cond = _parse_condition(node.text, node.loc)
    if cond.operator != "le" or not isinstance(cond.rhs, int):
        raise UnsupportedFeatureError("cumulative condition other than (le,k)", node.loc)
    return cond.rhs


def _read_intension(node: _Node) -> Intension:
    try:
        return Intension(_expr.parse_expr(node.text))
    except _expr.ExprSyntaxError as exc:
        raise UnsupportedFeatureError(f"intension form ({exc})", node.loc) from None


def _format_ints(values) -> str:
    return " ".join(str(v) for v in values)


def _format_tuples(rows) -> str:
    return "".join("(" + ",".join(str(e) for e in row) + ")" for row in rows)


def _format_condition(cond: Condition) -> str:
    rhs = cond.rhs
    if isinstance(rhs, tuple):
        body = f"{rhs[0]}..{rhs[1]}"
    else:
        body = str(rhs)
    return f"({cond.operator},{body})"


_VARS = _Codec(lambda n: tuple(_parse_var_list(n.text, n.loc)), " ".join)
_INTS = _Codec(lambda n: tuple(_parse_ints(n.text, n.loc)), _format_ints)
_TERMS = _Codec(lambda n: tuple(_term(t, n.loc) for t in n.text.split()), _format_ints)
_WORD = _Codec(lambda n: n.text, str)
_WORDS = _Codec(lambda n: tuple(n.text.split()), " ".join)
_INT_OR_ID = _Codec(lambda n: _term(n.text, n.loc), str)
_CONDITION = _Codec(lambda n: _parse_condition(n.text, n.loc), _format_condition)
_LIMIT = _Codec(_read_limit, lambda limit: f"(le,{limit})")
_OCCURS = _Codec(
    lambda n: tuple(_bounds(tok, n.loc) for tok in n.text.split()),
    lambda occurs: " ".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in occurs),
)
_CLOSED_INTS = _Codec(
    lambda n: (_INTS.read(n), n.attrib.get("closed", "false") == "true"),
    lambda values: _format_ints(values[0]),
    lambda values: f' closed="{"true" if values[1] else "false"}"',
)
_MATRIX = _Codec(_tuple_list(lambda parts, n: tuple(parts)), _format_tuples)
_TRANSITIONS = _Codec(_tuple_list(_transition), _format_tuples)
_ORIGINS = _Codec(_tuple_list(_origin), _format_tuples)
_PAIRS = _Codec(_tuple_list(_pair), _format_tuples)
_INTENSION = _Codec(_read_intension, lambda c: _expr.format_expr(c.expr))

_LAYOUTS: dict[type, _Layout] = {
    Intension: _Layout("intension", (_Child("function", _INTENSION),), lambda c: c, lambda c: (c,), inline=True),
    Regular: _Layout(
        "regular",
        (_Child("list", _VARS), _Child("transitions", _TRANSITIONS), _Child("start", _WORD), _Child("final", _WORDS)),
        lambda scope, transitions, start, finals: Regular(scope, Automaton(start, transitions, finals)),
        lambda c: (c.scope, c.automaton.transitions, c.automaton.start, c.automaton.finals),
    ),
    AllDifferent: _Layout("allDifferent", (_Child("list", _VARS),), inline=True),
    AllDifferentMatrix: _Layout("allDifferent", (_Child("matrix", _MATRIX),)),
    Ordered: _Layout("ordered", (_Child("list", _VARS), _Child("operator", _WORD))),
    Lex: _Layout("lex", (_Child("list", _VARS, least=2, most=None), _Child("operator", _WORD))),
    LexMatrix: _Layout("lex", (_Child("matrix", _MATRIX), _Child("operator", _WORD))),
    Sum: _Layout(
        "sum",
        (_Child("list", _VARS), _Child("coeffs", _TERMS, least=0), _Child("condition", _CONDITION)),
        lambda scope, coeffs, condition: Sum(scope, (1,) * len(scope) if coeffs is None else coeffs, condition),
        lambda c: (c.scope, c.coeffs if any(k != 1 for k in c.coeffs) else None, c.condition),
    ),
    Count: _Layout("count", (_Child("list", _VARS), _Child("values", _INTS), _Child("condition", _CONDITION))),
    Cardinality: _Layout(
        "cardinality",
        (_Child("list", _VARS), _Child("values", _CLOSED_INTS), _Child("occurs", _OCCURS)),
        lambda scope, values, occurs: Cardinality(scope, values[0], occurs, values[1]),
        lambda c: (c.scope, (c.values, c.closed), c.occurs),
    ),
    Element: _Layout("element", (_Child("list", _VARS), _Child("index", _WORD), _Child("value", _INT_OR_ID))),
    Channel: _Layout(
        "channel",
        (_Child("list", _VARS, least=2, most=2),),
        lambda lists: Channel(*lists),
        lambda c: ((c.list_a, c.list_b),),
    ),
    NoOverlap: _Layout("noOverlap", (_Child("origins", _ORIGINS), _Child("lengths", _PAIRS))),
    Cumulative: _Layout(
        "cumulative",
        (_Child("origins", _VARS), _Child("lengths", _INTS), _Child("heights", _INTS), _Child("condition", _LIMIT)),
    ),
    Circuit: _Layout("circuit", (_Child("list", _VARS),), inline=True),
    Instantiation: _Layout("instantiation", (_Child("list", _VARS), _Child("values", _INTS))),
}

# tag -> (class, layout) in table order; a tag with several layouts picks the
# first whose first child is present (``allDifferent`` and ``lex``)
_BY_TAG: dict[str, list[tuple[type, _Layout]]] = {}
for _cls, _layout in _LAYOUTS.items():
    _BY_TAG.setdefault(_layout.tag, []).append((_cls, _layout))


def _group_children(node: _Node, most: dict[str, int | None]) -> dict[str, list[_Node]]:
    """``node``'s children by tag. A tag outside ``most``, or repeated more
    than ``most[tag]`` times (None: unbounded), is refused."""
    groups: dict[str, list[_Node]] = {tag: [] for tag in most}
    for child in node.children:
        group = groups.get(child.tag)
        if group is None:
            raise XmlSyntaxError(f"<{node.tag}> does not take <{child.tag}>", child.loc)
        limit = most[child.tag]
        if limit is not None and len(group) == limit:
            raise XmlSyntaxError(f"<{node.tag}> takes at most {limit} <{child.tag}>", child.loc)
        group.append(child)
    return groups


def _read_layout(node: _Node) -> Constraint:
    candidates = _BY_TAG[node.tag]
    present = {child.tag for child in node.children}
    cls, layout = next((entry for entry in candidates if entry[1].children[0].tag in present), candidates[0])
    groups = _group_children(node, {spec.tag: spec.most for spec in layout.children})
    if node.children and node.text:
        raise XmlSyntaxError(f"<{node.tag}> has text {node.text!r} beside its child elements", node.loc)
    if layout.inline and not node.children:
        groups[layout.children[0].tag] = [node]
    values = []
    for spec in layout.children:
        nodes = groups[spec.tag]
        if len(nodes) < spec.least:
            raise XmlSyntaxError(f"<{node.tag}> needs {spec.least} <{spec.tag}>, got {len(nodes)}", node.loc)
        reads = tuple(spec.codec.read(n) for n in nodes)
        values.append(reads if spec.most != 1 else reads[0] if reads else None)
    return (layout.pack or cls)(*values)


def _write_layout(w: _Writer, layout: _Layout, c: Constraint) -> None:
    values = layout.unpack(c) if layout.unpack else c._values()
    if layout.inline:
        w.leaf(layout.tag, layout.children[0].codec.fmt(values[0]))
        return
    w.open(f"<{layout.tag}>")
    for spec, value in zip(layout.children, values):
        if value is None:
            continue
        for item in (value,) if spec.most == 1 else value:
            w.leaf(spec.tag, spec.codec.fmt(item), spec.codec.attrs(item))
    w.close(f"</{layout.tag}>")


# ---------------------------------------------------------------------------
# Parsing


def parse_instance(text: str) -> Instance:
    """Parse an XCSP3 document into an Instance, which is valid by
    construction: a well-formed document that breaks an invariant raises
    :class:`InvariantViolationError`, located at the element its first
    violation names (``_violation_node``)."""
    root = _parse_xml(text)
    if root.tag != "instance":
        raise XmlSyntaxError(f"root element must be <instance>, got <{root.tag}>", root.loc)
    kind = root.attrib.get("type", "CSP")
    if kind not in ("CSP", "COP"):
        raise XmlSyntaxError(f"bad instance type {kind!r}", root.loc)

    vars_node = root.child("variables")
    if vars_node is None:
        raise XmlSyntaxError("missing <variables>", root.loc)
    variables = _parse_variables(vars_node)

    constraints: list[Constraint] = []
    tables: dict[tuple, Table] = {}  # (polarity, arity, body text) -> its one Table
    ctrs_node = root.child("constraints")
    if ctrs_node is not None:
        for child in ctrs_node.children:
            constraints.extend(_parse_constraint_item(child, tables))

    objective = None
    obj_node = root.child("objectives")
    if obj_node is not None:
        objective = _parse_objective(obj_node)

    decision: tuple[str, ...] = ()
    ann_node = root.child("annotations")
    if ann_node is not None:
        dec = ann_node.child("decision")
        if dec is not None:
            decision = tuple(_parse_var_list(dec.text, dec.loc))

    try:
        return Instance(kind, tuple(variables), tuple(constraints), objective, decision)
    except InvariantViolationError as exc:
        node = _violation_node(root, exc.report[0], {v.id for v in variables})
        raise InvariantViolationError(exc.report, node.loc if node else None) from None


def _violation_node(root: _Node, violation: Violation, known: set[str]) -> _Node | None:
    """The element behind a violation's ``where`` (see :class:`Violation`):
    for a declared id the ``<var>`` or ``<array>`` that declares it, the
    second one for ``DuplicateVariable``; for ``constraint i`` the element
    that reads it: its own, the ``<args>`` of a ``<group>`` member, the
    ``<list>`` of a ``<slide>``'s window or the ``<block>`` that holds it;
    the objective's ``<minimize>``/``<maximize>``; the root for
    ``instance``; ``<decision>`` for ``annotations``. Declarations and
    children are read again, so only a refused document pays for it. None
    for an element the document lacks."""
    where = violation.where
    if where in known:
        declared = [
            child
            for child in root.child("variables").children
            if where in ((child.attrib["id"],) if child.tag == "var" else _array_cells(child))
        ]
        return declared[1 if violation.code == "DuplicateVariable" else 0]
    if where == "instance":
        return root
    section = root.child({"objective": "objectives", "annotations": "annotations"}.get(where, "constraints"))
    if section is None:
        return None
    if where == "objective":
        return next((c for c in section.children if c.tag in ("minimize", "maximize")), None)
    if where == "annotations":
        return section.child("decision")
    if where.startswith("constraint "):
        idx = int(where.split()[1])
        for child in section.children:
            count = len(_parse_constraint_item(child, {}))
            if idx < count:
                if child.tag == "group":
                    return child.all("args")[idx]
                return child.child("list") if child.tag == "slide" else child
            idx -= count
    return None


def _parse_variables(node: _Node) -> list[Variable]:
    out: list[Variable] = []
    for child in node.children:
        if child.tag == "var":
            vid = child.attrib.get("id")
            if not vid:
                raise XmlSyntaxError("<var> without id", child.loc)
            out.append(Variable(vid, Domain.of(*_parse_ints(child.text, child.loc))))
        elif child.tag == "array":
            out.extend(_parse_array(child))
        else:
            raise UnsupportedFeatureError(child.tag, child.loc)
    return out


def _cells(stem: str, dims: list[int]) -> list[str]:
    cells = [stem]
    for d in dims:
        cells = [f"{c}[{i}]" for c in cells for i in range(d)]
    return cells


def _array_cells(node: _Node) -> list[str]:
    """The ids of the cells an ``<array>`` declares."""
    vid = node.attrib.get("id")
    size = node.attrib.get("size")
    if not vid or not size:
        raise XmlSyntaxError("<array> needs id and size", node.loc)
    dims = [int(m.group(1)) for m in _SIZE_RE.finditer(size)]
    if not dims or _SIZE_RE.sub("", size).strip():
        raise XmlSyntaxError(f"bad array size {size!r}", node.loc)
    if math.prod(dims) > _RANGE_CAP:
        raise UnsupportedFeatureError(f"array {vid!r} of more than {_RANGE_CAP} cells", node.loc)
    return _cells(vid, dims)


def _parse_array(node: _Node) -> list[Variable]:
    cells = _array_cells(node)
    dom_nodes = node.all("domain")
    if not dom_nodes:
        dom = Domain.of(*_parse_ints(node.text, node.loc))
        return [Variable(c, dom) for c in cells]
    known = set(cells)
    per_cell: dict[str, Domain] = {}
    for dn in dom_nodes:
        targets = dn.attrib.get("for", "").split()
        dom = Domain.of(*_parse_ints(dn.text, dn.loc))
        for t in targets:
            if t not in known:
                raise XmlSyntaxError(f"domain for unknown cell {t!r}", dn.loc)
            if t in per_cell:
                raise XmlSyntaxError(f"cell {t!r} has two domains", dn.loc)
            per_cell[t] = dom
    missing = [c for c in cells if c not in per_cell]
    if missing:
        raise XmlSyntaxError(f"array cell {missing[0]!r} has no domain", node.loc)
    return [Variable(c, per_cell[c]) for c in cells]


def _substitute(node: _Node, args: list[str]) -> _Node:
    """The template element with each %k of its text replaced by
    ``args[k]``; a subtree without a ``%`` is returned itself, so its text
    (a table body, say) is normalised, keyed and read once per template."""
    text = node.text
    if "%" in text:
        if "%..." in text:
            raise UnsupportedFeatureError("group remaining-args placeholder '%...'", node.loc)
        # callers pass at least ``_template_arity(node)`` ids
        text = _PLACEHOLDER_RE.sub(lambda m: args[int(m.group(1))], text)
    children = [_substitute(c, args) for c in node.children]
    if text is node.text and all(map(operator.is_, children, node.children)):
        return node
    clone = _Node(node.tag, node.attrib, node.loc)
    clone.text = text
    clone.children = children
    return clone


def _parse_constraint_item(node: _Node, tables: dict) -> list[Constraint]:
    if node.tag == "block":
        out = []
        for child in node.children:
            out.extend(_parse_constraint_item(child, tables))
        return out
    if node.tag == "group":
        template, args_nodes = _template_and_args(node, "args")
        arity = _template_arity(template)
        read = _template_reader(template, tables)
        out = []
        for an in args_nodes:
            args = an.text.split()
            # too few ids would leave a placeholder unfilled, so they are
            # refused unread; extra ids after the read, so that a `%` before
            # non-ASCII digits, which the arity does not count, fails as an
            # unsupported expression first
            if len(args) >= arity:
                out.append(read(args, an))
            if len(args) != arity:
                raise XmlSyntaxError(f"<args> holds {len(args)} ids for a template of arity {arity}", an.loc)
        return out
    return _parse_windows(node, tables)


def _parse_windows(node: _Node, tables: dict) -> list[Constraint]:
    """A constraint element as the constraints it stands for: a
    ``<slide>``'s windows, in order, each read from its template with the
    ids of the window in turn; any other element as its one constraint. A
    slide's template is one constraint element (``_template_and_args``)."""
    if node.tag != "slide":
        return [_parse_constraint(node, tables)]
    _check_attributes(node)
    template, lists = _template_and_args(node, "list")
    if len(lists) != 1:
        raise XmlSyntaxError(f"<slide> needs exactly one <list>, got {len(lists)}", node.loc)
    scope = _parse_var_list(lists[0].text, lists[0].loc)
    arity = _template_arity(template)
    if arity < 1 or arity > len(scope):
        raise XmlSyntaxError("slide template arity does not fit list", node.loc)
    read = _template_reader(template, tables)
    windows = []
    for i in range(len(scope) - arity + 1):
        windows.append(read(scope[i : i + arity], lists[0]))
    return windows


def _template_reader(template: _Node, tables: dict) -> Callable[[list[str], _Node], Constraint]:
    """The reader of a ``<group>``'s or ``<slide>``'s template: a function
    of one instance's ids and the element that lists them, giving the
    constraint that ``_parse_constraint`` reads from the template's text
    with those ids put in for its placeholders.

    An ``<intension>`` template is read once, at its first instance, each
    ``%k`` as a placeholder (``_intension_shape``); an instance binds each
    placeholder to its id (a ``VarRef``) or integer (an ``IntConst``) and
    builds the ``Intension``. Any other template is read per instance from
    ``_substitute``. An instance that the intension shape cannot give is
    refused with the error its substituted text reads with; when that text
    reads, because an entry is an expression or a placeholder is no whole
    operand, with the shape's own error."""
    if template.tag != "intension":
        return lambda args, at: _parse_constraint(_substitute(template, args), tables)
    shape = None

    def read(args: list[str], at: _Node) -> Constraint:
        nonlocal shape
        try:
            if shape is None:
                shape = _intension_shape(template)
            expression, placeholders = shape
            return Intension(_bind(expression, {name: _operand(args[k], at) for name, k in placeholders.items()}))
        except XcspError:
            _parse_constraint(_substitute(template, args), tables)
            raise

    return read


def _intension_shape(template: _Node):
    """``(expression, placeholders)`` of an ``<intension>`` template: its
    expression with each ``%k`` read as the id ``{stem}{k}``, where no text
    of the template holds ``stem``; ``placeholders`` maps the ids it holds
    to their ``k``. A placeholder must be a whole operand."""
    texts = " ".join(n.text for n in (template, *template.children))
    stem = "_"
    while stem in texts:
        stem += "_"
    names = [f"{stem}{k}" for k in range(_template_arity(template))]
    placeholders = {name: k for k, name in enumerate(names)}
    try:
        c = _parse_constraint(_substitute(template, names), {})
    except XcspError:
        c = None
    if c is None or any(stem in vid and vid not in placeholders for vid in c.scope):
        raise UnsupportedFeatureError("intension template whose placeholder is no whole operand", template.loc)
    return c.expr, {name: placeholders[name] for name in c.scope if name in placeholders}


def _operand(tok: str, at: _Node) -> _expr.Expr:
    """An ``<args>`` entry as an intension operand: a variable id, or an
    integer of the expression grammar, which has no ``+`` sign."""
    if ID_RE.fullmatch(tok):
        return _expr.VarRef(tok)
    value = None if tok.startswith("+") else _expr.int64(tok)
    if value is None:
        raise XmlSyntaxError(f"<args> entry {tok!r} is no variable id or integer", at.loc)
    return _expr.IntConst(value)


def _bind(e: _expr.Expr, operands: dict) -> _expr.Expr:
    """``e`` with each variable named in ``operands`` replaced by its operand."""
    if isinstance(e, _expr.Op):
        return _expr.Op(e.kind, tuple([_bind(child, operands) for child in e.children]))
    if isinstance(e, _expr.VarRef):
        return operands.get(e.var_id, e)
    return e


def _template_and_args(node: _Node, args_tag: str) -> tuple[_Node, list[_Node]]:
    """The one template child of a ``<group>`` or ``<slide>`` and its
    ``<args_tag>`` children, which give the template's arguments. The
    template is one constraint element: a ``<group>``, ``<slide>`` or
    ``<block>`` is refused there."""
    templates = [child for child in node.children if child.tag != args_tag]
    if len(templates) != 1:
        raise XmlSyntaxError(f"<{node.tag}> needs one template, got {len(templates)}", node.loc)
    template = templates[0]
    if template.tag in ("group", "slide", "block"):
        raise UnsupportedFeatureError(f"<{template.tag}> as the template of a <{node.tag}>", template.loc)
    return template, node.all(args_tag)


def _require(node: _Node, tag: str) -> _Node:
    child = node.child(tag)
    if child is None:
        raise XmlSyntaxError(f"<{node.tag}> missing <{tag}>", node.loc)
    return child


_EXTENSION_CHILDREN = {"list": 1, "supports": 1, "conflicts": 1}
# (tag, attribute) -> the one value of it that a constraint element or its
# child may carry; the reader takes each with this meaning and refuses any
# other: a circular slide, a slide list with another offset or collect, a
# list indexed from another start and an index of another rank
_ONLY_VALUE = {
    ("slide", "circular"): "false",
    ("list", "offset"): "1",
    ("list", "collect"): "1",
    ("list", "startIndex"): "0",
    ("index", "rank"): "any",
}


def _check_attributes(node: _Node) -> None:
    """Refuse an attribute of ``node`` or of a child that ``_ONLY_VALUE``
    gives another value."""
    for n in (node, *node.children):
        for name, value in n.attrib.items():
            if _ONLY_VALUE.get((n.tag, name), value) != value:
                raise UnsupportedFeatureError(f'<{n.tag} {name}="{value}">', n.loc)


def _parse_constraint(node: _Node, tables: dict) -> Constraint:
    """One constraint element; an extension takes its Table from
    ``tables`` when its body was read before."""
    _check_attributes(node)
    tag = node.tag
    if tag == "extension":
        groups = _group_children(node, _EXTENSION_CHILDREN)
        if not groups["list"]:
            raise XmlSyntaxError("<extension> missing <list>", node.loc)
        lst = groups["list"][0]
        scope = _parse_var_list(lst.text, lst.loc)
        bodies = groups["supports"] + groups["conflicts"]
        if len(bodies) != 1:
            raise XmlSyntaxError("<extension> needs exactly one of <supports>/<conflicts>", node.loc)
        body = bodies[0]
        key = (body.tag, len(scope), body.text)
        table = tables.get(key)
        if table is None:
            table = tables[key] = _parse_table(*key, body.loc)
        return Extension(tuple(scope), table)

    if tag in _BY_TAG:
        return _read_layout(node)
    raise UnsupportedFeatureError(tag, node.loc)


def _parse_table(polarity: str, arity: int, text: str, loc: SourceLocation) -> Table:
    """The Table of a ``<supports>``/``<conflicts>`` body whose normalised
    text is ``text``."""
    if arity == 1:
        rows = []
        for tok in text.split():
            if tok == STAR:
                rows.append((STAR,))
            else:
                rows.extend((v,) for v in _values(tok, loc))
    else:
        tuples = _split_tuples(text, polarity, loc)
        # each distinct entry is read once, in order of first occurrence
        entries = {part: _tuple_entry(part, loc) for part in dict.fromkeys(p for parts in tuples for p in parts)}
        rows = [tuple(map(entries.__getitem__, parts)) for parts in tuples]
    return Table(arity, polarity, tuple(rows))


def _template_arity(node: _Node) -> int:
    best = max((int(m.group(1)) for m in _PLACEHOLDER_RE.finditer(node.text)), default=-1)
    for child in node.children:
        best = max(best, _template_arity(child) - 1)
    return best + 1


def _parse_objective(node: _Node) -> Objective:
    bodies = [c for c in node.children if c.tag in ("minimize", "maximize")]
    if len(bodies) != 1:
        raise XmlSyntaxError("<objectives> must hold exactly one minimize/maximize", node.loc)
    body = bodies[0]
    sense = body.tag
    otype = body.attrib.get("type")
    if otype is None:
        return Objective(sense, "variable", (body.text,))
    if otype not in ("sum", "maximum"):
        raise UnsupportedFeatureError(f"objective type {otype!r}", body.loc)
    lst = _require(body, "list")
    scope = tuple(_parse_var_list(lst.text, lst.loc))
    coeffs: tuple[int, ...] = ()
    coeffs_node = body.child("coeffs")
    if coeffs_node is not None:
        coeffs = tuple(_parse_ints(coeffs_node.text, coeffs_node.loc))
    return Objective(sense, otype, scope, coeffs)


# ---------------------------------------------------------------------------
# Solution fragments


def parse_solution(text: str) -> Assignment:
    """Parse an ``<instantiation>`` fragment into an Assignment."""
    root = _parse_xml(text)
    if root.tag != "instantiation":
        raise XmlSyntaxError(f"expected <instantiation>, got <{root.tag}>", root.loc)
    lst = _require(root, "list")
    values_node = _require(root, "values")
    ids = lst.text.split()
    seen = set()
    for vid in ids:
        if not ID_RE.fullmatch(vid):
            raise XmlSyntaxError(f"bad variable id {vid!r}", lst.loc)
        if vid in seen:
            raise XmlSyntaxError(f"variable {vid!r} listed twice", lst.loc)
        seen.add(vid)
    values = []
    for tok in values_node.text.split():
        if tok == STAR:
            raise UnsupportedFeatureError("wildcard value in solution", values_node.loc)
        value = _int(tok, values_node.loc)
        if value is None:
            raise XmlSyntaxError(f"bad value {tok!r}", values_node.loc)
        values.append(value)
    if len(ids) != len(values):
        raise LengthMismatchError(f"{len(ids)} variables but {len(values)} values")
    return Assignment(dict(zip(ids, values)))


#: the solver protocol's exit code per claim
EXIT_CODES = {"SAT": 10, "UNSAT": 20, "OPTIMUM": 30, "UNKNOWN": 0}
#: the solver protocol's ``s`` line per claim; ``write_solution`` writes
#: the ``v`` line's witness
S_LINES = {"SAT": "SATISFIABLE", "UNSAT": "UNSATISFIABLE", "OPTIMUM": "OPTIMUM FOUND", "UNKNOWN": "UNKNOWN"}
#: the claim per ``s`` line
CLAIMS = {line: claim for claim, line in S_LINES.items()}
#: the claims that carry a witness, and on a COP an objective bound
CLAIMS_WITH_BOUND = ("SAT", "OPTIMUM")


def write_solution(assignment: Assignment) -> str:
    ids = list(assignment.bindings)
    values = [assignment.bindings[v] for v in ids]
    return (
        f"<instantiation> <list> {' '.join(ids)} </list> "
        f"<values> {' '.join(str(v) for v in values)} </values> </instantiation>"
    )


# ---------------------------------------------------------------------------
# Writing


def write_instance(instance: Instance) -> str:
    """Canonical serialization. An Instance is valid by construction, so
    it is written without a check."""
    w = _Writer()
    w.open(f'<instance format="XCSP3" type="{instance.kind}">')
    w.open("<variables>")
    _write_variables(w, instance.variables)
    w.close("</variables>")
    w.open("<constraints>")
    _write_constraints(w, instance.constraints)
    w.close("</constraints>")
    if instance.objective is not None:
        w.open("<objectives>")
        _write_objective(w, instance.objective)
        w.close("</objectives>")
    if instance.decision_variables:
        w.open("<annotations>")
        w.leaf("decision", " ".join(instance.decision_variables))
        w.close("</annotations>")
    w.close("</instance>")
    return w.render()


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def open(self, text: str):
        self.lines.append("  " * self.depth + text)
        self.depth += 1

    def close(self, text: str):
        self.depth -= 1
        self.lines.append("  " * self.depth + text)

    def line(self, text: str):
        self.lines.append("  " * self.depth + text)

    def leaf(self, tag: str, text: str, attrs: str = ""):
        head = f"<{tag}{attrs}>"
        if text:
            self.line(f"{head} {text} </{tag}>")
        else:
            self.line(f"{head} </{tag}>")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _split_id(vid: str):
    m = ID_RE.fullmatch(vid)
    stem = m.group(1)
    indices = tuple(int(x) for x in _SIZE_RE.findall(m.group(2)))
    return stem, indices


def _write_variables(w: _Writer, variables):
    """A maximal run of indexed ids with one stem and rank is written as
    ``<var>``s up to the position from which the rest of the run is a full
    array in row-major order, and that rest as one ``<array>``."""
    split = [_split_id(v.id) for v in variables]
    i, n = 0, len(variables)
    while i < n:
        stem, indices = split[i]
        j = i + 1
        if indices:
            while j < n and split[j][0] == stem and len(split[j][1]) == len(indices):
                j += 1
        # the last cell of a full array fixes its dimensions, so its start
        dims = [d + 1 for d in split[j - 1][1]]
        start = j - math.prod(dims)
        if not indices or start < i or [v.id for v in variables[start:j]] != _cells(stem, dims):
            start = j
        for v in variables[i:start]:
            w.leaf("var", _compress_ints(v.domain.values), f' id="{v.id}"')
        if start < j:
            _write_array(w, stem, dims, variables[start:j])
        i = j


def _write_array(w: _Writer, stem: str, dims, cells):
    size = "".join(f"[{d}]" for d in dims)
    domains = {c.domain for c in cells}
    if len(domains) == 1:
        w.leaf("array", _compress_ints(cells[0].domain.values), f' id="{stem}" size="{size}"')
        return
    w.open(f'<array id="{stem}" size="{size}">')
    groups: dict[Domain, list[str]] = {}
    for c in cells:
        groups.setdefault(c.domain, []).append(c.id)
    for dom, ids in groups.items():
        w.leaf("domain", _compress_ints(dom.values), f' for="{" ".join(ids)}"')
    w.close("</array>")


def _write_constraints(w: _Writer, constraints) -> None:
    """Write a sequence of constraints in one walk: each maximal run of
    two or more constraints of one ``_shape`` as one ``<group>``, whose
    template is the first of them renamed (``_renamed``) and whose
    ``<args>`` are each one's ids; every other constraint as itself."""
    bodies: dict[Table, str] = {}  # table -> its rendered <supports>/<conflicts> body
    # a constraint without a shape is a run of its own: no two object() are equal
    shaped = ((c, _shape(c)) for c in constraints)
    for _, run in itertools.groupby(shaped, lambda item: item[1][0] if item[1] else object()):
        (c, shape), *rest = run
        if not rest:
            _write_constraint(w, c, bodies)
            continue
        w.open("<group>")
        _write_constraint(w, _renamed(c, shape[1]), bodies)
        for _, (_, ids) in ((c, shape), *rest):
            w.leaf("args", " ".join(ids))
        w.close("</group>")


def _write_constraint(w: _Writer, c: Constraint, bodies: dict):
    """Write one constraint; an extension's table body is rendered once
    per distinct table and kept in ``bodies``."""
    layout = _LAYOUTS.get(type(c))
    if layout is not None:
        _write_layout(w, layout, c)
    elif isinstance(c, Extension):
        w.open("<extension>")
        w.leaf("list", " ".join(c.scope))
        body = bodies.get(c.table)
        if body is None:
            body = bodies[c.table] = _table_body(c.table)
        w.leaf(c.table.polarity, body)
        w.close("</extension>")
    else:
        raise InvariantViolationError([f"cannot serialize {type(c).__name__}"])


def _table_body(table: Table) -> str:
    if table.arity == 1:
        body = _compress_ints(row[0] for row in table.rows if row[0] != STAR)
        if any(row[0] == STAR for row in table.rows):
            body = (body + " " + STAR).strip()
        return body
    return _format_tuples(table.rows)


def _shape(c):
    """``(key, ids)`` of a constraint that a ``<group>`` can write from one
    template, else None. Constraints of one key differ only in their
    distinct ids: intensions of one ``Intension.template``, or extensions
    of one table and one repeat pattern of their scope."""
    if isinstance(c, Intension):
        return (Intension, c.template), c.scope
    if isinstance(c, Extension):
        ids = tuple(dict.fromkeys(c.scope))
        return (c.table, tuple(map(ids.index, c.scope))), ids
    return None


def _renamed(c, ids):
    """``c`` with each of its ``ids`` renamed to the placeholder of its
    position, ``%0``, ``%1``, ..."""
    if isinstance(c, Intension):
        return Intension(_bind(c.expr, {v: _expr.VarRef(f"%{k}") for k, v in enumerate(ids)}))
    return Extension(tuple(f"%{ids.index(v)}" for v in c.scope), c.table)


def _write_objective(w: _Writer, obj: Objective):
    if obj.kind == "variable":
        w.leaf(obj.sense, obj.scope[0])
        return
    w.open(f'<{obj.sense} type="{obj.kind}">')
    w.leaf("list", " ".join(obj.scope))
    if obj.coeffs:
        w.leaf("coeffs", " ".join(str(k) for k in obj.coeffs))
    w.close(f"</{obj.sense}>")
