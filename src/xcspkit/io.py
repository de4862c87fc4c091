"""XCSP3 subset parsing and canonical serialization.

The writer emits one fixed form (declaration order, ``a..b`` run
compression, lexicographically sorted tuples, 2-space indentation); the
parser accepts that form plus ordinary whitespace variation, ``<group>``
and ``<block>`` wrappers, and compact ``<slide>`` templates.

``_LAYOUTS`` is the one description of each constraint element's XML
layout: its tag, its children in canonical order with how each reads and
formats, and how they map to the model dataclass. The reader and the
writer are walks over it, so a constraint element is added in one place.
Only ``intension``, ``extension`` and ``slide`` are explicit cases.
"""

from __future__ import annotations

import math
import re
import xml.parsers.expat
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple, Union

from . import expr as _expr
from .errors import (
    InvariantViolationError,
    LengthMismatchError,
    SourceLocation,
    UnknownVariableError,
    UnsupportedFeatureError,
    XmlSyntaxError,
)
from .model import (
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
    Table,
    Variable,
    constraint_scope,
    validate_instance,
)

_INT_RE = re.compile(r"^[+-]?\d+$")
_RANGE_RE = re.compile(r"^([+-]?\d+)\.\.([+-]?\d+)$")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_SIZE_RE = re.compile(r"\[(\d+)\]")
_VAR_SPLIT_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)((?:\[\d+\])*)$")


# ---------------------------------------------------------------------------
# Location-aware XML layer


@dataclass
class _Node:
    tag: str
    attrib: dict[str, str]
    loc: SourceLocation
    children: list["_Node"] = field(default_factory=list)
    text_parts: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join("".join(self.text_parts).split())

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

    def loc() -> SourceLocation:
        return SourceLocation(parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def start(tag, attrs):
        node = _Node(tag, dict(attrs), loc())
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag):
        stack.pop()

    def chardata(data):
        if stack:
            stack[-1].text_parts.append(data)

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
    if len(root) != 1:
        raise XmlSyntaxError("expected exactly one root element", SourceLocation(1, 1))
    return root[0]


# ---------------------------------------------------------------------------
# Token helpers


def _parse_ints(text: str, loc: SourceLocation) -> list[int]:
    out: list[int] = []
    for tok in text.split():
        m = _RANGE_RE.match(tok)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise XmlSyntaxError(f"inverted range {tok!r}", loc)
            out.extend(range(lo, hi + 1))
        elif _INT_RE.match(tok):
            out.append(int(tok))
        else:
            raise XmlSyntaxError(f"expected integer or range, got {tok!r}", loc)
    return out


def _parse_var_list(text: str, known: set[str], loc: SourceLocation) -> list[str]:
    out = []
    for tok in text.split():
        if not _VAR_SPLIT_RE.match(tok):
            raise XmlSyntaxError(f"bad variable id {tok!r}", loc)
        if tok not in known:
            raise UnknownVariableError(tok, loc)
        out.append(tok)
    return out


def _parse_tuples(text: str, loc: SourceLocation) -> list[tuple]:
    stripped = _TUPLE_RE.sub("", text).strip()
    if stripped:
        raise XmlSyntaxError(f"stray content {stripped!r} in tuple list", loc)
    rows = []
    for m in _TUPLE_RE.finditer(text):
        entries = []
        for part in m.group(1).split(","):
            part = part.strip()
            if part == STAR:
                entries.append(STAR)
            elif _INT_RE.match(part):
                entries.append(int(part))
            else:
                raise XmlSyntaxError(f"bad tuple entry {part!r}", loc)
        rows.append(tuple(entries))
    return rows


def _bounds(tok: str, loc: SourceLocation) -> tuple[int, int]:
    """Inclusive bounds of ``a..b`` or of ``a``."""
    m = _RANGE_RE.match(tok)
    if m:
        return int(m.group(1)), int(m.group(2))
    if _INT_RE.match(tok):
        return int(tok), int(tok)
    raise XmlSyntaxError(f"expected integer or range, got {tok!r}", loc)


def _known_id(tok: str, known: set[str], loc: SourceLocation) -> str:
    if tok not in known:
        raise UnknownVariableError(tok, loc)
    return tok


def _term(tok: str, known: set[str], loc: SourceLocation) -> Union[int, str]:
    """An integer or a declared variable id."""
    if _INT_RE.match(tok):
        return int(tok)
    if not _VAR_SPLIT_RE.match(tok):
        raise XmlSyntaxError(f"bad token {tok!r}", loc)
    return _known_id(tok, known, loc)


def _parse_condition(text: str, known: set[str], loc: SourceLocation) -> Condition:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise XmlSyntaxError(f"bad condition {text!r}", loc)
    parts = [p.strip() for p in body[1:-1].split(",")]
    if len(parts) != 2:
        raise XmlSyntaxError(f"bad condition {text!r}", loc)
    op, rhs_text = parts
    if op not in ("lt", "le", "ge", "gt", "eq", "ne", "in"):
        raise XmlSyntaxError(f"bad condition operator {op!r}", loc)
    m = _RANGE_RE.match(rhs_text)
    return Condition(op, (int(m.group(1)), int(m.group(2))) if m else _term(rhs_text, known, loc))


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

    read: Callable[[_Node, set[str]], Any]  # (child, declared ids) -> value
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
    back; both default to the dataclass fields in order. ``pack`` raises
    ``ValueError`` for values that do not fit together. An ``inline`` layout
    has one child, written as the element's own text and read from it when
    the element has no children."""

    tag: str
    children: tuple[_Child, ...]
    pack: Callable[..., Constraint] | None = None
    unpack: Callable[[Constraint], tuple] | None = None
    inline: bool = False


def _tuple_list(read_entry):
    """Reader of ``(a,b)(c,d)`` text; ``read_entry(parts, node, known)`` reads
    the stripped parts of one tuple."""

    def read(node: _Node, known: set[str]) -> tuple:
        text = node.text
        stray = _TUPLE_RE.sub("", text).strip()
        if stray:
            raise XmlSyntaxError(f"stray content {stray!r} in <{node.tag}>", node.loc)
        return tuple(
            read_entry([p.strip() for p in m.group(1).split(",")], node, known) for m in _TUPLE_RE.finditer(text)
        )

    return read


def _transition(parts, node, known):
    if len(parts) != 3 or not _INT_RE.match(parts[1]):
        raise XmlSyntaxError(f"bad transition ({','.join(parts)})", node.loc)
    return parts[0], int(parts[1]), parts[2]


def _pair(parts, node, known):
    if len(parts) != 2:
        raise XmlSyntaxError(f"expected (x,y) pairs, got ({','.join(parts)})", node.loc)
    return tuple(_term(p, known, node.loc) for p in parts)


def _origin(parts, node, known):
    row = _pair(parts, node, known)
    if any(isinstance(e, int) for e in row):
        raise XmlSyntaxError("noOverlap origins must be variables", node.loc)
    return row


def _read_limit(node: _Node, known: set[str]) -> int:
    cond = _parse_condition(node.text, known, node.loc)
    if cond.operator != "le" or not isinstance(cond.rhs, int):
        raise UnsupportedFeatureError("cumulative condition other than (le,k)", node.loc)
    return cond.rhs


def _instantiation(scope, values) -> Instantiation:
    if len(values) != len(scope):
        raise ValueError("instantiation list/values length mismatch")
    return Instantiation(scope, values)


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


_VARS = _Codec(lambda n, known: tuple(_parse_var_list(n.text, known, n.loc)), " ".join)
_INTS = _Codec(lambda n, known: tuple(_parse_ints(n.text, n.loc)), _format_ints)
_TERMS = _Codec(lambda n, known: tuple(_term(t, known, n.loc) for t in n.text.split()), _format_ints)
_WORD = _Codec(lambda n, known: n.text, str)
_WORDS = _Codec(lambda n, known: tuple(n.text.split()), " ".join)
_ID = _Codec(lambda n, known: _known_id(n.text, known, n.loc), str)
_INT_OR_ID = _Codec(lambda n, known: int(n.text) if _INT_RE.match(n.text) else _ID.read(n, known), str)
_CONDITION = _Codec(lambda n, known: _parse_condition(n.text, known, n.loc), _format_condition)
_LIMIT = _Codec(_read_limit, lambda limit: f"(le,{limit})")
_OCCURS = _Codec(
    lambda n, known: tuple(_bounds(tok, n.loc) for tok in n.text.split()),
    lambda occurs: " ".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in occurs),
)
_CLOSED_INTS = _Codec(
    lambda n, known: (_INTS.read(n, known), n.attrib.get("closed", "false") == "true"),
    lambda values: _format_ints(values[0]),
    lambda values: f' closed="{"true" if values[1] else "false"}"',
)
_MATRIX = _Codec(_tuple_list(lambda parts, n, known: tuple(_known_id(p, known, n.loc) for p in parts)), _format_tuples)
_TRANSITIONS = _Codec(_tuple_list(_transition), _format_tuples)
_ORIGINS = _Codec(_tuple_list(_origin), _format_tuples)
_PAIRS = _Codec(_tuple_list(_pair), _format_tuples)

_LAYOUTS: dict[type, _Layout] = {
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
    Element: _Layout("element", (_Child("list", _VARS), _Child("index", _ID), _Child("value", _INT_OR_ID))),
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
    Instantiation: _Layout("instantiation", (_Child("list", _VARS), _Child("values", _INTS)), _instantiation),
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


def _read_layout(node: _Node, known: set[str]) -> Constraint:
    candidates = _BY_TAG[node.tag]
    present = {child.tag for child in node.children}
    cls, layout = next((entry for entry in candidates if entry[1].children[0].tag in present), candidates[0])
    groups = _group_children(node, {spec.tag: spec.most for spec in layout.children})
    if layout.inline and not node.children:
        groups[layout.children[0].tag] = [node]
    values = []
    for spec in layout.children:
        nodes = groups[spec.tag]
        if len(nodes) < spec.least:
            raise XmlSyntaxError(f"<{node.tag}> needs {spec.least} <{spec.tag}>, got {len(nodes)}", node.loc)
        reads = tuple(spec.codec.read(n, known) for n in nodes)
        values.append(reads if spec.most != 1 else reads[0] if reads else None)
    try:
        return (layout.pack or cls)(*values)
    except ValueError as exc:
        raise XmlSyntaxError(str(exc), node.loc) from None


def _write_layout(w: _Writer, layout: _Layout, c: Constraint) -> None:
    values = layout.unpack(c) if layout.unpack else [getattr(c, f.name) for f in fields(c)]
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
    """Parse an XCSP3 document into a validated Instance."""
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
    known = {v.id for v in variables}

    constraints: list[Constraint] = []
    ctrs_node = root.child("constraints")
    if ctrs_node is not None:
        for child in ctrs_node.children:
            constraints.extend(_parse_constraint_item(child, known))

    objective = None
    obj_node = root.child("objectives")
    if obj_node is not None:
        objective = _parse_objective(obj_node, known)

    decision: tuple[str, ...] = ()
    ann_node = root.child("annotations")
    if ann_node is not None:
        dec = ann_node.child("decision")
        if dec is not None:
            decision = tuple(_parse_var_list(dec.text, known, dec.loc))

    instance = Instance(kind, tuple(variables), tuple(constraints), objective, decision)
    report = validate_instance(instance)
    if report:
        raise InvariantViolationError(report)
    return instance


def _parse_variables(node: _Node) -> list[Variable]:
    out: list[Variable] = []
    for child in node.children:
        if child.tag == "var":
            vid = child.attrib.get("id")
            if not vid:
                raise XmlSyntaxError("<var> without id", child.loc)
            out.append(Variable(vid, Domain(tuple(sorted(set(_parse_ints(child.text, child.loc)))))))
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


def _parse_array(node: _Node) -> list[Variable]:
    vid = node.attrib.get("id")
    size = node.attrib.get("size")
    if not vid or not size:
        raise XmlSyntaxError("<array> needs id and size", node.loc)
    dims = [int(m.group(1)) for m in _SIZE_RE.finditer(size)]
    if not dims or _SIZE_RE.sub("", size).strip():
        raise XmlSyntaxError(f"bad array size {size!r}", node.loc)
    cells = _cells(vid, dims)
    dom_nodes = node.all("domain")
    if not dom_nodes:
        dom = Domain(tuple(sorted(set(_parse_ints(node.text, node.loc)))))
        return [Variable(c, dom) for c in cells]
    known = set(cells)
    per_cell: dict[str, Domain] = {}
    for dn in dom_nodes:
        targets = dn.attrib.get("for", "").split()
        dom = Domain(tuple(sorted(set(_parse_ints(dn.text, dn.loc)))))
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
    """Clone a template element, replacing %k placeholders in text."""

    def sub_text(t: str) -> str:
        if "%..." in t:
            raise UnsupportedFeatureError("group remaining-args placeholder '%...'", node.loc)

        def repl(m):
            k = int(m.group(1))
            if k >= len(args):
                raise XmlSyntaxError(f"placeholder %{k} without argument", node.loc)
            return args[k]

        return re.sub(r"%(\d+)", repl, t)

    clone = _Node(node.tag, dict(node.attrib), node.loc)
    clone.text_parts = [sub_text(t) for t in node.text_parts]
    clone.children = [_substitute(c, args) for c in node.children]
    return clone


def _parse_constraint_item(node: _Node, known: set[str]) -> list[Constraint]:
    if node.tag == "block":
        out = []
        for child in node.children:
            out.extend(_parse_constraint_item(child, known))
        return out
    if node.tag == "group":
        template = None
        args_nodes = []
        for child in node.children:
            if child.tag == "args":
                args_nodes.append(child)
            elif template is None:
                template = child
            else:
                raise XmlSyntaxError("group with two templates", child.loc)
        if template is None:
            raise XmlSyntaxError("group without template", node.loc)
        out = []
        for an in args_nodes:
            out.extend(_parse_constraint_item(_substitute(template, an.text.split()), known))
        return out
    return [_parse_constraint(node, known)]


def _require(node: _Node, tag: str) -> _Node:
    child = node.child(tag)
    if child is None:
        raise XmlSyntaxError(f"<{node.tag}> missing <{tag}>", node.loc)
    return child


_EXTENSION_CHILDREN = {"list": 1, "supports": 1, "conflicts": 1}


def _parse_constraint(node: _Node, known: set[str]) -> Constraint:
    tag = node.tag
    if tag == "intension":
        try:
            expression = _expr.parse_expr(node.text)
        except _expr.ExprSyntaxError as exc:
            raise UnsupportedFeatureError(f"intension form ({exc})", node.loc) from None
        for vid in _expr.expr_vars(expression):
            if vid not in known:
                raise UnknownVariableError(vid, node.loc)
        return Intension(expression)

    if tag == "extension":
        groups = _group_children(node, _EXTENSION_CHILDREN)
        if not groups["list"]:
            raise XmlSyntaxError("<extension> missing <list>", node.loc)
        lst = groups["list"][0]
        scope = _parse_var_list(lst.text, known, lst.loc)
        bodies = groups["supports"] + groups["conflicts"]
        if len(bodies) != 1:
            raise XmlSyntaxError("<extension> needs exactly one of <supports>/<conflicts>", node.loc)
        body = bodies[0]
        if len(scope) == 1:
            rows = []
            for tok in body.text.split():
                if tok == STAR:
                    rows.append((STAR,))
                else:
                    lo, hi = _bounds(tok, body.loc)
                    rows.extend((v,) for v in range(lo, hi + 1))
        else:
            rows = _parse_tuples(body.text, body.loc)
            for row in rows:
                if len(row) != len(scope):
                    raise XmlSyntaxError(f"tuple {row} does not match arity {len(scope)}", body.loc)
        return Extension(tuple(scope), Table(len(scope), body.tag, tuple(rows)))

    if tag == "slide":
        lst = _require(node, "list")
        scope = _parse_var_list(lst.text, known, lst.loc)
        template = None
        for child in node.children:
            if child is not lst:
                if template is not None:
                    raise XmlSyntaxError("slide with two templates", child.loc)
                template = child
        if template is None:
            raise XmlSyntaxError("slide without template constraint", node.loc)
        arity = _template_arity(template)
        if arity < 1 or arity > len(scope):
            raise XmlSyntaxError("slide template arity does not fit list", node.loc)
        windows = []
        for i in range(len(scope) - arity + 1):
            windows.append(_parse_constraint(_substitute(template, scope[i : i + arity]), known))
        return Slide(tuple(windows))

    if tag in _BY_TAG:
        return _read_layout(node, known)
    raise UnsupportedFeatureError(tag, node.loc)


def _template_arity(node: _Node) -> int:
    best = -1
    for part in node.text_parts:
        for m in re.finditer(r"%(\d+)", part):
            best = max(best, int(m.group(1)))
    for child in node.children:
        best = max(best, _template_arity(child) - 1)
    return best + 1


def _parse_objective(node: _Node, known: set[str]) -> Objective:
    bodies = [c for c in node.children if c.tag in ("minimize", "maximize")]
    if len(bodies) != 1:
        raise XmlSyntaxError("<objectives> must hold exactly one minimize/maximize", node.loc)
    body = bodies[0]
    sense = body.tag
    otype = body.attrib.get("type")
    if otype is None:
        vid = body.text
        if vid not in known:
            raise UnknownVariableError(vid, body.loc)
        return Objective(sense, "variable", (vid,))
    if otype not in ("sum", "maximum"):
        raise UnsupportedFeatureError(f"objective type {otype!r}", body.loc)
    lst = _require(body, "list")
    scope = tuple(_parse_var_list(lst.text, known, lst.loc))
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
        if not _VAR_SPLIT_RE.match(vid):
            raise XmlSyntaxError(f"bad variable id {vid!r}", lst.loc)
        if vid in seen:
            raise XmlSyntaxError(f"variable {vid!r} listed twice", lst.loc)
        seen.add(vid)
    values = []
    for tok in values_node.text.split():
        if tok == STAR:
            raise UnsupportedFeatureError("wildcard value in solution", values_node.loc)
        if not _INT_RE.match(tok):
            raise XmlSyntaxError(f"bad value {tok!r}", values_node.loc)
        values.append(int(tok))
    if len(ids) != len(values):
        raise LengthMismatchError(f"{len(ids)} variables but {len(values)} values")
    return Assignment(dict(zip(ids, values)))


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
    """Canonical serialization; requires a valid instance."""
    report = validate_instance(instance)
    if report:
        raise InvariantViolationError(report)
    w = _Writer()
    w.open(f'<instance format="XCSP3" type="{instance.kind}">')
    w.open("<variables>")
    _write_variables(w, instance.variables)
    w.close("</variables>")
    w.open("<constraints>")
    for c in instance.constraints:
        _write_constraint(w, c)
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
    m = _VAR_SPLIT_RE.match(vid)
    stem = m.group(1)
    indices = tuple(int(x) for x in re.findall(r"\[(\d+)\]", m.group(2)))
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


def _write_constraint(w: _Writer, c: Constraint):
    layout = _LAYOUTS.get(type(c))
    if layout is not None:
        _write_layout(w, layout, c)
    elif isinstance(c, Intension):
        w.leaf("intension", _expr.format_expr(c.expr))
    elif isinstance(c, Extension):
        w.open("<extension>")
        w.leaf("list", " ".join(c.scope))
        if c.table.arity == 1:
            ints = [row[0] for row in c.table.rows if row[0] != STAR]
            body = _compress_ints(ints)
            if any(row[0] == STAR for row in c.table.rows):
                body = (body + " " + STAR).strip()
        else:
            body = _format_tuples(c.table.rows)
        w.leaf(c.table.polarity, body)
        w.close("</extension>")
    elif isinstance(c, Slide):
        _write_slide(w, c)
    else:
        raise InvariantViolationError([f"cannot serialize {type(c).__name__}"])


def _write_slide(w: _Writer, c: Slide):
    """Write the windows' one template over the sliding list, or fail if the
    windows are not one template slid by offset 1."""
    if not c.windows:
        raise InvariantViolationError(["slide with no windows"])
    scopes = [constraint_scope(win) for win in c.windows]
    arity = len(scopes[0])
    if arity < 1:
        raise InvariantViolationError(["slide window with empty scope"])
    seq = list(scopes[0])
    for s in scopes[1:]:
        overlap = tuple(seq[len(seq) - arity + 1 :]) if arity > 1 else ()
        if len(s) != arity or s[:-1] != overlap:
            raise InvariantViolationError(["slide windows do not slide by offset 1"])
        seq.append(s[-1])
    templates = {_slide_template(win, scope) for win, scope in zip(c.windows, scopes)}
    if len(templates) != 1:
        raise InvariantViolationError(["slide windows differ beyond their scope"])
    w.open("<slide>")
    w.leaf("list", " ".join(seq))
    _write_constraint(w, templates.pop())
    w.close("</slide>")


def _slide_template(win: Constraint, scope) -> Constraint:
    """``win`` with its variables renamed to the placeholders ``%0``, ``%1``, ..."""
    mapping = {v: f"%{k}" for k, v in enumerate(scope)}
    if isinstance(win, Extension):
        return Extension(tuple(mapping[v] for v in win.scope), win.table)
    if isinstance(win, Intension):
        return Intension(_rename_expr(win.expr, mapping))
    raise InvariantViolationError([f"slide over {type(win).__name__} windows is not serializable"])


def _rename_expr(e, mapping):
    if isinstance(e, _expr.VarRef):
        return _expr.VarRef(mapping.get(e.var_id, e.var_id))
    if isinstance(e, _expr.Op):
        return _expr.Op(e.kind, tuple(_rename_expr(ch, mapping) for ch in e.children))
    return e


def _write_objective(w: _Writer, obj: Objective):
    if obj.kind == "variable":
        w.leaf(obj.sense, obj.scope[0])
        return
    w.open(f'<{obj.sense} type="{obj.kind}">')
    w.leaf("list", " ".join(obj.scope))
    if obj.coeffs:
        w.leaf("coeffs", " ".join(str(k) for k in obj.coeffs))
    w.close(f"</{obj.sense}>")
