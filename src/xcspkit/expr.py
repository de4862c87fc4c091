"""Expressions and templates of intensional constraints.

An expression is a tree of plain tuples, as ``parse_expr`` reads it and
the generators build it with ``op``: an operator node is ``(kind,
*operands)``, and an operand is a node, a variable id (a ``str``) or an
integer constant (an ``int``). A template is the form the model keeps: the
expression with each variable id replaced by its position in a scope and
each constant by its ``IntConst``, so a constant never equals a position.
``scope_and_template`` is the one walk from the first to the second, and
``model.Intension.of`` the one place that runs it. Neither ``op`` nor the
walk checks anything: the model checks each distinct template once (its
operators and their arities by ``operator_error``, its nodes and its
positions), and ``parse_expr`` refuses a text by the same rule.
Relational and logical operators evaluate to 0/1 integers so booleans can
appear inside arithmetic (e.g. ``add(b, w)`` over 0/1 terms).

``OPS`` is the one operator table: each kind's arity, value function and
interval function, so an XCSP3-core operator is added in exactly one place.
Every other walk reads a template over the values (or names) of its
scope, by position. The checker's ``evaluate`` interprets it; the engine's
one compiler, ``compile_expr``, turns it into a positional closure, of
values from each ``apply`` or of bounds ``(lo, hi)`` from each
``interval``; ``format_expr`` writes it over its scope's names.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Any, Callable, NamedTuple, Sequence, Union

from .record import record

#: an expression: an operator node ``(kind, *operands)``, a variable id or an int
Expr = Union[str, int, tuple]
#: an expression over scope positions (``scope_and_template``)
Template = Union[int, "IntConst", tuple]
Interval = tuple[int, int]

#: the one integer grammar of instance and solver text, ASCII digits only:
#: ``int`` reads other digits too, and ``isdigit`` some that ``int`` refuses
INT_RE = re.compile(r"[+-]?[0-9]+")
#: the one identifier grammar, matched whole (``fullmatch``): a stem and its
#: ``[i]`` indices, ASCII digits only
ID_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)((?:\[[0-9]+\])*)")
#: a ``<group>`` or ``<slide>`` template's ``%k`` placeholder, a name that
#: ``parse_expr`` reads when asked
PLACEHOLDER_RE = re.compile(r"%([0-9]+)")
#: XCSP3 integers are 64-bit
INT64_MAX = 2**63 - 1
#: the deepest operator nesting ``parse_expr`` accepts; the checker, the
#: validator and the compiler all recurse over the template
MAX_DEPTH = 100


def int64(tok: str) -> int | None:
    """The integer ``tok`` (``INT_RE``) when it is a 64-bit one, as every
    ``io`` reader requires; None otherwise."""
    if not INT_RE.fullmatch(tok):
        return None
    value = int(tok)
    return value if -INT64_MAX - 1 <= value <= INT64_MAX else None


class OpSpec(NamedTuple):
    """``apply`` maps operand values to the value; ``interval`` maps operand
    bounds ``(lo, hi)`` to bounds that contain every value. Logical
    operators read 0 as false and every other value as true, so their
    interval functions first map each operand's bounds to truth bounds
    (``_truth_of``) and hold on integer operands too."""

    sort: str  # "int", "rel" (0/1 of integers) or "logic" (0/1 of 0/1 operands)
    min_arity: int
    max_arity: int | None  # None: unbounded
    apply: Callable[..., int]
    interval: Callable[..., Interval]


def _abs_iv(a: Interval) -> Interval:
    lo, hi = a
    if lo >= 0:
        return a
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _sub_iv(a: Interval, b: Interval) -> Interval:
    return a[0] - b[1], a[1] - b[0]


def _add_iv(*ivs: Interval) -> Interval:
    lo = hi = 0
    for klo, khi in ivs:
        lo += klo
        hi += khi
    return lo, hi


def _mul_iv(first: Interval, *rest: Interval) -> Interval:
    lo, hi = first
    for klo, khi in rest:
        products = (lo * klo, lo * khi, hi * klo, hi * khi)
        lo, hi = min(products), max(products)
    return lo, hi


def _truth(sure: bool, never: bool) -> Interval:
    """Bounds of a 0/1 value that is 1 when ``sure`` and 0 when ``never``."""
    return (1, 1) if sure else (0, 0) if never else (0, 1)


def _truth_of(a: Interval) -> Interval:
    """Truth bounds of an operand: ``(0, 0)`` is false, a box without 0 is true."""
    return _truth(a[0] > 0 or a[1] < 0, a[0] == a[1] == 0)


def _logical(interval: Callable[..., Interval]) -> Callable[..., Interval]:
    """Interval function of a logical operator, given one over truth bounds."""
    return lambda *ivs: interval(*[_truth_of(a) for a in ivs])


def _when_fixed(apply: Callable[[int, int], int]) -> Callable[[Interval, Interval], Interval]:
    """Interval of a binary operator that is known only once both operands are fixed."""
    return lambda a, b: (apply(a[0], b[0]),) * 2 if a[0] == a[1] and b[0] == b[1] else (0, 1)


def _xor(a: int, b: int) -> int:
    return int((a != 0) != (b != 0))


def _iff(a: int, b: int) -> int:
    return int((a != 0) == (b != 0))


OPS: dict[str, OpSpec] = {
    "neg": OpSpec("int", 1, 1, operator.neg, lambda a: (-a[1], -a[0])),
    "abs": OpSpec("int", 1, 1, abs, _abs_iv),
    "add": OpSpec("int", 2, None, lambda *v: sum(v), _add_iv),
    "sub": OpSpec("int", 2, 2, operator.sub, _sub_iv),
    "mul": OpSpec("int", 2, None, lambda *v: math.prod(v), _mul_iv),
    "dist": OpSpec("int", 2, 2, lambda a, b: abs(a - b), lambda a, b: _abs_iv(_sub_iv(a, b))),
    "eq": OpSpec("rel", 2, 2, lambda a, b: int(a == b),
                 lambda a, b: _truth(a[0] == a[1] == b[0] == b[1], a[1] < b[0] or b[1] < a[0])),
    "ne": OpSpec("rel", 2, 2, lambda a, b: int(a != b),
                 lambda a, b: _truth(a[1] < b[0] or b[1] < a[0], a[0] == a[1] == b[0] == b[1])),
    "lt": OpSpec("rel", 2, 2, lambda a, b: int(a < b), lambda a, b: _truth(a[1] < b[0], a[0] >= b[1])),
    "le": OpSpec("rel", 2, 2, lambda a, b: int(a <= b), lambda a, b: _truth(a[1] <= b[0], a[0] > b[1])),
    "gt": OpSpec("rel", 2, 2, lambda a, b: int(a > b), lambda a, b: _truth(a[0] > b[1], a[1] <= b[0])),
    "ge": OpSpec("rel", 2, 2, lambda a, b: int(a >= b), lambda a, b: _truth(a[0] >= b[1], a[1] < b[0])),
    "not": OpSpec("logic", 1, 1, lambda a: int(a == 0), _logical(lambda a: (1 - a[1], 1 - a[0]))),
    "and": OpSpec("logic", 2, None, lambda *v: int(all(v)),
                  _logical(lambda *ivs: _truth(all(lo == 1 for lo, _ in ivs), any(hi == 0 for _, hi in ivs)))),
    "or": OpSpec("logic", 2, None, lambda *v: int(any(v)),
                 _logical(lambda *ivs: _truth(any(lo == 1 for lo, _ in ivs), all(hi == 0 for _, hi in ivs)))),
    "xor": OpSpec("logic", 2, 2, _xor, _logical(_when_fixed(_xor))),
    "iff": OpSpec("logic", 2, 2, _iff, _logical(_when_fixed(_iff))),
    "imp": OpSpec("logic", 2, 2, lambda a, b: int(a == 0 or b != 0),
                  _logical(lambda a, b: _truth(a[1] == 0 or b[0] == 1, a[0] == 1 and b[1] == 0))),
}


@record
class IntConst:
    value: int


def operator_error(kind: str, n: int) -> str | None:
    """Why ``kind`` over ``n`` operands is no operator of ``OPS`` at its
    arity, or None when it is: the one rule of texts and of templates."""
    spec = OPS.get(kind)
    if spec is None:
        return f"unknown operator {kind!r}"
    lo, hi = spec.min_arity, spec.max_arity
    if n < lo or (hi is not None and n > hi):
        return f"operator {kind!r} takes {lo}{'+' if hi is None else ''} operands, got {n}"
    return None


def op(kind: str, *operands: Expr) -> tuple:
    """The one expression builder: the ``kind`` node over ``operands``,
    each a node, a variable id or an int constant."""
    return (kind, *operands)


def scope_and_template(expression: Expr) -> tuple[tuple[str, ...], Template]:
    """The one walk that finds an expression's variables. The scope is its
    distinct variable ids in order of first appearance; the template is
    the expression with each id replaced by its position in the scope and
    each int by its ``IntConst``, so a constant never equals a position.
    Any other leaf is kept, for the model to refuse."""
    position: dict[str, int] = {}

    def walk(e):
        if type(e) is tuple:
            return (*e[:1], *map(walk, e[1:]))
        if type(e) is str:
            return position.setdefault(e, len(position))
        return IntConst(e) if type(e) is int else e

    template = walk(expression)
    return tuple(position), template


def mentions(template: Template, i: int) -> bool:
    """Whether a template holds scope position ``i``."""
    return any(mentions(child, i) for child in template[1:]) if isinstance(template, tuple) else template == i


def evaluate(template: Template, values: Sequence[int]) -> int:
    """The value of a template whose position ``i`` holds ``values[i]``;
    boolean results are 1 (true) / 0 (false)."""
    if isinstance(template, tuple):
        return OPS[template[0]].apply(*[evaluate(child, values) for child in template[1:]])
    return values[template] if type(template) is int else template.value


def compile_expr(template: Template, *, bounds: bool) -> Callable[[Sequence], Any]:
    """Compile to a function of a sequence whose entry ``i`` stands for
    position ``i``. Without ``bounds`` the entries are values and the
    function gives the value (``OPS[kind].apply``); with ``bounds`` they are
    ``(lo, hi)`` pairs and it gives bounds that contain every value
    (``OPS[kind].interval``), a constant being ``(v, v)``. Closures are
    specialised by arity, as both run in the engine's inner loops."""
    if type(template) is int:
        return operator.itemgetter(template)
    if not isinstance(template, tuple):
        value = (template.value, template.value) if bounds else template.value
        return lambda t: value
    spec = OPS[template[0]]
    f = spec.interval if bounds else spec.apply
    kids = [compile_expr(child, bounds=bounds) for child in template[1:]]
    if len(kids) == 1:
        (a,) = kids
        return lambda t: f(a(t))
    if len(kids) == 2:
        a, b = kids
        return lambda t: f(a(t), b(t))
    return lambda t: f(*[k(t) for k in kids])


def format_expr(template: Template, names: Sequence[str]) -> str:
    """Render in functional prefix syntax over the names of the positions,
    e.g. ``eq(add(x,y),z)``."""
    if isinstance(template, tuple):
        return f"{template[0]}({','.join(format_expr(child, names) for child in template[1:])})"
    return names[template] if type(template) is int else str(template.value)


class ExprSyntaxError(ValueError):
    pass


class BadIdError(ExprSyntaxError):
    """A name of an expression that is no ``ID_RE`` id."""


def parse_expr(text: str, placeholders: bool = False) -> Expr:
    """Parse functional prefix syntax (the only accepted intension form).
    A name is a variable id (``ID_RE``), or with ``placeholders`` also a
    ``%k`` placeholder, which a ``<group>`` or ``<slide>`` template names."""
    tokens = _tokenize(text)
    pos = 0

    def parse_node(depth: int) -> Expr:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprSyntaxError(f"unexpected end of expression in {text!r}")
        tok = tokens[pos]
        pos += 1
        value = int64(tok)
        if value is not None:
            return value
        if INT_RE.fullmatch(tok):
            raise ExprSyntaxError(f"{tok!r} is outside the 64-bit integers")
        if tok in "(),":
            raise ExprSyntaxError(f"unexpected {tok!r} in {text!r}")
        if pos < len(tokens) and tokens[pos] == "(":
            if tok not in OPS:
                raise ExprSyntaxError(f"unknown operator {tok!r} in {text!r}")
            if depth == MAX_DEPTH:
                raise ExprSyntaxError(f"operators nested deeper than {MAX_DEPTH}")
            pos += 1
            node = [tok, parse_node(depth + 1)]
            while pos < len(tokens) and tokens[pos] == ",":
                pos += 1
                node.append(parse_node(depth + 1))
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ExprSyntaxError(f"missing ')' in {text!r}")
            pos += 1
            wrong = operator_error(tok, len(node) - 1)
            if wrong:
                raise ExprSyntaxError(wrong)
            return tuple(node)
        if not (ID_RE.fullmatch(tok) or placeholders and PLACEHOLDER_RE.fullmatch(tok)):
            raise BadIdError(f"bad variable id {tok!r}")
        return tok

    node = parse_node(0)
    if pos != len(tokens):
        raise ExprSyntaxError(f"trailing tokens in {text!r}")
    return node


#: the first character that no token starts or continues with: a ``%``
#: only begins the ASCII digits of a placeholder
_BAD_CHAR_RE = re.compile(r"[^\s(),\w\[\]%-]|%(?![0-9])")
#: a token: punctuation, a lone or leading ``-``, or a name or number
_TOKEN_RE = re.compile(r"[(),]|-[\w\[\]%]*|[\w\[\]%]+")


def _tokenize(text: str) -> list[str]:
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ExprSyntaxError(f"bad character {bad.group()!r} in {text!r}")
    return _TOKEN_RE.findall(text)
