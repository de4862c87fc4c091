"""Expression trees for intensional constraints.

Nodes are immutable; relational and logical operators evaluate to 0/1
integers so booleans can appear inside arithmetic (e.g. ``add(b, w)`` over
0/1 terms).

``OPS`` is the one operator table: each kind's arity, value function and
interval function, so an XCSP3-core operator is added in exactly one place.
Two walks read it. The checker's ``evaluate`` interprets the tree over a
binding by name. ``compile_expr`` is the engine's one compiler: it turns the
tree into a positional closure, of values from each ``apply`` or of bounds
``(lo, hi)`` from each ``interval``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import ArityMismatchError, UnboundVariableError

Expr = Union["IntConst", "VarRef", "Op"]
Interval = tuple[int, int]

#: the one integer grammar of instance and solver text, ASCII digits only:
#: ``int`` reads other digits too, and ``isdigit`` some that ``int`` refuses
INT_RE = re.compile(r"[+-]?[0-9]+")
#: XCSP3 integers are 64-bit
INT64_MAX = 2**63 - 1
#: the deepest operator nesting ``parse_expr`` accepts; the checker, the
#: validator and the compiler all recurse over the tree
MAX_DEPTH = 100


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


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class VarRef:
    var_id: str


@dataclass(frozen=True)
class Op:
    kind: str
    children: tuple[Expr, ...]

    def __post_init__(self):
        spec = OPS.get(self.kind)
        if spec is None:
            raise ArityMismatchError(f"unknown operator {self.kind!r}")
        lo, hi = spec.min_arity, spec.max_arity
        n = len(self.children)
        if n < lo or (hi is not None and n > hi):
            raise ArityMismatchError(f"operator {self.kind!r} takes {lo}{'+' if hi is None else ''} operands, got {n}")


def op(kind: str, *children: Expr) -> Op:
    return Op(kind, tuple(children))


def var(var_id: str) -> VarRef:
    return VarRef(var_id)


def const(value: int) -> IntConst:
    return IntConst(value)


def expr_vars(expr: Expr) -> Iterator[str]:
    """Yield referenced variable ids, in depth-first order (with repeats)."""
    if isinstance(expr, VarRef):
        yield expr.var_id
    elif isinstance(expr, Op):
        for child in expr.children:
            yield from expr_vars(child)


def is_boolean(expr: Expr) -> bool:
    return isinstance(expr, Op) and OPS[expr.kind].sort != "int"


def evaluate(expr: Expr, binding: Mapping[str, int]) -> int:
    """Evaluate an expression; boolean results are 1 (true) / 0 (false)."""
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, VarRef):
        try:
            return binding[expr.var_id]
        except KeyError:
            raise UnboundVariableError(expr.var_id) from None
    return OPS[expr.kind].apply(*[evaluate(child, binding) for child in expr.children])


def compile_expr(expr: Expr, position: Mapping[str, int], *, bounds: bool) -> Callable[[Sequence], Any]:
    """Compile to a function of a sequence whose entry ``position[v]`` stands
    for variable ``v``. Without ``bounds`` the entries are values and the
    function gives the value (``OPS[kind].apply``); with ``bounds`` they are
    ``(lo, hi)`` pairs and it gives bounds that contain every value
    (``OPS[kind].interval``), a constant being ``(v, v)``. Closures are
    specialised by arity, as both run in the engine's inner loops."""
    if isinstance(expr, IntConst):
        value = (expr.value, expr.value) if bounds else expr.value
        return lambda t: value
    if isinstance(expr, VarRef):
        return operator.itemgetter(position[expr.var_id])
    spec = OPS[expr.kind]
    f = spec.interval if bounds else spec.apply
    kids = [compile_expr(child, position, bounds=bounds) for child in expr.children]
    if len(kids) == 1:
        (a,) = kids
        return lambda t: f(a(t))
    if len(kids) == 2:
        a, b = kids
        return lambda t: f(a(t), b(t))
    return lambda t: f(*[k(t) for k in kids])


def format_expr(expr: Expr) -> str:
    """Render in functional prefix syntax, e.g. ``eq(add(x,y),z)``."""
    if isinstance(expr, IntConst):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return expr.var_id
    return f"{expr.kind}({','.join(format_expr(c) for c in expr.children)})"


class ExprSyntaxError(ValueError):
    pass


def parse_expr(text: str) -> Expr:
    """Parse functional prefix syntax (the only accepted intension form)."""
    tokens = _tokenize(text)
    pos = 0

    def parse_node(depth: int) -> Expr:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprSyntaxError(f"unexpected end of expression in {text!r}")
        tok = tokens[pos]
        pos += 1
        if INT_RE.fullmatch(tok):
            value = int(tok)
            if not -INT64_MAX - 1 <= value <= INT64_MAX:
                raise ExprSyntaxError(f"{tok!r} is outside the 64-bit integers")
            return IntConst(value)
        if tok in "(),":
            raise ExprSyntaxError(f"unexpected {tok!r} in {text!r}")
        if pos < len(tokens) and tokens[pos] == "(":
            if tok not in OPS:
                raise ExprSyntaxError(f"unknown operator {tok!r} in {text!r}")
            if depth == MAX_DEPTH:
                raise ExprSyntaxError(f"operators nested deeper than {MAX_DEPTH}")
            pos += 1
            children = [parse_node(depth + 1)]
            while pos < len(tokens) and tokens[pos] == ",":
                pos += 1
                children.append(parse_node(depth + 1))
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ExprSyntaxError(f"missing ')' in {text!r}")
            pos += 1
            try:
                return Op(tok, tuple(children))
            except ArityMismatchError as exc:
                raise ExprSyntaxError(str(exc)) from None
        return VarRef(tok)

    node = parse_node(0)
    if pos != len(tokens):
        raise ExprSyntaxError(f"trailing tokens in {text!r}")
    return node


#: the first character that no token starts or continues with
_BAD_CHAR_RE = re.compile(r"[^\s(),\w\[\]-]")
#: a token: punctuation, a lone or leading ``-``, or a name or number
_TOKEN_RE = re.compile(r"[(),]|-[\w\[\]]*|[\w\[\]]+")


def _tokenize(text: str) -> list[str]:
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ExprSyntaxError(f"bad character {bad.group()!r} in {text!r}")
    return _TOKEN_RE.findall(text)
