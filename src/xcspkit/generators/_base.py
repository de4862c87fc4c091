"""Shared machinery for instance builders."""

from __future__ import annotations

from typing import Iterable, Union

from .. import expr as _x
from ..errors import BadParameterError
from ..model import Constraint, Domain, Instance, Objective, Variable

ExprLike = Union[int, str, _x.Expr]


def _e(v: ExprLike) -> _x.Expr:
    if isinstance(v, int):
        return _x.IntConst(v)
    if isinstance(v, str):
        return _x.VarRef(v)
    return v


def eq(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("eq", _e(a), _e(b))


def ne(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("ne", _e(a), _e(b))


def lt(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("lt", _e(a), _e(b))


def le(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("le", _e(a), _e(b))


def ge(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("ge", _e(a), _e(b))


def gt(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("gt", _e(a), _e(b))


def add(*xs: ExprLike) -> _x.Expr:
    return _x.op("add", *(_e(v) for v in xs))


def sub(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("sub", _e(a), _e(b))


def mul(*xs: ExprLike) -> _x.Expr:
    return _x.op("mul", *(_e(v) for v in xs))


def dist(a: ExprLike, b: ExprLike) -> _x.Expr:
    return _x.op("dist", _e(a), _e(b))


def lor(*xs: _x.Expr) -> _x.Expr:
    return _x.op("or", *xs)


def imp(a: _x.Expr, b: _x.Expr) -> _x.Expr:
    return _x.op("imp", a, b)


def iff(a: _x.Expr, b: _x.Expr) -> _x.Expr:
    return _x.op("iff", a, b)


class Builder:
    """Accumulates variables and tagged constraints for one instance.

    Constraints tagged ``sym`` (symmetry breaking) or ``red`` (redundant)
    are dropped when the corresponding tag is in ``drop_tags``.
    """

    def __init__(self, drop_tags: Iterable[str] = ()):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._drop = frozenset(drop_tags)

    def var(self, var_id: str, domain: Domain) -> str:
        self.variables.append(Variable(var_id, domain))
        return var_id

    def post(self, constraint: Constraint, *tags: str) -> None:
        if not self._drop.intersection(tags):
            self.constraints.append(constraint)

    def instance(
        self,
        objective: Objective | None = None,
        decision: Iterable[str] = (),
    ) -> Instance:
        kind = "COP" if objective is not None else "CSP"
        return Instance(kind, tuple(self.variables), tuple(self.constraints), objective, tuple(decision))


def check(cond: bool, message: str) -> None:
    if not cond:
        raise BadParameterError(message)


def absent(value) -> bool:
    """JSON null and the string "null" both mean 'not provided'."""
    return value is None or value == "null"
