"""Shared machinery for instance builders."""

from __future__ import annotations

from functools import partial
from typing import Iterable

from .. import expr as _x
from ..errors import BadParameterError
from ..model import Constraint, Domain, Instance, Objective, Variable

# the operators the generators build with: each is ``expr.op`` with its kind
# bound, so an operand may be an int, a variable id or an expression
eq, ne, lt, le, ge, gt, add, sub, mul, dist, lor, imp, iff = (
    partial(_x.op, kind) for kind in ("eq", "ne", "lt", "le", "ge", "gt", "add", "sub", "mul", "dist", "or", "imp", "iff")
)


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
