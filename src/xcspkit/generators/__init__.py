"""Benchmark instance generators.

Each in-scope problem compiles a JSON payload (or scalar parameters) into a
validated :class:`~xcspkit.model.Instance`. ``build`` is the uniform entry
point used by the CLI; the ``gen_*`` functions are the direct API.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import BadParameterError, SchemaMismatchError, UnknownVariantError
from ..model import Instance
from ..record import record
from ._base import absent
from .academic import (
    gen_bibd,
    gen_coloured_queens,
    gen_dubois,
    gen_golomb_ruler,
    gen_graceful_graph,
    gen_langford,
    gen_low_autocorrelation,
    gen_magic_hexagon,
    gen_magic_square,
    gen_peacable_armies,
    gen_social_golfers,
    gen_sports_scheduling,
    gen_still_life,
)
from .structured import (
    gen_auction,
    gen_bacp,
    gen_car_sequencing,
    gen_graph_coloring,
    gen_knapsack,
    gen_mario,
    gen_mistery_shopper,
    gen_quadratic_assignment,
    gen_rcpsp,
    gen_strip_packing,
    gen_subgraph_isomorphism,
    gen_sum_coloring,
    gen_tsp,
)

__all__ = [
    "PROBLEMS",
    "Problem",
    "ProblemData",
    "build",
    "gen_auction",
    "gen_bacp",
    "gen_bibd",
    "gen_car_sequencing",
    "gen_coloured_queens",
    "gen_dubois",
    "gen_golomb_ruler",
    "gen_graceful_graph",
    "gen_graph_coloring",
    "gen_knapsack",
    "gen_langford",
    "gen_low_autocorrelation",
    "gen_magic_hexagon",
    "gen_magic_square",
    "gen_mario",
    "gen_mistery_shopper",
    "gen_peacable_armies",
    "gen_quadratic_assignment",
    "gen_rcpsp",
    "gen_social_golfers",
    "gen_sports_scheduling",
    "gen_still_life",
    "gen_strip_packing",
    "gen_subgraph_isomorphism",
    "gen_sum_coloring",
    "gen_tsp",
]


@record
class ProblemData:
    """One instance request: problem id, optional model variant, payload."""

    problem_id: str
    payload: Any
    variant: str | None = None


def _int_param(payload, key: str, problem: str) -> int:
    if isinstance(payload, dict):
        if key not in payload:
            raise SchemaMismatchError(f"{problem}: missing parameter {key!r}")
        value = payload[key]
    else:
        value = payload
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaMismatchError(f"{problem}: parameter {key!r} must be an integer")
    return value


@record
class Problem:
    """One registered family.

    ``gen`` receives the integer payload fields ``params`` in order, or the
    whole payload when ``params`` is empty, then those of the keyword
    arguments ``variant``, ``drop_tags``, ``decision_vars`` and ``clues``
    that ``options`` names; a variant or clues the request leaves out is not
    passed, so the generator's default applies. ``variants`` are the
    accepted model variants.
    """

    gen: Callable[..., Instance]
    params: tuple[str, ...] = ()
    options: tuple[str, ...] = ()
    variants: tuple[str, ...] = ()


_TAGS = ("drop_tags",)

#: problem id -> its row; the one place a family is registered
PROBLEMS = {
    "auction": Problem(gen_auction, options=("variant",), variants=("cnt", "sum")),
    "bacp": Problem(gen_bacp, options=("variant", "decision_vars"), variants=("m1", "m2")),
    "bibd": Problem(gen_bibd, ("v", "b", "r", "k", "lambda"), _TAGS),
    "car_sequencing": Problem(gen_car_sequencing, options=_TAGS),
    "coloured_queens": Problem(gen_coloured_queens, ("n",)),
    "dubois": Problem(gen_dubois, ("n",)),
    "golomb_ruler": Problem(gen_golomb_ruler, ("n",), ("decision_vars",)),
    "graceful_graph": Problem(gen_graceful_graph, ("k", "p")),
    "graph_coloring": Problem(gen_graph_coloring),
    "knapsack": Problem(gen_knapsack),
    "langford": Problem(gen_langford, ("n",)),
    "low_autocorrelation": Problem(gen_low_autocorrelation, ("n",)),
    "magic_hexagon": Problem(gen_magic_hexagon, ("n", "s"), _TAGS),
    "magic_square": Problem(gen_magic_square, ("n",), ("clues",)),
    "mario": Problem(gen_mario),
    "mistery_shopper": Problem(gen_mistery_shopper, options=_TAGS),
    "peacable_armies": Problem(gen_peacable_armies, ("n",), ("variant",), ("m1", "m2")),
    "quadratic_assignment": Problem(gen_quadratic_assignment),
    "rcpsp": Problem(gen_rcpsp),
    "social_golfers": Problem(gen_social_golfers, ("nGroups", "groupSize", "nWeeks"), _TAGS),
    "sports_scheduling": Problem(gen_sports_scheduling, ("nTeams",), _TAGS),
    "still_life": Problem(gen_still_life, ("n",), _TAGS),
    "strip_packing": Problem(gen_strip_packing),
    "subgraph_isomorphism": Problem(gen_subgraph_isomorphism, options=_TAGS),
    "sum_coloring": Problem(gen_sum_coloring),
    "travelling_salesman": Problem(gen_tsp),
}

_ALIASES = {
    "tsp": "travelling_salesman",
}


def canonical_problem_id(name: str) -> str:
    key = name.replace("-", "_").lower()
    key = _ALIASES.get(key, key)
    if key not in PROBLEMS:
        raise BadParameterError(f"unknown problem {name!r}")
    return key


def build(
    data: ProblemData,
    drop_tags=(),
    decision_vars: bool = True,
) -> Instance:
    """Compile one problem request into a validated instance.

    A payload that does not fit the family's schema is refused with
    :class:`SchemaMismatchError`, whichever field the generator tripped on.
    """
    problem_id = canonical_problem_id(data.problem_id)
    problem = PROBLEMS[problem_id]
    if data.variant is not None and data.variant not in problem.variants:
        raise UnknownVariantError(problem_id, data.variant)
    payload = data.payload
    args = [_int_param(payload, key, problem_id) for key in problem.params] or [payload]
    clues = payload.get("clues") if isinstance(payload, dict) else None
    given = {
        "variant": data.variant,
        "drop_tags": frozenset(drop_tags),
        "decision_vars": decision_vars,
        "clues": None if absent(clues) else clues,
    }
    options = {key: given[key] for key in problem.options if given[key] is not None}
    try:
        return problem.gen(*args, **options)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise SchemaMismatchError(
            f"{problem_id}: payload does not fit ({type(exc).__name__}: {exc})"
        ) from exc
