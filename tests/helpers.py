"""Test-side oracle: chronological generate-and-test over the declared
variable order, checking each constraint as soon as its scope is fully
assigned. Uses only the model-core checkers, never the engine. Also the
seeded text mutator of the reader fuzz tests, and ``refusal``."""

import pytest

from xcspkit.errors import InvariantViolationError, UnboundVariableError
from xcspkit.model import Assignment, Instance, constraint_satisfied, constraint_scope, objective_value


def refusal(*fields) -> list:
    """The report of the ``InvariantViolationError`` that ``Instance(*fields)``
    raises."""
    with pytest.raises(InvariantViolationError) as err:
        Instance(*fields)
    return err.value.report


class _View:
    __slots__ = ("bindings",)

    def __init__(self, bindings):
        self.bindings = bindings

    def __getitem__(self, key):
        try:
            return self.bindings[key]
        except KeyError:
            raise UnboundVariableError(key) from None

    def __contains__(self, key):
        return key in self.bindings


def iter_solutions(instance):
    names = [v.id for v in instance.variables]
    domains = [v.domain.values for v in instance.variables]
    index = {n: i for i, n in enumerate(names)}
    checks_at = [[] for _ in names]
    constant_checks = []
    for c in instance.constraints:
        scope = constraint_scope(c)
        if scope:
            checks_at[max(index[v] for v in scope)].append(c)
        else:
            constant_checks.append(c)
    binding: dict = {}
    view = _View(binding)
    if not all(constraint_satisfied(c, view) for c in constant_checks):
        return

    def descend(k):
        if k == len(names):
            yield Assignment(dict(binding))
            return
        name = names[k]
        for value in domains[k]:
            binding[name] = value
            if all(constraint_satisfied(c, view) for c in checks_at[k]):
                yield from descend(k + 1)
        del binding[name]

    yield from descend(0)


def brute_force(instance):
    """Returns (solution_count, best_cost_or_None, one_best_witness_or_None)."""
    count, best, witness = 0, None, None
    minimize = instance.objective is not None and instance.objective.sense == "minimize"
    for a in iter_solutions(instance):
        count += 1
        if instance.objective is not None:
            cost = objective_value(instance.objective, a)
            if best is None or (cost < best if minimize else cost > best):
                best, witness = cost, a
        elif witness is None:
            witness = a
    return count, best, witness


def search_space(instance):
    size = 1
    for v in instance.variables:
        size *= len(v.domain.values)
    return size


def mutant(rng, text: str, inserts: str, runs=(1, 1, 1, 25)) -> str:
    """``text`` after one to three seeded deletions, insertions (of a
    character of ``inserts``, repeated a choice of ``runs`` times) or
    digit swaps."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        at = rng.randrange(len(text) + 1)
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        if kind == 0 and at < len(text):
            text = text[:at] + text[at + 1 :]
        elif kind == 1 or not digits:
            # a long run makes a number too wide
            text = text[:at] + rng.choice(inserts) * rng.choice(runs) + text[at:]
        else:
            at = rng.choice(digits)
            text = text[:at] + rng.choice("0123456789") + text[at + 1 :]
    return text
