"""Depth-first search with 2-way branching, dom/wdeg ordering and
branch-and-bound optimization."""

from __future__ import annotations

import time
from collections import deque

from ..errors import BadParameterError, InvalidInstanceError
from ..model import (
    Assignment,
    Condition,
    Constraint,
    Count,
    Instance,
    Objective,
    Sum,
    objective_value,
)
from ..record import record
from .domains import DomainStore
from .propagators import Propagator, make_propagators


@record(frozen=False)
class SearchStats:
    nodes: int = 0
    failures: int = 0
    propagations: int = 0
    skipped: int = 0  # dequeued calls that could not prune, so were not made
    elapsed: float = 0.0


# the states of an engine slot
_IDLE, _CLEAN, _DIRTY = 0, 1, 2


@record
class SearchConfig:
    time_limit: float = 2400.0  # seconds; inf is no limit

    def __post_init__(self):
        # not `<= 0`: NaN compares false with everything, so it would pass
        # and no deadline would ever be reached
        if not self.time_limit > 0:
            raise BadParameterError(f"time limit must be positive, got {self.time_limit}")


@record(frozen=False)
class SolveOutcome:
    status: str  # SAT | UNSAT | OPTIMUM | UNKNOWN
    witness: Assignment | None
    bound: int | None
    stats: SearchStats


@record
class EnumerationResult:
    count: int
    exact: bool
    witness: Assignment | None = None  # the first solution found


class PropagationEngine:
    """Constraint-oriented propagation queue over stateless propagators.

    A slot is idle, queued clean or queued dirty. Each watch is a
    ``(slot, bits)`` pair in ``watchers[x]``: ``bits`` is the slot's
    ``value_watch`` for ``x``, or -1 (every bit) when the slot watches any
    change of ``x``. Each removal the store logs, a ``(variable, removed
    bits)`` event, walks the watchers of its variable once, in order: a
    dirty slot is left alone, an idle one is queued, and the slot is made
    dirty when the removed bits meet its watched bits, else left clean. So
    the queue order depends on the events alone, and a slot is dirty only
    when an event removed a value it can use. After the call of an
    ``idempotent`` propagator, the prunes of that call leave its own slot
    clean. A clean slot is skipped at dequeue, counted in ``skipped`` and
    not in ``propagations``. Skipping instead of not queuing keeps the
    order: a slot queued clean that a later event makes dirty runs where it
    would have run anyway, so a skipped call is exactly one that would have
    pruned nothing. This holds when every idle slot is at its fixpoint, so
    the first ``fixpoint`` follows ``enqueue_all``.

    ``wdeg[x]`` is the weighted degree of variable ``x``: the number of
    slots watching it plus their failures (Boussemart, Hemery, Lecoutre and
    Sais, "Boosting systematic search by weighting constraints", ECAI
    2004)."""

    def __init__(self, store: DomainStore, props: list[Propagator]):
        self.store = store
        self.props = props
        # a slot's watched variables and value watch are fixed here, also
        # when _post_bound later replaces the slot's propagator
        self.watched = [tuple(set(p.scope)) for p in props]
        self.watchers: list[list[tuple[int, int]]] = [[] for _ in range(len(store))]
        self.wdeg = [0] * len(store)
        for i, p in enumerate(props):
            value_watch = p.value_watch or {}
            for x in self.watched[i]:
                self.watchers[x].append((i, value_watch.get(x, -1)))
                self.wdeg[x] += 1
        self.queue: deque[int] = deque()
        self.state = [_IDLE] * len(props)
        self.propagations = 0
        self.skipped = 0

    def enqueue(self, i: int) -> None:
        if self.state[i] == _IDLE:
            self.queue.append(i)
        self.state[i] = _DIRTY

    def enqueue_all(self) -> None:
        for i in range(len(self.props)):
            self.enqueue(i)

    def fixpoint(self):
        """Run to fixpoint; returns the failing propagator or None."""
        store, props, watchers = self.store, self.props, self.watchers
        state = self.state  # 0, 1, 2: _IDLE, _CLEAN, _DIRTY, as literals in this loop
        queue = self.queue
        push, pop = queue.append, queue.popleft
        touched = store.touched
        calls = skipped = 0
        own = -1  # the slot of the last call when it is idempotent
        while True:
            if touched:
                for x, removed in touched:
                    for i, bits in watchers[x]:
                        if state[i] != 2:
                            if not state[i]:
                                push(i)
                            state[i] = 2 if removed & bits else 1
                touched.clear()
                if own >= 0 and state[own] == 2:
                    state[own] = 1
            if not queue:
                self.propagations += calls
                self.skipped += skipped
                return None
            i = pop()
            if state[i] == 1:
                state[i] = 0
                skipped += 1
                continue
            state[i] = 0
            calls += 1
            prop = props[i]
            if not prop.propagate(store):
                wdeg = self.wdeg
                for x in self.watched[i]:
                    wdeg[x] += 1
                touched.clear()
                for j in queue:
                    state[j] = 0
                queue.clear()
                self.propagations += calls
                self.skipped += skipped
                return prop
            own = i if prop.idempotent else -1


def propagate_to_fixpoint(store: DomainStore, constraints):
    """Standalone fixpoint over raw constraints; returns the index of the
    conflicting constraint, or None when consistent."""
    props = make_propagators(constraints, store)
    engine = PropagationEngine(store, props)
    engine.enqueue_all()
    failing = engine.fixpoint()
    return None if failing is None else failing.key


def _improving(objective: Objective, best: int, values) -> Constraint:
    """The constraint that the objective strictly beats ``best``; ``values``
    holds every value the objective's variables can take."""
    scope = objective.scope
    minimize = objective.sense == "minimize"
    if objective.kind == "maximum":
        if minimize:
            return Count(scope, tuple(sorted(v for v in values if v >= best)), Condition("eq", 0))
        return Count(scope, tuple(sorted(v for v in values if v > best)), Condition("ge", 1))
    return Sum(scope, objective.weights, Condition("lt" if minimize else "gt", best))


class _Search:
    def __init__(self, instance: Instance, config: SearchConfig, mode: str, cap=None, on_bound=None):
        self.instance = instance
        self.config = config
        self.mode = mode  # sat | count | optimize
        self.cap = cap
        self.on_bound = on_bound
        self.store = store = DomainStore(instance.variables)
        props = make_propagators(instance.constraints, store)
        if mode == "optimize":
            # the improving bound owns the last slot (see _post_bound); before
            # the first solution it holds a count that always holds
            always = Count(instance.objective.scope, (), Condition("ge", 0))
            props += make_propagators([always], store)
            self.objective_values = {v for x in props[-1].scope for v in store.init_values[x]}
        self.engine = PropagationEngine(store, props)
        self.decision_idx = store.indices(instance.decision_variables)
        self.stats = SearchStats()

    # -- heuristics

    def _pick_from(self, pool):
        """dom/wdeg: the unassigned variable of least domain size over
        weighted degree, the first one on ties."""
        masks, wdeg = self.store.masks, self.engine.wdeg
        best, best_size, best_w = None, 0, 1
        for x in pool:
            m = masks[x]
            if m and not m & (m - 1):
                continue
            w = wdeg[x] or 1
            size = m.bit_count()
            if best is None or size * best_w < best_size * w:
                best, best_size, best_w = x, size, w
        return best

    def _select_var(self):
        if self.decision_idx:
            x = self._pick_from(self.decision_idx)
            if x is not None:
                return x
        return self._pick_from(range(len(self.store)))

    def _post_bound(self, best: int) -> None:
        """Replace the last slot by a propagator of the improving constraint
        and queue it."""
        engine = self.engine
        c = _improving(self.instance.objective, best, self.objective_values)
        engine.props[-1] = make_propagators([c], self.store)[0]
        engine.enqueue(len(engine.props) - 1)

    def _witness(self) -> Assignment:
        store = self.store
        return Assignment({store.names[i]: store.value(i) for i in range(len(store))})

    # -- main loop

    def run(self):
        t0 = time.perf_counter()
        deadline = t0 + self.config.time_limit
        store, engine, stats = self.store, self.engine, self.stats
        mode = self.mode
        count = 0
        best: int | None = None
        witness: Assignment | None = None  # sat: the solution; optimize: the incumbent; count: the first

        def finish(exhausted):
            """The one exit; ``exhausted`` is true when the whole space was searched."""
            stats.propagations = engine.propagations
            stats.skipped = engine.skipped
            stats.elapsed = time.perf_counter() - t0
            if mode == "count":
                return EnumerationResult(count, exhausted, witness)
            if witness is None:
                return SolveOutcome("UNSAT" if exhausted else "UNKNOWN", None, None, stats)
            return SolveOutcome("OPTIMUM" if exhausted else "SAT", witness, best, stats)

        engine.enqueue_all()
        if engine.fixpoint() is not None:
            return finish(True)

        frames: list[tuple[int, int]] = []
        backtracking = False

        while True:
            if time.perf_counter() > deadline:
                return finish(False)

            if not backtracking:
                x = self._select_var()
                if x is None:
                    # every variable is assigned: a solution
                    if mode == "sat":
                        witness = self._witness()
                        return finish(False)
                    if mode == "count":
                        count += 1
                        if witness is None:
                            witness = self._witness()
                        if self.cap is not None and count >= self.cap:
                            return finish(False)
                    else:
                        witness = self._witness()
                        best = objective_value(self.instance.objective, witness)
                        self._post_bound(best)
                        if self.on_bound is not None:
                            self.on_bound(best)
                    backtracking = True
                    continue
                v = store.min_value(x)
                frames.append((x, v))
                store.push()
                stats.nodes += 1
                store.assign(x, v)
                conflict = engine.fixpoint()
                if conflict is not None:
                    stats.failures += 1
                    backtracking = True
                continue

            # backtracking
            if not frames:
                return finish(True)

            x, v = frames.pop()
            store.pop()
            # x had two or more values when it was chosen, so this cannot wipe it out
            store.remove_value(x, v)
            conflict = engine.fixpoint()
            if conflict is None:
                backtracking = False
            else:
                stats.failures += 1


def _require_kind(instance: Instance, kind: str):
    if instance.kind != kind:
        raise InvalidInstanceError(f"expected a {kind} instance, got {instance.kind}")


def solve(instance: Instance, config: SearchConfig | None = None) -> SolveOutcome:
    """Find one solution of a CSP or prove there is none. The instance is
    valid by construction, so only its kind is checked."""
    _require_kind(instance, "CSP")
    return _Search(instance, config or SearchConfig(), "sat").run()


def optimize(instance: Instance, config: SearchConfig | None = None, on_bound=None) -> SolveOutcome:
    """Branch-and-bound: OPTIMUM on exhaustion, SAT with the best bound on
    timeout, UNSAT when no solution exists. Improving bounds stream to
    ``on_bound``. The instance is valid by construction, so only its kind
    is checked."""
    _require_kind(instance, "COP")
    return _Search(instance, config or SearchConfig(), "optimize", on_bound=on_bound).run()


def enumerate_all(instance: Instance, cap: int = 10**9, config: SearchConfig | None = None) -> EnumerationResult:
    """Count distinct solutions, stopping at ``cap``. The instance is valid
    by construction, so only its kind is checked."""
    _require_kind(instance, "CSP")
    return _Search(instance, config or SearchConfig(), "count", cap=cap).run()
