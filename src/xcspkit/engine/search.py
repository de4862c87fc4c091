"""Depth-first search with 2-way branching, dom/wdeg ordering, optional
geometric restarts, and branch-and-bound optimization."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..errors import InvalidInstanceError
from ..model import (
    Assignment,
    Condition,
    Constraint,
    Count,
    Instance,
    Objective,
    Sum,
    objective_value,
    validate_instance,
)
from .domains import DomainStore
from .propagators import Propagator, build_propagators, make_propagators


@dataclass
class SearchStats:
    nodes: int = 0
    failures: int = 0
    propagations: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class SearchConfig:
    time_limit: float = 2400.0
    restarts: bool = False
    var_heuristic: str = "dom-wdeg"  # dom-wdeg | lex

    def __post_init__(self):
        if self.time_limit <= 0:
            raise InvalidInstanceError("time limit must be positive")
        if self.var_heuristic not in ("dom-wdeg", "lex"):
            raise InvalidInstanceError(f"unknown variable heuristic {self.var_heuristic!r}")


@dataclass
class SolveOutcome:
    status: str  # SAT | UNSAT | OPTIMUM | UNKNOWN
    witness: Assignment | None
    bound: int | None
    stats: SearchStats


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    exact: bool
    witness: Assignment | None = None  # the first solution found


class PropagationEngine:
    """Constraint-oriented propagation queue over stateless propagators."""

    def __init__(self, store: DomainStore, props: list[Propagator]):
        self.store = store
        self.props = props
        self.watchers: list[list[int]] = [[] for _ in range(len(store))]
        for i, p in enumerate(props):
            for x in set(p.scope):
                self.watchers[x].append(i)
        self.queue: deque[int] = deque()
        self.in_queue = [False] * len(props)
        self.propagations = 0

    def enqueue(self, i: int) -> None:
        if not self.in_queue[i]:
            self.in_queue[i] = True
            self.queue.append(i)

    def enqueue_all(self) -> None:
        for i in range(len(self.props)):
            self.enqueue(i)

    def _drain_touched(self) -> None:
        for x in self.store.drain_touched():
            for i in self.watchers[x]:
                self.enqueue(i)

    def fixpoint(self):
        """Run to fixpoint; returns the failing propagator or None."""
        self._drain_touched()
        while self.queue:
            i = self.queue.popleft()
            self.in_queue[i] = False
            self.propagations += 1
            if not self.props[i].propagate(self.store):
                self.props[i].weight += 1
                self.store.drain_touched()
                while self.queue:
                    j = self.queue.pop()
                    self.in_queue[j] = False
                return self.props[i]
            self._drain_touched()
        return None


def propagate_to_fixpoint(store: DomainStore, constraints):
    """Standalone fixpoint over raw constraints; returns the index of the
    conflicting constraint, or None when consistent."""
    props = make_propagators(constraints, store)
    engine = PropagationEngine(store, props)
    engine.enqueue_all()
    failing = engine.fixpoint()
    return None if failing is None else failing.key


class _NoBound(Propagator):
    """The objective bound's slot before the first solution: it watches the
    objective's variables and prunes nothing."""

    __slots__ = ()

    def propagate(self, store: DomainStore) -> bool:
        return True


def _improving(objective: Objective, best: int, values) -> Constraint:
    """The constraint that the objective strictly beats ``best``; ``values``
    holds every value the objective's variables can take."""
    scope = objective.scope
    minimize = objective.sense == "minimize"
    if objective.kind == "maximum":
        if minimize:
            return Count(scope, tuple(sorted(v for v in values if v >= best)), Condition("eq", 0))
        return Count(scope, tuple(sorted(v for v in values if v > best)), Condition("ge", 1))
    coeffs = objective.coeffs if objective.kind == "sum" and objective.coeffs else (1,) * len(scope)
    return Sum(scope, coeffs, Condition("lt" if minimize else "gt", best))


class _Search:
    def __init__(self, instance: Instance, config: SearchConfig, mode: str, cap=None, on_bound=None):
        self.instance = instance
        self.config = config
        self.mode = mode  # sat | count | optimize
        self.cap = cap
        self.on_bound = on_bound
        self.store = store = DomainStore(instance.variables)
        name_to_idx = {n: i for i, n in enumerate(store.names)}
        props = build_propagators(instance, store)
        if mode == "optimize":
            # the improving bound owns the last slot; see _post_bound
            scope = tuple(name_to_idx[v] for v in instance.objective.scope)
            self.objective_values = {v for x in scope for v in store.init_values[x]}
            props.append(_NoBound(scope, -1))
        self.engine = PropagationEngine(store, props)
        self.decision_idx = tuple(name_to_idx[v] for v in instance.decision_variables)
        self.stats = SearchStats()

    # -- heuristics

    def _pick_from(self, pool):
        store = self.store
        if self.config.var_heuristic == "lex":
            for x in pool:
                if not store.is_assigned(x):
                    return x
            return None
        best, best_size, best_w = None, 0, 1
        for x in pool:
            if store.is_assigned(x):
                continue
            w = 0
            for i in self.engine.watchers[x]:
                w += self.engine.props[i].weight
            w = w or 1
            size = store.size(x)
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
        """Replace the last slot by a propagator of the improving constraint,
        keeping the slot's weight, and queue it."""
        engine = self.engine
        c = _improving(self.instance.objective, best, self.objective_values)
        prop = make_propagators([c], self.store)[0]
        prop.weight = engine.props[-1].weight
        engine.props[-1] = prop
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
        restarts_on = self.config.restarts and mode != "count"
        fail_budget = 100
        fails_since_restart = 0
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
                    fails_since_restart += 1
                    backtracking = True
                continue

            # backtracking
            if restarts_on and fails_since_restart >= fail_budget and frames:
                for _ in range(len(frames)):
                    store.pop()
                frames.clear()
                fails_since_restart = 0
                fail_budget = int(fail_budget * 3 // 2)
                if mode == "optimize":
                    engine.enqueue(len(engine.props) - 1)
                conflict = engine.fixpoint()
                if conflict is None:
                    backtracking = False
                    continue
                # root became inconsistent under the improved bound
                frames.clear()

            if not frames:
                return finish(True)

            x, v = frames.pop()
            store.pop()
            if store.remove_value(x, v):
                conflict = engine.fixpoint()
                if conflict is None:
                    backtracking = False
                else:
                    stats.failures += 1
                    fails_since_restart += 1
            else:
                stats.failures += 1
                fails_since_restart += 1


def _require_valid(instance: Instance, kind: str):
    if instance.kind != kind:
        raise InvalidInstanceError(f"expected a {kind} instance, got {instance.kind}")
    report = validate_instance(instance)
    if report:
        raise InvalidInstanceError("; ".join(str(v) for v in report))


def solve(instance: Instance, config: SearchConfig | None = None) -> SolveOutcome:
    """Find one solution of a CSP or prove there is none."""
    _require_valid(instance, "CSP")
    return _Search(instance, config or SearchConfig(), "sat").run()


def optimize(instance: Instance, config: SearchConfig | None = None, on_bound=None) -> SolveOutcome:
    """Branch-and-bound: OPTIMUM on exhaustion, SAT with the best bound on
    timeout, UNSAT when no solution exists. Improving bounds stream to
    ``on_bound``."""
    _require_valid(instance, "COP")
    return _Search(instance, config or SearchConfig(), "optimize", on_bound=on_bound).run()


def enumerate_all(instance: Instance, cap: int = 10**9, config: SearchConfig | None = None) -> EnumerationResult:
    """Count distinct solutions, stopping at ``cap``."""
    _require_valid(instance, "CSP")
    return _Search(instance, config or SearchConfig(), "count", cap=cap).run()
