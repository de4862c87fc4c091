"""Depth-first search with 2-way branching, dom/wdeg ordering, optional
geometric restarts, and branch-and-bound optimization."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..errors import InvalidInstanceError
from ..model import Assignment, Instance, Objective, objective_value, validate_instance
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
    val_heuristic: str = "min"  # min | max

    def __post_init__(self):
        if self.time_limit <= 0:
            raise InvalidInstanceError("time limit must be positive")
        if self.var_heuristic not in ("dom-wdeg", "lex"):
            raise InvalidInstanceError(f"unknown variable heuristic {self.var_heuristic!r}")
        if self.val_heuristic not in ("min", "max"):
            raise InvalidInstanceError(f"unknown value heuristic {self.val_heuristic!r}")


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


class _ObjectiveBound(Propagator):
    """Dynamic strict-improvement bound posted after each solution."""

    __slots__ = ("objective", "coeffs", "minimize", "best")

    def __init__(self, objective: Objective, name_to_idx):
        scope = tuple(name_to_idx[v] for v in objective.scope)
        super().__init__(scope, -1)
        self.objective = objective
        coeffs = objective.coeffs if objective.coeffs else (1,) * len(scope)
        self.coeffs = coeffs
        self.minimize = objective.sense == "minimize"
        self.best: int | None = None

    def propagate(self, store: DomainStore) -> bool:
        if self.best is None:
            return True
        bound = self.best - 1 if self.minimize else self.best + 1
        kind = self.objective.kind
        if kind == "variable":
            x = self.scope[0]
            keep = [v for v in store.values(x) if (v <= bound if self.minimize else v >= bound)]
            return bool(keep) and store.keep_values(x, keep)
        if kind == "sum":
            bounds = [
                (k * lo, k * hi) if k >= 0 else (k * hi, k * lo)
                for k, (lo, hi) in ((k, store.bounds(x)) for k, x in zip(self.coeffs, self.scope))
            ]
            total_lo = sum(b[0] for b in bounds)
            total_hi = sum(b[1] for b in bounds)
            if self.minimize:
                if total_lo > bound:
                    return False
            elif total_hi < bound:
                return False
            for (blo, bhi), k, x in zip(bounds, self.coeffs, self.scope):
                if k == 0:
                    continue
                if self.minimize:
                    allowed_hi = bound - (total_lo - blo)
                    for v in store.domain_list(x):
                        if k * v > allowed_hi and not store.remove_value(x, v):
                            return False
                else:
                    allowed_lo = bound - (total_hi - bhi)
                    for v in store.domain_list(x):
                        if k * v < allowed_lo and not store.remove_value(x, v):
                            return False
            return True
        # maximum
        if self.minimize:
            for x in self.scope:
                if store.max_value(x) > bound:
                    keep = [v for v in store.values(x) if v <= bound]
                    if not keep or not store.keep_values(x, keep):
                        return False
            return True
        candidates = [x for x in self.scope if store.max_value(x) >= bound]
        if not candidates:
            return False
        if len(candidates) == 1:
            x = candidates[0]
            keep = [v for v in store.values(x) if v >= bound]
            if not store.keep_values(x, keep):
                return False
        return True


class _Search:
    def __init__(self, instance: Instance, config: SearchConfig, mode: str, cap=None, on_bound=None):
        self.instance = instance
        self.config = config
        self.mode = mode  # sat | count | optimize
        self.cap = cap
        self.on_bound = on_bound
        self.store = DomainStore(instance.variables)
        props = build_propagators(instance, self.store)
        self.bound_prop: _ObjectiveBound | None = None
        if mode == "optimize":
            name_to_idx = {n: i for i, n in enumerate(self.store.names)}
            self.bound_prop = _ObjectiveBound(instance.objective, name_to_idx)
            props.append(self.bound_prop)
        self.engine = PropagationEngine(self.store, props)
        name_to_idx = {n: i for i, n in enumerate(self.store.names)}
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

    def _select_value(self, x):
        if self.config.val_heuristic == "max":
            return self.store.max_value(x)
        return self.store.min_value(x)

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
                        self.bound_prop.best = best
                        if self.on_bound is not None:
                            self.on_bound(best)
                        engine.enqueue(len(engine.props) - 1)
                    backtracking = True
                    continue
                v = self._select_value(x)
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
                if self.bound_prop is not None:
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
