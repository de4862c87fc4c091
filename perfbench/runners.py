"""One timed pass over a workload's corpus, with its correctness checks.

Each runner drives only public functions of the kit. ``run_pass`` returns
the pass's timed seconds and one record per checked operation. Work done
only for the traced run (the layer probes), the garbage collection run
between instances, the host speed samples and checks that are not part of
a user's path (the round-trip re-write of ``load``, made in the first pass)
are excluded from the timed seconds.

Every timed stretch of work (one instance, or one whole campaign) lies
between two host speed marks, and its times are reported in reference
seconds (see ``hostspeed.py``); the wall seconds are kept beside them."""

from __future__ import annotations

import gc
import math
import os
import shlex
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from xcspkit import harness
from xcspkit.engine import DomainStore, SearchConfig, build_propagators, enumerate_all, optimize, solve
from xcspkit.engine.search import PropagationEngine
from xcspkit.generators import gen_golomb_ruler, gen_langford, gen_magic_square
from xcspkit.io import parse_instance, write_instance
from xcspkit.model import validate_instance

from corpus import file_name
from hostspeed import HostSpeed
from spans import Tracer

# Generous enough that no corpus member comes near it; a timeout shows as
# UNKNOWN and fails the correctness gate.
CONFIG = SearchConfig(time_limit=120.0)
SEARCH_SPANS = ("engine.solve", "engine.optimize", "engine.enumerate_all")
# the per-record times that are rescaled to reference seconds
SCALED = ("verdict_s", "first_bound_s", "emit_s")


@dataclass
class PassResult:
    traced: bool
    seconds: float  # reference seconds
    records: list[dict]
    tracer: Tracer
    layers: dict = field(default_factory=dict)  # counts measured outside spans
    wall_s: float = 0.0


def _record(member, **fields) -> dict:
    return {"id": member.id, "seeded": member.seeded, "ok": False, "detail": "", **fields}


def _fail(record: dict, exc: Exception) -> dict:
    record["ok"] = False
    record["detail"] = f"{type(exc).__name__}: {exc}"
    record.setdefault("fingerprint", ["ERROR"])
    return record


def _fresh_heap() -> None:
    """Collect the previous instance's garbage, so that no instance pays for
    another's collection."""
    gc.collect()


def _rescale(record: dict, scale: float) -> None:
    """Turn a record's wall times into reference seconds."""
    record["scale"] = scale
    for key in SCALED:
        if key in record:
            record[key] *= scale


def _check_verdict(mode: str, expected, status: str, bound, verified) -> str:
    """Empty when the verdict matches the reference, else why it does not."""
    if mode == "solve":
        if status != expected:
            return f"status {status}, expected {expected}"
    elif status != "OPTIMUM" or bound != expected:
        return f"{status} {bound}, expected OPTIMUM {expected}"
    if verified is not None and not verified.ok:
        return f"witness rejected: {verified}"
    if status in ("SAT", "OPTIMUM") and verified is None:
        return "no witness"
    return ""


class SearchRunner:
    """csp-search and cop-bnb: XML text -> parse -> solve/optimize/enumerate
    -> verify, one instance after another."""

    IN_PROCESS = True

    def __init__(self, members, texts, references, work: Path, speed: HostSpeed | None = None):
        self.members, self.texts, self.references = members, texts, references
        self.speed = speed or HostSpeed()

    def warm_up(self) -> None:
        for build, run in (
            (lambda: gen_langford(3), solve),
            (lambda: gen_golomb_ruler(4), optimize),
            (lambda: gen_magic_square(3), enumerate_all),
        ):
            run(parse_instance(write_instance(build())))

    def run_pass(self, tracer: Tracer) -> PassResult:
        records, wall, seconds = [], 0.0, 0.0
        layers = {"io.bytes": 0, "io.write_bytes": 0, "propagators": Counter()}
        with tracer.wrap_propagators() if tracer.enabled else nullcontext():
            for member in self.members:
                _fresh_heap()
                start = self.speed.mark()
                record, instance = self._instance(member, tracer)
                end = self.speed.mark()
                records.append(record)
                layers["io.bytes"] += len(self.texts[member.id])
                if tracer.enabled and instance is not None:
                    self._probe(member, instance, tracer, layers)
                scale = self.speed.scale(start, end)
                _rescale(record, scale)
                wall += end.at - start.at
                seconds += (end.at - start.at) * scale
        return PassResult(tracer.enabled, seconds, records, tracer, layers, wall)

    def _instance(self, member, tracer: Tracer):
        record = _record(member)
        expected = self.references[member.id]
        instance = None
        try:
            with tracer.span("instance", member.id):
                t0 = time.perf_counter()
                with tracer.span("io.parse"):
                    instance = parse_instance(self.texts[member.id])
                if member.mode == "count":
                    with tracer.span("engine.enumerate_all"):
                        result = enumerate_all(instance, config=CONFIG)
                    status = "COUNT" if result.exact else "UNKNOWN"
                    record["fingerprint"] = [status, result.count]
                    record["detail"] = "" if (result.exact and result.count == expected) else (
                        f"count {result.count} exact={result.exact}, expected {expected}")
                else:
                    first_bound = []
                    t_search = time.perf_counter()
                    if member.mode == "solve":
                        with tracer.span("engine.solve"):
                            out = solve(instance, CONFIG)
                    else:
                        def on_bound(_cost):
                            if not first_bound:
                                first_bound.append(time.perf_counter() - t_search)

                        with tracer.span("engine.optimize"):
                            out = optimize(instance, CONFIG, on_bound=on_bound)
                    verified = None
                    if out.witness is not None:
                        claimed = out.bound if member.mode == "optimize" else None
                        with tracer.span("harness.verify"):
                            verified = harness.verify(instance, out.witness, claimed)
                    stats = out.stats
                    record["fingerprint"] = [out.status, out.bound, stats.nodes, stats.failures, stats.propagations]
                    record.update(nodes=stats.nodes, failures=stats.failures,
                                  propagations=stats.propagations, search_s=stats.elapsed)
                    if first_bound:
                        record["first_bound_s"] = first_bound[0]
                    record["detail"] = _check_verdict(member.mode, expected, out.status, out.bound, verified)
                record["verdict_s"] = time.perf_counter() - t0
            record["ok"] = not record["detail"]
        except Exception as exc:  # one broken instance must not end the run
            return _fail(record, exc), None
        return record, instance

    def _probe(self, member, instance, tracer: Tracer, layers: dict) -> None:
        """Time the layers that ``solve`` runs inside itself, on the same
        instance, so that search time can be derived from them."""
        with tracer.uncounted(), tracer.span("probe", member.id):
            _emit_probe(member, tracer, layers)
            with tracer.span("model.validate"):
                validate_instance(instance)
            with tracer.span("engine.build"):
                store = DomainStore(instance.variables)
                props = build_propagators(instance, store)
            with tracer.span("engine.root_fixpoint"):
                engine = PropagationEngine(store, props)
                engine.enqueue_all()
                engine.fixpoint()
            layers["propagators"].update(type(p).__name__ for p in props)


def _emit_probe(member, tracer: Tracer, layers: dict) -> None:
    """Generate and write one member, as set-up does, inside spans."""
    with tracer.span("generators.build", member.id):
        built = member.build()
    with tracer.span("io.write"):
        layers["io.write_bytes"] += len(write_instance(built))


class LoadRunner:
    """load: generate -> write -> parse -> validate -> build propagators ->
    root fixpoint, with no search."""

    IN_PROCESS = True

    def __init__(self, members, texts, references, work: Path, speed: HostSpeed | None = None):
        self.members = members
        self.speed = speed or HostSpeed()
        self.round_trip = True

    def warm_up(self) -> None:
        instance = parse_instance(write_instance(gen_golomb_ruler(4)))
        validate_instance(instance)
        store = DomainStore(instance.variables)
        engine = PropagationEngine(store, build_propagators(instance, store))
        engine.enqueue_all()
        engine.fixpoint()

    def run_pass(self, tracer: Tracer) -> PassResult:
        records, wall, seconds = [], 0.0, 0.0
        layers = {"io.bytes": 0, "io.write_bytes": 0, "propagators": Counter()}
        with tracer.wrap_propagators() if tracer.enabled else nullcontext():
            for member in self.members:
                _fresh_heap()
                record = _record(member)
                try:
                    start = self.speed.mark()
                    with tracer.span("instance", member.id):
                        t0 = time.perf_counter()
                        with tracer.span("generators.build"):
                            instance = member.build()
                        with tracer.span("io.write"):
                            text = write_instance(instance)
                        t1 = time.perf_counter()
                        with tracer.span("io.parse"):
                            parsed = parse_instance(text)
                        with tracer.span("model.validate"):
                            violations = validate_instance(parsed)
                        with tracer.span("engine.build"):
                            store = DomainStore(parsed.variables)
                            props = build_propagators(parsed, store)
                        with tracer.span("engine.root_fixpoint"):
                            engine = PropagationEngine(store, props)
                            engine.enqueue_all()
                            conflict = engine.fixpoint()
                        t2 = time.perf_counter()
                    end = self.speed.mark()
                    # the writer is deterministic, so one round trip per run is
                    # enough; the fingerprint keeps the byte count of the others
                    rewritten = write_instance(parsed) if self.round_trip else text
                except Exception as exc:  # one broken instance must not end the run
                    records.append(_fail(record, exc))
                    continue
                layers["io.bytes"] += len(text)
                layers["io.write_bytes"] += len(text)
                layers["propagators"].update(type(p).__name__ for p in props)
                problems = []
                if violations:
                    problems.append(f"{len(violations)} validation violation(s)")
                if conflict is not None:
                    problems.append("root fixpoint inconsistent")
                if rewritten != text:
                    problems.append("write(parse(write(I))) differs from write(I)")
                domain_sum = sum(store.size(x) for x in range(len(store)))
                record.update(
                    ok=not problems,
                    detail="; ".join(problems),
                    verdict_s=t2 - t1,
                    emit_s=t1 - t0,
                    propagations=engine.propagations,
                    fingerprint=["CONSISTENT" if conflict is None else "CONFLICT", len(text),
                                 len(props), engine.propagations, domain_sum],
                )
                records.append(record)
                scale = self.speed.scale(start, end)
                _rescale(record, scale)
                wall += end.at - start.at
                seconds += (end.at - start.at) * scale
        self.round_trip = False
        return PassResult(tracer.enabled, seconds, records, tracer, layers, wall)


class CampaignRunner:
    """campaign: ``harness.run_campaign`` with the kit's own CLI as the
    external solver, then CSV write and read and the ranking."""

    SOLVER = "xcspkit"
    # its solver processes spread over the CPUs; pinning the main thread
    # would pin the worker threads it starts, and their children
    IN_PROCESS = False

    def __init__(self, members, texts, references, work: Path, speed: HostSpeed | None = None):
        self.work = work
        self.speed = speed or HostSpeed()
        self.jobs = min(2, cpu_count())
        # the solver processes import the kit from the same source tree
        src = Path(harness.__file__).resolve().parent.parent
        self.command = (f"env PYTHONPATH={shlex.quote(str(src))} {shlex.quote(sys.executable)}"
                        " -m xcspkit.cli solve {instance}")
        self.by_stem = {}
        self.senses = {}
        self.sizes = {}
        for position, member in enumerate(members):
            stem = Path(file_name(position, member)).stem
            self.by_stem[stem] = (member, references[member.id])
            self.sizes[stem] = len(texts[member.id])
            objective = parse_instance(texts[member.id]).objective
            if objective is not None:
                self.senses[stem] = objective.sense

    def warm_up(self) -> None:
        path = self.work / "warm-up" / "langford-3.xml"
        path.parent.mkdir()
        path.write_text(write_instance(gen_langford(3)))
        run = harness.run_one(str(path), self.SOLVER, self.command, 120.0)
        if run.status != "SAT":
            raise RuntimeError(f"the solver command {self.command!r} answered {run.status} on langford-3")

    def run_pass(self, tracer: Tracer) -> PassResult:
        csv_path = self.work / "campaign.csv"
        layers = {"io.write_bytes": 0}
        wrap = tracer.wrap_attributes(
            harness,
            {"run_one": "harness.run_one", "verify": "harness.verify", "parse_instance": "io.parse"},
            instance_of=lambda path: Path(path).stem,
        ) if tracer.enabled else nullcontext()
        start = self.speed.mark()
        try:
            with wrap:
                runs = harness.run_campaign(str(self.work), self.SOLVER, self.command, 120.0,
                                            jobs=self.jobs, csv_path=str(csv_path))
            with tracer.span("harness.rank"):
                ranking_problem = self._rank(csv_path)
        except Exception as exc:  # a campaign that raises loses every run of the pass
            wall = time.perf_counter() - start.at
            records = [_fail(_record(member), exc) for member, _ in self.by_stem.values()]
            return PassResult(tracer.enabled, wall, records, tracer, layers, wall)
        end = self.speed.mark()
        wall = end.at - start.at
        # the solver processes run on every CPU, not just the sampler's
        scale = self.speed.scale(start, end, shares_cpu=False)
        if tracer.enabled:
            for member, _ in self.by_stem.values():
                _emit_probe(member, tracer, layers)
        records = [self._check(run) for run in runs]
        for record in records:
            _rescale(record, scale)
        rank = {"id": "ranking", "seeded": False, "ok": not ranking_problem,
                "detail": ranking_problem, "fingerprint": ["RANKED"]}
        layers.update({
            # the harness parses an instance again only to re-verify a claim
            "io.bytes": sum(self.sizes[run.instance_id] for run in runs if run.status in ("SAT", "OPTIMUM")),
            "cli.solve_s": sum(run.elapsed for run in runs),
            "harness.invalid": sum(run.status == "INVALID" for run in runs),
        })
        return PassResult(tracer.enabled, wall * scale, records + [rank], tracer, layers, wall)

    def _check(self, run) -> dict:
        member, expected = self.by_stem[run.instance_id]
        record = _record(member, verdict_s=run.elapsed, fingerprint=[run.status, run.bound])
        # run_one has re-verified every SAT and OPTIMUM claim against the instance
        if run.status == "INVALID":
            record["detail"] = "claim failed re-verification"
        elif member.mode == "solve":
            record["detail"] = "" if run.status == expected else f"status {run.status}, expected {expected}"
        elif run.status != "OPTIMUM" or run.bound != expected:
            record["detail"] = f"{run.status} {run.bound}, expected OPTIMUM {expected}"
        record["ok"] = not record["detail"]
        return record

    def _rank(self, csv_path: Path) -> str:
        """Score the campaign from its CSV; empty when every instance ranks
        as proved for the solver and the virtual best solver."""
        runs = harness.read_records_csv(csv_path)
        problems = []
        for mode, subset in (
            ("CSP", [r for r in runs if r.instance_id not in self.senses]),
            ("COP", [r for r in runs if r.instance_id in self.senses]),
        ):
            rows, vbs = harness.score_track(subset, len(subset), mode, senses=self.senses)
            harness.render_ranking(rows, vbs, mode)
            if vbs.solved_count != len(subset) or [r.solved_count for r in rows] != [len(subset)]:
                problems.append(f"{mode} ranking proves {vbs.solved_count} of {len(subset)}")
        return "; ".join(problems)


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on; empty where that cannot be set."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def cpu_count() -> int:
    return len(allowed_cpus()) or os.cpu_count() or 1


RUNNERS = {
    "csp-search": SearchRunner,
    "cop-bnb": SearchRunner,
    "load": LoadRunner,
    "campaign": CampaignRunner,
}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0
