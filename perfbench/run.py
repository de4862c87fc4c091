"""xcspkit benchmark: timed passes of one workload over a corpus built by
the kit's own generators, with every verdict checked.

    python3 perfbench/run.py --workload csp-search --seed 1 --seconds 12 --trace 0

Set-up runs ``emit.py`` in a fresh interpreter three to seven times and
reports the median. Then passes run one after another until ``--seconds`` have
gone, and at least two, so that the behaviour fingerprint can be compared
across passes. With ``--trace 1`` passes alternate between untraced and
traced; per-layer metrics come from the traced passes, tracing overhead
from comparing the two kinds. End-to-end times are in reference seconds:
wall seconds scaled by the host speed sampled around them (hostspeed.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it give every metric, the per-instance
results and the environment; the full result, spans included, is written
to ``.perfbench/results/``. See perfbench/README.md."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import xcspkit  # noqa: E402

if Path(xcspkit.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"xcspkit was imported from {xcspkit.__file__}, not from {SRC}")

import corpus  # noqa: E402
import runners  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-up runs at least three times; a cheap one runs more often, up to
# seven times or two seconds, since a fresh interpreter's start-up is noisy.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 7
SETUP_BUDGET_S = 2.0
MIN_PASSES = 2
# metrics printed but not listed in BENCHMARK.json
EXTRA_UNITS = {"first_bound_geomean_s": "s", "runs_per_s": "1/s", "wall_pass_s": "s"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpus, one set-up, no warm-up (smoke check)")
    return parser.parse_args(argv)


# -- statistics


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """The highest of the usual percentiles with at least ten samples
    beyond it, as (percentile, value), or None when there are too few."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def _describe(name, samples, unit):
    tail = tail_percentile(samples)
    tail_text = f" p{tail[0]:g}={tail[1]:.6g}" if tail else " tail=n/a"
    return f"metric {name} median={_median(samples):.6g}{tail_text} n={len(samples)} {unit}"


# -- CPU placement


def _pin(cpus) -> None:
    """Keep this process, and the children it starts, on ``cpus``, so that
    the host speed samples are taken on the CPU that does the work."""
    if cpus:
        os.sched_setaffinity(0, set(cpus))


# -- set-up


def _setup(args, work: Path, speed: HostSpeed, shares_cpu: bool) -> list[float]:
    """Time ``emit.py`` in a fresh interpreter (imports, corpus build and
    instance writing), in reference seconds."""
    command = [sys.executable, str(BENCH / "emit.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--dir", str(work)]
    if args.tiny:
        command.append("--tiny")

    def enough(times):
        if args.tiny or len(times) >= SETUP_MAX_REPEATS:
            return bool(times)
        return len(times) >= SETUP_REPEATS and sum(times) >= SETUP_BUDGET_S

    times = []
    while not enough(times):
        shutil.rmtree(work, ignore_errors=True)
        start = speed.mark()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(command, check=True)
        end = speed.mark()
        times.append((end.at - start.at) * speed.scale(start, end, shares_cpu))
    return times


# -- metrics


def _span_totals(tracer: Tracer) -> dict:
    duration = {}
    for span in tracer.spans:
        duration[span.name] = duration.get(span.name, 0.0) + span.duration
    return duration


def _derived_search(tracer: Tracer):
    """Per instance, search = solve - validate - build - root fixpoint, and
    search self time = solve minus its propagator calls - validate - build;
    each summed over the instances that ran a search."""
    per = {}
    for span in tracer.spans:
        per.setdefault(span.instance, {}).setdefault(span.name, []).append(span)
    search = search_self = 0.0
    for spans in per.values():
        solved = [s for name in runners.SEARCH_SPANS for s in spans.get(name, ())]
        if not solved:
            continue
        probes = {name: sum(s.duration for s in spans.get(name, ()))
                  for name in ("model.validate", "engine.build", "engine.root_fixpoint")}
        search += sum(s.duration for s in solved) - sum(probes.values())
        search_self += sum(s.self_s for s in solved) - probes["model.validate"] - probes["engine.build"]
    return search, search_self


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _engine_counts(records):
    nodes = sum(r.get("nodes", 0) for r in records)
    failures = sum(r.get("failures", 0) for r in records)
    propagations = sum(r.get("propagations", 0) for r in records)
    search_s = sum(r.get("search_s", 0.0) for r in records)
    return {
        "engine.nodes": nodes,
        "engine.failures": failures,
        "engine.propagations": propagations,
        "engine.failure_ratio": _ratio(failures, nodes),
        "engine.props_per_node": _ratio(propagations, nodes),
        "engine.propagations_per_s": _ratio(propagations, search_s),
        "engine.nodes_per_s": _ratio(nodes, search_s),
    }


def _layer_metrics(result) -> dict:
    """Per-layer metrics of one traced pass."""
    tracer, layers = result.tracer, result.layers
    duration = _span_totals(tracer)
    search, search_self = _derived_search(tracer)
    write_s, parse_s = duration.get("io.write", 0.0), duration.get("io.parse", 0.0)
    mib = 1024 * 1024
    first_bounds = [r["first_bound_s"] for r in result.records if "first_bound_s" in r]
    metrics = {
        "generators.build_s": duration.get("generators.build", 0.0),
        "io.write_s": write_s,
        "io.write_MiBps": _ratio(layers.get("io.write_bytes", 0) / mib, write_s),
        "io.parse_s": parse_s,
        "io.parse_MiBps": _ratio(layers.get("io.bytes", 0) / mib, parse_s),
        "io.bytes": layers.get("io.bytes", 0),
        "model.validate_s": duration.get("model.validate", 0.0),
        "engine.build_s": duration.get("engine.build", 0.0),
        "engine.root_fixpoint_s": duration.get("engine.root_fixpoint", 0.0),
        "engine.search_s": search,
        "engine.search_self_s": search_self,
        "engine.first_bound_s": runners.geomean(first_bounds),
        "harness.verify_s": duration.get("harness.verify", 0.0),
        "harness.run_one_s": duration.get("harness.run_one", 0.0),
        "cli.solve_s": layers.get("cli.solve_s", 0.0),
        "harness.reverify_s": duration.get("harness.run_one", 0.0) - layers.get("cli.solve_s", 0.0)
        if "harness.run_one" in duration else 0.0,
        "harness.invalid": layers.get("harness.invalid", 0),
        "harness.rank_s": duration.get("harness.rank", 0.0),
        "trace.spans": len(tracer.spans),
    }
    for name, count in layers.get("propagators", {}).items():
        metrics[f"engine.propagators.{name}"] = count
    for name, stats in tracer.props.items():
        metrics[f"engine.prop.{name}.calls"] = stats.calls
        metrics[f"engine.prop.{name}.fails"] = stats.fails
        metrics[f"engine.prop.{name}.self_s"] = stats.seconds
    return metrics


def _fingerprint_mismatches(passes) -> list[str]:
    seen, mismatched = {}, []
    for result in passes:
        for record in result.records:
            first = seen.setdefault(record["id"], record["fingerprint"])
            if record["fingerprint"] != first and record["id"] not in mismatched:
                mismatched.append(record["id"])
    return mismatched


def summarize(passes, setup_times, speed: HostSpeed):
    """All metrics of a run: end-to-end ones from the untraced passes,
    per-layer ones from the traced passes (medians over passes)."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    pass_s = [p.seconds for p in plain]
    # Seeded members change with the seed, so the per-instance figure is
    # taken over the parametric members, which are the same in every run:
    # the geometric mean of each one's median over the passes.
    per_instance = {}
    for p in plain:
        for r in p.records:
            if not r["seeded"] and "verdict_s" in r:
                per_instance.setdefault(r["id"], []).append(r["verdict_s"])
    metrics = {
        "setup_s": _median(setup_times),
        "pass_s": _median(pass_s),
        "verdict_geomean_s": runners.geomean(_median(v) for v in per_instance.values()),
        "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_pass_s": _median([p.wall_s for p in plain]),
        "host.slowdown": speed.slowdown(),
    }
    extra = {
        "verdict_s": [r["verdict_s"] for p in plain for r in p.records if "verdict_s" in r],
        "first_bound_s": [r["first_bound_s"] for p in plain for r in p.records if "first_bound_s" in r],
        "emit_s": [sum(r.get("emit_s", 0.0) for r in p.records) for p in plain],
        "load_s": [sum(r["verdict_s"] for r in p.records if "emit_s" in r) for p in plain],
    }
    metrics["first_bound_geomean_s"] = _median(
        [runners.geomean(r["first_bound_s"] for r in p.records if "first_bound_s" in r) for p in plain])
    metrics["runs_per_s"] = _median([_ratio(sum("verdict_s" in r for r in p.records), p.seconds) for p in plain])
    # counts are exact from SearchStats; rates come from the untraced passes
    engine = [_engine_counts(p.records) for p in plain]
    for name in engine[0]:
        metrics[name] = _median([e[name] for e in engine])
    if traced:
        per_pass = [_layer_metrics(p) for p in traced]
        for name in sorted({k for m in per_pass for k in m}):
            metrics[name] = _median([m.get(name, 0) for m in per_pass])
        traced_s = _median([p.seconds for p in traced])
        metrics["trace.overhead_pct"] = 100 * (traced_s / metrics["pass_s"] - 1)
    return metrics, pass_s, extra


# -- environment


def git_commit(root: Path) -> str:
    """The commit of a git checkout, read from .git without running git;
    'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, n_passes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": n_passes,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": runners.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


# -- main


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cpus = runners.allowed_cpus()
    runner_class = runners.RUNNERS[args.workload]
    speed = HostSpeed(rotate_over=None if runner_class.IN_PROCESS else cpus)
    try:
        # In-process work and its set-up stay on one CPU, with the sampling
        # thread (started after this, it inherits the mask); campaign's
        # solver processes use every CPU.
        if runner_class.IN_PROCESS:
            _pin(cpus[-1:])
        with speed:
            setup_times = _setup(args, work, speed, runner_class.IN_PROCESS)
            members = corpus.members(args.workload, args.seed, args.tiny)
            texts = {m.id: (work / corpus.file_name(i, m)).read_text() for i, m in enumerate(members)}
            references = {m.id: m.reference() for m in members}
            runner = runner_class(members, texts, references, work, speed)
            if not args.tiny:
                runner.warm_up()
            passes = []
            deadline = time.perf_counter() + args.seconds
            while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
                traced = bool(args.trace) and len(passes) % 2 == 1
                passes.append(runner.run_pass(Tracer(traced)))
    finally:
        _pin(cpus)
        shutil.rmtree(work, ignore_errors=True)

    metrics, pass_s, extra = summarize(passes, setup_times, speed)
    mismatched = _fingerprint_mismatches(passes)
    attempted = sum(len(p.records) for p in passes)
    failures = [(i, r) for i, p in enumerate(passes) for r in p.records if not r["ok"]]
    failed = len(failures) + len(mismatched)
    env = environment(args, len(passes))

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(_describe("setup_s", setup_times, "s"))
    print(_describe("pass_s", pass_s, "s"))
    for name, samples in extra.items():
        if any(samples):
            print(_describe(name, samples, "s"))
    print(f"metric failed_ratio value={_ratio(failed, attempted):.6g} failed={failed} attempted={attempted}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        print(f"value {name} {metrics[name]:.6g} {units.get(name, EXTRA_UNITS.get(name, ''))}")
    for record in passes[0].records:
        print(f"instance {record['id']} ok={record['ok']} fingerprint={record['fingerprint']}")
    for index, record in failures:
        print(f"FAILED pass {index} {record['id']}: {record['detail']}")
    for instance_id in mismatched:
        print(f"FAILED {instance_id}: fingerprint differs between passes")

    out_dir.joinpath("results").mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "env": env,
        "metrics": metrics,
        "setup_s": setup_times,
        "host_speed_samples": speed.samples,
        "passes": [{"traced": p.traced, "seconds": p.seconds, "wall_s": p.wall_s, "records": p.records}
                   for p in passes],
        "spans": [dict(s.as_dict(), run_pass=i) for i, p in enumerate(passes) for s in p.tracer.spans],
    }, indent=1, default=str))

    if args.trace:
        # a layer the workload does not exercise reads 0
        selected = {m["name"]: (metrics.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    else:
        selected = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in selected.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
