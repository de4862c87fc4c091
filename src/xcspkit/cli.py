"""Command-line entry point: solve, generate, verify, rank.

Exit codes follow the competition convention on ``solve``: 10 SAT,
20 UNSAT, 30 OPTIMUM, 0 UNKNOWN, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# A competition starts the solver afresh for every instance, so ``solve``
# loads only the parser, the model and the engine: ``generate`` imports the
# generators, and ``verify`` and ``rank`` the harness, when they run.
from .engine import SearchConfig, enumerate_all, optimize, solve
from .errors import BadParameterError, XcspError
from .expr import int64
from .io import CLAIMS_WITH_BOUND, EXIT_CODES, S_LINES, parse_instance, parse_solution, write_instance, write_solution


def _build_parser(problems=None) -> argparse.ArgumentParser:
    """The parser; ``generate``'s help lists ``problems`` when given."""
    parser = argparse.ArgumentParser(prog="xcspkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an XCSP3 instance")
    p_solve.add_argument("instance", help="instance XML file")
    p_solve.add_argument("--timeout", type=float, default=2400.0, help="wall-clock limit in seconds")
    p_solve.add_argument("--all", action="store_true", help="count all solutions (CSP only)")

    p_gen = sub.add_parser("generate", help="generate a benchmark instance")
    p_gen.add_argument("problem", help=f"one of: {', '.join(sorted(problems))}" if problems else "a problem id")
    p_gen.add_argument("--data", help="JSON data file")
    p_gen.add_argument("--param", action="append", default=[], metavar="K=V", help="scalar parameter")
    p_gen.add_argument("--variant", help="model variant where the problem has several")
    p_gen.add_argument("--no-tags", default="", metavar="TAGS", help="drop tagged blocks, e.g. sym,red")
    p_gen.add_argument("--nodv", action="store_true", help="omit the decision-variable annotation")
    p_gen.add_argument("-o", "--output", help="output file (stdout when absent)")

    p_verify = sub.add_parser("verify", help="verify a claimed solution")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution", help="instantiation fragment XML file")
    p_verify.add_argument("--bound", help="claimed objective value of a COP, a 64-bit integer")

    p_rank = sub.add_parser("rank", help="score a results CSV")
    p_rank.add_argument("results", help="CSV produced by a campaign")
    p_rank.add_argument("--mode", choices=("csp", "cop"), required=True)
    p_rank.add_argument("--n-instances", help="track size: at least the number of distinct instances, which is the default")
    p_rank.add_argument("--format", choices=("text", "csv"), default="text")
    p_rank.add_argument("--by-best", action="store_true", help="rank by best-known bounds (fast COP)")
    return parser


def _cmd_solve(args) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    config = SearchConfig(time_limit=args.timeout)
    print(f"c instance {args.instance}: {len(instance.variables)} variables, "
          f"{len(instance.constraints)} constraints, kind {instance.kind}")
    if args.all:
        if instance.kind != "CSP":
            print("error: --all applies to CSP instances only", file=sys.stderr)
            return 2
        result = enumerate_all(instance, config=config)
        print(f"c {result.count} solution(s), exact={result.exact}")
        status = "SAT" if result.witness is not None else "UNSAT" if result.exact else "UNKNOWN"
        return _report(status, result.witness)
    if instance.kind == "CSP":
        out = solve(instance, config)
    else:
        out = optimize(instance, config, on_bound=lambda cost: print(f"o {cost}", flush=True))
    print(
        f"c nodes {out.stats.nodes}, failures {out.stats.failures}, "
        f"propagations {out.stats.propagations}, skipped {out.stats.skipped}, elapsed {out.stats.elapsed:.3f}s"
    )
    # a COP's SAT means it timed out with an incumbent
    return _report(out.status, out.witness)


def _report(status: str, witness) -> int:
    """Print the ``s`` line, then the witness of a SAT/OPTIMUM claim."""
    print(f"s {S_LINES[status]}")
    if witness is not None and status in CLAIMS_WITH_BOUND:
        print(f"v {write_solution(witness)}")
    return EXIT_CODES[status]


def _int_option(name: str, text: str) -> int:
    """``text`` read as an integer of ``io``'s grammar (``expr.INT_RE``,
    within int64)."""
    value = int64(text)
    if value is None:
        raise BadParameterError(f"{name} must be a 64-bit integer, got {text!r}")
    return value


def _parse_params(pairs) -> dict:
    payload = {}
    for pair in pairs:
        if "=" not in pair:
            raise XcspError(f"bad --param {pair!r}, expected K=V")
        key, _, value = pair.partition("=")
        payload[key] = _int_option(f"--param {key}", value)
    return payload


def _cmd_generate(args) -> int:
    import json

    from .generators import ProblemData, build, canonical_problem_id

    problem = canonical_problem_id(args.problem)
    params = _parse_params(args.param)
    try:
        payload = json.loads(Path(args.data).read_text()) if args.data else {}
    except json.JSONDecodeError as exc:
        raise XcspError(str(exc)) from None
    if isinstance(payload, dict):
        payload.update(params)
    elif params:
        raise XcspError("--param applies only to a JSON object payload")
    drop = tuple(t for t in args.no_tags.split(",") if t)
    data = ProblemData(problem, payload, args.variant)
    instance = build(data, drop_tags=drop, decision_vars=not args.nodv)
    text = write_instance(instance)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .harness import verify

    bound = None if args.bound is None else _int_option("--bound", args.bound)
    instance = parse_instance(Path(args.instance).read_text())
    result = verify(instance, parse_solution(Path(args.solution).read_text()), bound)
    print(str(result))
    return 0 if result.ok else 1


def _cmd_rank(args) -> int:
    from .harness import read_records_csv, render_ranking, score_track

    records = read_records_csv(args.results)
    mode = args.mode.upper()
    senses = {r.instance_id: r.sense for r in records if r.sense}
    if mode == "COP":
        # which of two bounds is best depends on the sense: never guess it
        bounds: dict[str, set[int]] = {}
        for r in records:
            if r.status in CLAIMS_WITH_BOUND and r.bound is not None:
                bounds.setdefault(r.instance_id, set()).add(r.bound)
        unknown = sorted(i for i, found in bounds.items() if len(found) > 1 and i not in senses)
        if unknown:
            raise XcspError(f"no objective sense recorded for {', '.join(unknown)}, whose bounds differ")
    n_instances = len({r.instance_id for r in records})
    if args.n_instances is not None:
        track = _int_option("--n-instances", args.n_instances)
        least = max(n_instances, 1)
        if track < least:
            raise BadParameterError(
                f"--n-instances {track} is below {least}, the least track size"
                f" for the {n_instances} distinct instances in {args.results}"
            )
        n_instances = track
    rows, vbs = score_track(records, n_instances, mode, rank_by_best=args.by_best, senses=senses)
    sys.stdout.write(render_ranking(rows, vbs, mode, fmt=args.format, rank_by_best=args.by_best))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    problems = None
    if argv[:1] == ["generate"]:
        from .generators import PROBLEMS as problems
    args = _build_parser(problems).parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "rank": _cmd_rank,
    }
    try:
        return handlers[args.command](args)
    except (XcspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
