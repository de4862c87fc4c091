"""Solution verification, solve campaigns, and competition-style scoring.

Scoring reproduces the published ranking arithmetic: a solver's score is
the number of instances it *proves* (SAT/UNSAT for CSP, optimality for
COP), percentages are integer round-half-up against the instance count and
the virtual best solver, and COP tables also carry the best-known-bound
tally."""

from __future__ import annotations

import csv
import math
import os
import re
import shlex
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import (
    BadParameterError,
    DuplicateRecordError,
    NotAnOptimizationInstanceError,
    ProtocolViolationError,
    SchemaMismatchError,
    SpawnFailureError,
    UnknownModeError,
    XcspError,
)
from .expr import int64
from .io import CLAIMS, CLAIMS_WITH_BOUND, EXIT_CODES, S_LINES, parse_instance, parse_solution
from .model import Assignment, Instance, assignment_cost, constraint_satisfied
from .record import record

PROVED_CSP = ("SAT", "UNSAT")


@record
class RunRecord:
    instance_id: str
    solver_id: str
    status: str
    bound: int | None
    elapsed: float
    sense: str = ""  # the instance's objective sense, when a claim was verified against a COP


@record
class VerifyResult:
    ok: bool
    code: str  # VALID | Incomplete | OutOfDomain | ConstraintViolated | CostMismatch
    detail: str = ""

    def __str__(self) -> str:
        return "VALID" if self.ok else f"{self.code}: {self.detail}"


def verify(instance: Instance, assignment: Assignment, claimed_bound: int | None = None) -> VerifyResult:
    """Ground-truth check of a claimed solution; reports the first failure.
    A bound claimed on a CSP, which has no objective to hold it to, is
    refused before any check (``NotAnOptimizationInstanceError``)."""
    if claimed_bound is not None and instance.kind != "COP":
        raise NotAnOptimizationInstanceError("a claimed bound applies to COP instances only")
    bindings = assignment.bindings
    for v in instance.variables:
        if v.id not in bindings:
            return VerifyResult(False, "Incomplete", f"variable {v.id!r} is unbound")
        if bindings[v.id] not in v.domain:
            return VerifyResult(False, "OutOfDomain", f"variable {v.id!r} = {bindings[v.id]} outside its domain")
    for idx, c in enumerate(instance.constraints):
        if not constraint_satisfied(c, assignment):
            return VerifyResult(False, "ConstraintViolated", f"constraint {idx} is violated")
    if claimed_bound is not None:
        cost = assignment_cost(instance, assignment)
        if cost != claimed_bound:
            return VerifyResult(False, "CostMismatch", f"objective is {cost}, claimed {claimed_bound}")
    return VerifyResult(True, "VALID")


# ---------------------------------------------------------------------------
# Scoring


@record
class RankingRow:
    solver_id: str
    solved_count: int
    sat_count: int | None = None
    unsat_count: int | None = None
    best_known_count: int | None = None
    pct_instances: int = 0
    pct_vbs: int = 0


def _pct(numerator: int, denominator: int) -> int:
    """Integer percentage, round half up."""
    if denominator <= 0:
        return 0
    return (200 * numerator + denominator) // (2 * denominator)


def _scorer(senses: dict[str, str]):
    """The one rule of which of two bounds is better: the function of a
    record to its bound's score under its instance's sense (minimize when
    absent), lower being better."""
    return lambda r: -r.bound if senses.get(r.instance_id) == "maximize" else r.bound


def _ties_best(r: RunRecord, best: dict[str, RunRecord]) -> bool:
    return r.status in CLAIMS_WITH_BOUND and r.bound is not None and r.bound == best[r.instance_id].bound


def _demote_contradictions(records: list[RunRecord], senses: dict[str, str]) -> list[RunRecord]:
    """The records, with each claim that another record contradicts made
    INVALID. SAT and OPTIMUM claims carry verified witnesses, so an UNSAT
    claim on their instance is false. An OPTIMUM and a verified bound
    strictly better than it under the instance's sense (minimize when
    absent) contradict each other, and both are demoted."""
    score = _scorer(senses)
    witnessed: set[str] = set()
    best: dict[str, int] = {}  # per instance, the best verified bound's score
    worst_optimum: dict[str, int] = {}  # and the worst OPTIMUM's
    for r in records:
        if r.status in CLAIMS_WITH_BOUND:
            witnessed.add(r.instance_id)
            if r.bound is not None:
                best[r.instance_id] = min(best.get(r.instance_id, score(r)), score(r))
                if r.status == "OPTIMUM":
                    worst_optimum[r.instance_id] = max(worst_optimum.get(r.instance_id, score(r)), score(r))

    def contradicted(r: RunRecord) -> bool:
        if r.status == "UNSAT":
            return r.instance_id in witnessed
        if r.status not in CLAIMS_WITH_BOUND or r.bound is None:
            return False
        beaten = r.status == "OPTIMUM" and best[r.instance_id] < score(r)
        return beaten or score(r) < worst_optimum.get(r.instance_id, score(r))

    return [
        RunRecord(r.instance_id, r.solver_id, "INVALID", None, r.elapsed, r.sense) if contradicted(r) else r
        for r in records
    ]


#: per mode, each count of a ranking row and the records it counts
_TALLIES = {
    "CSP": {
        "solved_count": lambda r, best: r.status in PROVED_CSP,
        "sat_count": lambda r, best: r.status == "SAT",
        "unsat_count": lambda r, best: r.status == "UNSAT",
    },
    "COP": {"solved_count": lambda r, best: r.status == "OPTIMUM", "best_known_count": _ties_best},
}


def score_track(
    records,
    n_instances: int,
    mode: str,
    rank_by_best: bool = False,
    senses: dict[str, str] | None = None,
) -> tuple[list[RankingRow], RankingRow]:
    """Rank solvers from run records.

    Returns (rows sorted best-first, virtual-best-solver row). Claims that
    contradict each other are first demoted to INVALID
    (``_demote_contradictions``). Every row tallies a set of records: per
    count of ``_TALLIES[mode]``, the distinct instances whose records it
    counts. A solver's row tallies its own records and the VBS row all of
    them. A row's score is its proved count, or its best-bound count under
    ``rank_by_best`` (COP only); percentages are taken against
    ``n_instances`` and the VBS score. ``senses`` maps instance id to
    "minimize"/"maximize" (minimize when absent)."""
    mode = mode.upper()
    if mode not in _TALLIES:
        raise UnknownModeError(f"mode must be CSP or COP, got {mode!r}")
    if rank_by_best and mode == "CSP":
        raise UnknownModeError("ranking by best-known bounds applies to COP tracks only")
    everyone = list(records)
    seen = set()
    for r in everyone:
        pair = (r.solver_id, r.instance_id)
        if pair in seen:
            raise DuplicateRecordError(f"two records for solver {r.solver_id!r} on {r.instance_id!r}")
        seen.add(pair)
    everyone = _demote_contradictions(everyone, senses or {})
    solvers: dict[str, list[RunRecord]] = {}
    best: dict[str, RunRecord] = {}  # per instance, the record of the best bound
    for r in everyone:
        solvers.setdefault(r.solver_id, []).append(r)
        if r.status in CLAIMS_WITH_BOUND and r.bound is not None:
            best[r.instance_id] = min(best.get(r.instance_id, r), r, key=_scorer(senses or {}))

    def tally(recs) -> dict[str, int]:
        return {name: len({r.instance_id for r in recs if hit(r, best)}) for name, hit in _TALLIES[mode].items()}

    score_of = "best_known_count" if rank_by_best else "solved_count"
    vbs_counts = tally(everyone)

    def row(solver_id: str, counts: dict[str, int]) -> RankingRow:
        score = counts[score_of]
        return RankingRow(
            solver_id, **counts, pct_instances=_pct(score, n_instances), pct_vbs=_pct(score, vbs_counts[score_of])
        )

    rows = [row(solver_id, tally(recs)) for solver_id, recs in solvers.items()]
    elapsed = {solver_id: sum(r.elapsed for r in recs) for solver_id, recs in solvers.items()}
    rows.sort(key=lambda ranked: (-getattr(ranked, score_of), elapsed[ranked.solver_id], ranked.solver_id))
    return rows, row("VBS", vbs_counts)


def render_ranking(rows, vbs: RankingRow, mode: str, fmt: str = "text", rank_by_best: bool = False) -> str:
    mode = mode.upper()
    if fmt == "csv":
        out = ["rank,solver,solved,sat,unsat,opt,best,pct_instances,pct_vbs"]
        for rank, row in enumerate([vbs] + list(rows)):
            out.append(
                ",".join(
                    [
                        "VBS" if row.solver_id == "VBS" else str(rank),
                        row.solver_id,
                        str(row.solved_count),
                        "" if row.sat_count is None else str(row.sat_count),
                        "" if row.unsat_count is None else str(row.unsat_count),
                        str(row.solved_count) if mode == "COP" else "",
                        "" if row.best_known_count is None else str(row.best_known_count),
                        str(row.pct_instances),
                        str(row.pct_vbs),
                    ]
                )
            )
        return "\n".join(out) + "\n"

    def detail(row: RankingRow) -> str:
        if mode == "CSP":
            return f"{row.sat_count} SAT, {row.unsat_count} UNSAT"
        if rank_by_best:
            return f"{row.best_known_count} best"
        return f"{row.solved_count} OPT ({row.best_known_count} best)"

    vbs_label = "Virtual Best Solver (VBS)"
    names = [vbs_label] + [r.solver_id for r in rows]
    width = max(len(n) for n in names) + 2
    detail_width = max(22, max(len(detail(r)) for r in [vbs] + list(rows)) + 2)
    header = f"{'':>4} {'solver':<{width}} {'#solved':>8} {'':<{detail_width}} {'%inst.':>7} {'%VBS':>6}"
    lines = [header, "-" * len(header)]
    lines.append(
        f"{'':>4} {vbs_label:<{width}} {vbs.solved_count:>8} {detail(vbs):<{detail_width}} "
        f"{vbs.pct_instances:>6}% {vbs.pct_vbs:>5}%"
    )
    for rank, row in enumerate(rows, start=1):
        lines.append(
            f"{rank:>4} {row.solver_id:<{width}} {row.solved_count:>8} {detail(row):<{detail_width}} "
            f"{row.pct_instances:>6}% {row.pct_vbs:>5}%"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Campaigns


def parse_solver_output(text: str):
    """Parse the line protocol; returns (status, bound, v_payload)."""
    status = None
    bound = None
    payload = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        tag = line.split(None, 1)[0]
        if tag == "c":
            continue
        if tag == "o":
            parts = line.split()
            bound = int64(parts[1]) if len(parts) == 2 else None
            if bound is None:
                raise ProtocolViolationError(line)
        elif tag == "s":
            claim = line[1:].strip()
            if claim not in CLAIMS or status is not None:
                raise ProtocolViolationError(line)
            status = CLAIMS[claim]
        elif tag == "v":
            payload = line[1:].strip()
        else:
            raise ProtocolViolationError(line)
    return status or "UNKNOWN", bound, payload


def run_one(instance_path: str, solver_id: str, command_template: str, time_limit: float) -> RunRecord:
    """Run a solver on one instance and verify its claims. ``time_limit``
    must be positive; ``inf`` is no limit."""
    # not `<= 0`: a NaN limit would pass and never expire
    if not time_limit > 0:
        raise BadParameterError(f"time limit must be positive, got {time_limit}")
    instance_id = Path(instance_path).stem
    command = shlex.split(command_template.format(instance=instance_path))
    # output goes to files, not pipes, so the wait ends when the solver
    # exits, not when the last child holding its stdout closes it
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        try:
            # a session of its own, so that its children can be killed with it
            proc = subprocess.Popen(command, stdout=out, stderr=err, start_new_session=True)
        except OSError as exc:
            raise SpawnFailureError(f"cannot run {command[0]!r}: {exc}") from None
        try:
            proc.communicate(timeout=time_limit)  # no pipes: this waits for the exit
            timed_out = False
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            # whatever ended the wait (an exit, the time limit, or an interrupt,
            # which its own session does not get from the terminal), nothing
            # the solver started outlives the run
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        elapsed = time.perf_counter() - start
        if timed_out:
            return RunRecord(instance_id, solver_id, "UNKNOWN", None, time_limit)
        out.seek(0)
        stdout = out.read()
    try:
        status, bound, payload = parse_solver_output(stdout)
    except ProtocolViolationError:
        return RunRecord(instance_id, solver_id, "INVALID", None, elapsed)
    if status != "UNKNOWN" and proc.returncode not in EXIT_CODES.values():
        # a solver that crashed, was killed by a signal (a negative code) or
        # failed may have printed a claim it never finished
        return RunRecord(instance_id, solver_id, "INVALID", None, elapsed)
    sense = ""
    if status in CLAIMS_WITH_BOUND:
        status, bound, sense = _verify_claim(instance_path, status, bound, payload)
    return RunRecord(instance_id, solver_id, status, bound, elapsed, sense)


def _verify_claim(instance_path: str, status: str, bound, payload):
    """(status, bound, objective sense or "") after re-verifying a claim.
    A CSP has no objective: an OPTIMUM claim on one is INVALID, and a SAT
    claim keeps no bound."""
    if payload is None:
        return "INVALID", None, ""
    try:
        instance = parse_instance(Path(instance_path).read_text())
        assignment = parse_solution(payload)
    except XcspError:
        return "INVALID", None, ""
    sense = instance.objective.sense if instance.objective is not None else ""
    bound = bound if instance.kind == "COP" else None
    if (instance.kind == "CSP" and status == "OPTIMUM") or not verify(instance, assignment, bound).ok:
        return "INVALID", None, sense
    return status, bound, sense


def run_campaign(
    instance_dir: str,
    solver_id: str,
    command_template: str,
    time_limit: float,
    jobs: int = 1,
    csv_path: str | None = None,
) -> list[RunRecord]:
    """Run one solver over every ``*.xml`` instance in a directory.

    Claims of SAT/OPTIMUM are re-verified against the instance and demoted
    to INVALID on failure, as is a run whose output breaks the line
    protocol and any claim but UNKNOWN from a run whose exit code is not
    one of ``EXIT_CODES``; a solver that exceeds the wall clock gets
    UNKNOWN with elapsed = time_limit."""
    paths = sorted(str(p) for p in Path(instance_dir).glob("*.xml"))
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        records = list(pool.map(lambda p: run_one(p, solver_id, command_template, time_limit), paths))
    if csv_path is not None:
        write_records_csv(records, csv_path)
    return records


#: the columns every campaign CSV has; ``sense`` is optional, absent from CSVs written before it
CSV_COLUMNS = ("instance", "solver", "status", "bound", "elapsed_s")
STATUSES = (*S_LINES, "INVALID")
SENSES = ("", "minimize", "maximize")
#: an ``elapsed_s`` value as ``write_records_csv`` writes it: ASCII digits,
#: an optional minus and fraction (``float`` also reads ``1_5``, `` 7``,
#: ``inf`` and other scripts' digits)
_DECIMAL_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*CSV_COLUMNS, "sense"])
        for r in records:
            writer.writerow(
                [
                    r.instance_id,
                    r.solver_id,
                    r.status,
                    "" if r.bound is None else r.bound,
                    f"{r.elapsed:.3f}",
                    r.sense,
                ]
            )


def read_records_csv(path) -> list[RunRecord]:
    """Records of a campaign CSV; a missing column or a malformed row is
    refused with ``SchemaMismatchError`` naming the line."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"no {', '.join(missing)} column")
            return [_record_of(row) for row in reader]
        except (ValueError, csv.Error) as exc:
            raise SchemaMismatchError(f"{path}, line {reader.line_num}: {exc}") from None


def _record_of(row: dict) -> RunRecord:
    if None in row or None in row.values():
        raise ValueError("the number of fields differs from the header")
    status, sense = row["status"], row.get("sense", "")
    if status not in STATUSES:
        raise ValueError(f"unknown status {status!r}")
    if sense not in SENSES:
        raise ValueError(f"unknown objective sense {sense!r}")
    bound = None
    if row["bound"]:
        bound = int64(row["bound"])
        if bound is None:
            raise ValueError(f"invalid literal for bound: {row['bound']!r} is not a 64-bit integer")
    if not _DECIMAL_RE.fullmatch(row["elapsed_s"]):
        raise ValueError(f"could not convert elapsed_s {row['elapsed_s']!r}: not a decimal number")
    elapsed = float(row["elapsed_s"])
    if not math.isfinite(elapsed):
        raise ValueError(f"elapsed_s {row['elapsed_s']!r} is not finite")
    return RunRecord(row["instance"], row["solver"], status, bound, elapsed, sense)
