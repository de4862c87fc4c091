"""Harness tests: verification verdicts, scoring arithmetic against the
published tables, campaign execution over the built-in solver."""

import math
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import xcspkit
from helpers import mutant
from xcspkit.engine import solve
from xcspkit.errors import (
    BadParameterError,
    DuplicateRecordError,
    NotAnOptimizationInstanceError,
    SchemaMismatchError,
    UnknownModeError,
    XcspError,
)
from xcspkit.generators import gen_dubois, gen_knapsack, gen_langford
from xcspkit.harness import (
    RunRecord,
    parse_solver_output,
    read_records_csv,
    render_ranking,
    run_campaign,
    run_one,
    score_track,
    verify,
    write_records_csv,
)
from xcspkit.io import write_instance, write_solution
from xcspkit.model import Assignment, Domain, Instance, Variable

KNAPSACK_DATA = {
    "capacity": 10,
    "items": [
        {"weight": 2, "value": 54},
        {"weight": 2, "value": 92},
        {"weight": 1, "value": 62},
        {"weight": 2, "value": 20},
        {"weight": 2, "value": 55},
    ],
}


def all_ones():
    return Assignment({f"x[{i}]": 1 for i in range(5)})


class TestVerify:
    def test_valid_with_bound(self):
        result = verify(gen_knapsack(KNAPSACK_DATA), all_ones(), 283)
        assert result.ok and str(result) == "VALID"

    def test_cost_mismatch(self):
        result = verify(gen_knapsack(KNAPSACK_DATA), all_ones(), 280)
        assert not result.ok
        assert result.code == "CostMismatch"
        assert "283" in result.detail and "280" in result.detail

    def test_incomplete(self):
        partial = Assignment({f"x[{i}]": 1 for i in range(4)})
        result = verify(gen_knapsack(KNAPSACK_DATA), partial)
        assert result.code == "Incomplete"
        assert "x[4]" in result.detail

    def test_out_of_domain(self):
        bad = Assignment({**all_ones().bindings, "x[0]": 7})
        assert verify(gen_knapsack(KNAPSACK_DATA), bad).code == "OutOfDomain"

    def test_constraint_violation_reports_index(self):
        inst = gen_langford(2)
        a = Assignment({v.id: v.domain.values[0] for v in inst.variables})
        result = verify(inst, a)
        assert not result.ok
        assert result.code == "ConstraintViolated"

    def test_a_bound_claimed_on_a_csp_is_refused(self):
        """A CSP has no objective to hold a claimed bound to: the bound is
        refused before any other check, beside a valid witness and beside
        an empty assignment alike."""
        inst = gen_langford(3)
        witness = solve(inst).witness
        assert verify(inst, witness).ok
        for assignment in (witness, Assignment({})):
            with pytest.raises(NotAnOptimizationInstanceError, match="^a claimed bound applies to COP instances only$"):
                verify(inst, assignment, 7)


def synth_records(counts, n_instances, vbs, status="SAT"):
    """Per-solver proved counts realizing a given VBS union size."""
    assert vbs >= max(counts)
    records = []
    for s, count in enumerate(counts):
        solver = f"solver{s:02d}"
        if s == 0:
            solved = list(range(count))
        elif s == 1:
            # push the union up to exactly vbs
            extra = vbs - counts[0]
            solved = list(range(counts[0] - (count - extra), counts[0])) + list(range(counts[0], vbs))
            solved = solved[:count]
        else:
            solved = list(range(count))
        for i in range(n_instances):
            st = status if i in solved else "UNKNOWN"
            bound = 1 if st in ("SAT", "OPTIMUM") else None
            records.append(RunRecord(f"inst{i:03d}", solver, st, bound, 1.0))
    return records


class TestScoreTrack:
    def test_paper_csp_sequential_row(self):
        records = synth_records([146, 140], 236, 164)
        rows, vbs = score_track(records, 236, "CSP")
        assert vbs.solved_count == 164
        top = rows[0]
        assert (top.solved_count, top.pct_instances, top.pct_vbs) == (146, 62, 89)
        second = rows[1]
        assert (second.solved_count, second.pct_instances, second.pct_vbs) == (140, 59, 85)

    def test_empty_records(self):
        rows, vbs = score_track([], 10, "CSP")
        assert rows == []
        assert vbs.solved_count == 0 and vbs.pct_vbs == 0

    def test_invalid_counts_as_unsolved(self):
        records = [
            RunRecord("a", "s1", "INVALID", None, 1.0),
            RunRecord("b", "s1", "SAT", None, 1.0),
        ]
        rows, vbs = score_track(records, 2, "CSP")
        assert rows[0].solved_count == 1
        assert vbs.solved_count == 1

    def test_duplicate_rejected(self):
        records = [
            RunRecord("a", "s1", "SAT", None, 1.0),
            RunRecord("a", "s1", "UNSAT", None, 1.0),
        ]
        with pytest.raises(DuplicateRecordError):
            score_track(records, 2, "CSP")

    def test_unknown_mode(self):
        with pytest.raises(UnknownModeError):
            score_track([], 2, "WCSP")

    def test_permutation_invariance(self):
        records = synth_records([5, 3, 2], 10, 7)
        rows1, vbs1 = score_track(records, 10, "CSP")
        rows2, vbs2 = score_track(list(reversed(records)), 10, "CSP")
        assert rows1 == rows2 and vbs1 == vbs2

    def test_vbs_dominates(self):
        records = synth_records([5, 4, 3], 12, 8)
        rows, vbs = score_track(records, 12, "CSP")
        assert vbs.solved_count >= max(r.solved_count for r in rows)

    def test_cop_best_known_counts(self):
        records = [
            RunRecord("i1", "a", "OPTIMUM", 10, 1.0),
            RunRecord("i2", "a", "SAT", 8, 1.0),
            RunRecord("i1", "b", "SAT", 12, 1.0),
            RunRecord("i2", "b", "SAT", 5, 1.0),
        ]
        rows, vbs = score_track(records, 2, "COP")
        by_id = {r.solver_id: r for r in rows}
        # minimize default: best on i1 is 10 (a), on i2 is 5 (b)
        assert by_id["a"].best_known_count == 1
        assert by_id["b"].best_known_count == 1
        assert by_id["a"].solved_count == 1
        assert vbs.solved_count == 1
        assert vbs.best_known_count == 2

    def test_cop_senses_flip_best(self):
        records = [
            RunRecord("i1", "a", "SAT", 10, 1.0),
            RunRecord("i1", "b", "SAT", 12, 1.0),
        ]
        rows, _ = score_track(records, 1, "COP", senses={"i1": "maximize"})
        by_id = {r.solver_id: r for r in rows}
        assert by_id["b"].best_known_count == 1
        assert by_id["a"].best_known_count == 0

    def test_tie_break_elapsed_then_name(self):
        records = [
            RunRecord("a", "slow", "SAT", None, 9.0),
            RunRecord("a", "fast", "SAT", None, 1.0),
            RunRecord("b", "slow", "UNKNOWN", None, 9.0),
            RunRecord("b", "fast", "UNKNOWN", None, 1.0),
        ]
        rows, _ = score_track(records, 2, "CSP")
        assert [r.solver_id for r in rows] == ["fast", "slow"]

    def test_rank_by_best_fast_track(self):
        records = [
            RunRecord("i1", "a", "SAT", 3, 1.0),
            RunRecord("i2", "a", "SAT", 9, 1.0),
            RunRecord("i1", "b", "OPTIMUM", 2, 1.0),
            RunRecord("i2", "b", "UNKNOWN", None, 1.0),
        ]
        rows, vbs = score_track(records, 2, "COP", rank_by_best=True)
        assert [r.solver_id for r in rows] == ["a", "b"]  # a ties best on i2 only... both tie 1; tie on elapsed then name
        assert vbs.best_known_count == 2

    def test_contradicted_claims_are_demoted(self):
        csp = [
            RunRecord("a", "s1", "SAT", None, 1.0),
            RunRecord("a", "s2", "UNSAT", None, 1.0),
            RunRecord("b", "s2", "UNSAT", None, 1.0),
        ]
        rows, vbs = score_track(csp, 2, "CSP")
        by_id = {r.solver_id: r for r in rows}
        # the UNSAT claim on "a" is false: s1 holds a verified witness
        assert (by_id["s2"].solved_count, by_id["s2"].unsat_count) == (1, 1)
        assert (vbs.solved_count, vbs.sat_count, vbs.unsat_count) == (2, 1, 1)

        cop = [
            RunRecord("mn", "a", "OPTIMUM", 10, 1.0, "minimize"),
            RunRecord("mn", "b", "SAT", 8, 1.0, "minimize"),
            RunRecord("mn", "c", "SAT", 12, 1.0, "minimize"),
            RunRecord("mx", "a", "OPTIMUM", 45, 1.0, "maximize"),
            RunRecord("mx", "b", "OPTIMUM", 50, 1.0, "maximize"),
            RunRecord("mx", "c", "SAT", 40, 1.0, "maximize"),
            RunRecord("ok", "a", "OPTIMUM", 3, 1.0, "minimize"),
            RunRecord("ok", "b", "SAT", 3, 1.0, "minimize"),
            RunRecord("ok", "c", "UNSAT", None, 1.0),
        ]
        senses = {r.instance_id: r.sense for r in cop if r.sense}
        rows, vbs = score_track(cop, 3, "COP", senses=senses)
        by_id = {r.solver_id: r for r in rows}
        # on "mn" the OPTIMUM 10 and the bound 8 that beats it both go, so
        # 12 is the best bound left; on "mx" (maximize) 50 beats the OPTIMUM
        # 45, and 40 beats nothing; on "ok" only the UNSAT claim goes
        assert {s: (r.solved_count, r.best_known_count) for s, r in by_id.items()} == {
            "a": (1, 1),
            "b": (0, 1),
            "c": (0, 2),
        }
        assert (vbs.solved_count, vbs.best_known_count) == (1, 3)
        # without the maximize sense, 45 beats 50 and 40 beats both
        rows, vbs = score_track(cop, 3, "COP", senses={"mn": "minimize"})
        assert {r.solver_id: r.best_known_count for r in rows} == {"a": 1, "b": 1, "c": 1}
        assert (vbs.solved_count, vbs.best_known_count) == (1, 2)

    def test_render_text_and_csv(self):
        records = synth_records([5, 3], 10, 6)
        rows, vbs = score_track(records, 10, "CSP")
        text = render_ranking(rows, vbs, "CSP")
        assert "Virtual Best Solver" in text
        assert "%" in text
        csv_text = render_ranking(rows, vbs, "CSP", fmt="csv")
        assert csv_text.splitlines()[0].startswith("rank,solver")


# Byte-exact ranking output. A CSP track with SAT/UNSAT/UNKNOWN/INVALID rows
# and a score tie broken by elapsed time; a COP track with a minimize and a
# maximize instance, tied best bounds and INVALID/UNKNOWN rows.
PIN_CSP = [
    RunRecord("a", "s1", "SAT", None, 1.0),
    RunRecord("b", "s1", "UNSAT", None, 2.0),
    RunRecord("c", "s1", "UNKNOWN", None, 3.0),
    RunRecord("d", "s1", "INVALID", None, 0.5),
    RunRecord("a", "s2", "SAT", None, 0.5),
    RunRecord("b", "s2", "UNKNOWN", None, 3.0),
    RunRecord("c", "s2", "UNSAT", None, 2.0),
    RunRecord("d", "s2", "UNKNOWN", None, 0.5),
    RunRecord("a", "s3", "INVALID", None, 0.1),
    RunRecord("b", "s3", "UNSAT", None, 0.2),
]
PIN_COP = [
    RunRecord("mn", "a", "OPTIMUM", 10, 1.0, "minimize"),
    RunRecord("mx", "a", "SAT", 40, 2.0, "maximize"),
    RunRecord("q", "a", "UNKNOWN", None, 3.0),
    RunRecord("r", "a", "SAT", 7, 1.0, "minimize"),
    RunRecord("mn", "b", "SAT", 10, 2.0, "minimize"),
    RunRecord("mx", "b", "OPTIMUM", 45, 1.0, "maximize"),
    RunRecord("q", "b", "INVALID", None, 0.5),
    RunRecord("r", "b", "SAT", 9, 1.0, "minimize"),
    RunRecord("mn", "c", "SAT", 12, 0.5, "minimize"),
    RunRecord("mx", "c", "SAT", 45, 0.5, "maximize"),
    RunRecord("q", "c", "UNKNOWN", None, 1.0),
    RunRecord("r", "c", "INVALID", None, 1.0),
]
PIN_SENSES = {r.instance_id: r.sense for r in PIN_COP if r.sense}

PIN_CSP_TEXT = (
    "     solver                       #solved                         %inst.   %VBS\n"
    "-------------------------------------------------------------------------------\n"
    "     Virtual Best Solver (VBS)          3 1 SAT, 2 UNSAT             60%   100%\n"
    "   1 s2                                 2 1 SAT, 1 UNSAT             40%    67%\n"
    "   2 s1                                 2 1 SAT, 1 UNSAT             40%    67%\n"
    "   3 s3                                 1 0 SAT, 1 UNSAT             20%    33%\n"
)
PIN_CSP_CSV = (
    "rank,solver,solved,sat,unsat,opt,best,pct_instances,pct_vbs\n"
    "VBS,VBS,3,1,2,,,60,100\n"
    "1,s2,2,1,1,,,40,67\n"
    "2,s1,2,1,1,,,40,67\n"
    "3,s3,1,0,1,,,20,33\n"
)
PIN_COP_TEXT = (
    "     solver                       #solved                         %inst.   %VBS\n"
    "-------------------------------------------------------------------------------\n"
    "     Virtual Best Solver (VBS)          2 2 OPT (3 best)             40%   100%\n"
    "   1 b                                  1 1 OPT (2 best)             20%    50%\n"
    "   2 a                                  1 1 OPT (2 best)             20%    50%\n"
    "   3 c                                  0 0 OPT (1 best)              0%     0%\n"
)
PIN_COP_CSV = (
    "rank,solver,solved,sat,unsat,opt,best,pct_instances,pct_vbs\n"
    "VBS,VBS,2,,,2,3,40,100\n"
    "1,b,1,,,1,2,20,50\n"
    "2,a,1,,,1,2,20,50\n"
    "3,c,0,,,0,1,0,0\n"
)
PIN_COP_BY_BEST_TEXT = (
    "     solver                       #solved                         %inst.   %VBS\n"
    "-------------------------------------------------------------------------------\n"
    "     Virtual Best Solver (VBS)          2 3 best                     60%   100%\n"
    "   1 b                                  1 2 best                     40%    67%\n"
    "   2 a                                  1 2 best                     40%    67%\n"
    "   3 c                                  0 1 best                     20%    33%\n"
)
PIN_COP_BY_BEST_CSV = (
    "rank,solver,solved,sat,unsat,opt,best,pct_instances,pct_vbs\n"
    "VBS,VBS,2,,,2,3,60,100\n"
    "1,b,1,,,1,2,40,67\n"
    "2,a,1,,,1,2,40,67\n"
    "3,c,0,,,0,1,20,33\n"
)


@pytest.mark.parametrize(
    "mode, rank_by_best, fmt, expected",
    [
        ("CSP", False, "text", PIN_CSP_TEXT),
        ("CSP", False, "csv", PIN_CSP_CSV),
        ("COP", False, "text", PIN_COP_TEXT),
        ("COP", False, "csv", PIN_COP_CSV),
        ("COP", True, "text", PIN_COP_BY_BEST_TEXT),
        ("COP", True, "csv", PIN_COP_BY_BEST_CSV),
    ],
    ids=["csp-text", "csp-csv", "cop-text", "cop-csv", "cop-by-best-text", "cop-by-best-csv"],
)
def test_render_ranking_pins(mode, rank_by_best, fmt, expected):
    records, senses = (PIN_CSP, None) if mode == "CSP" else (PIN_COP, PIN_SENSES)
    rows, vbs = score_track(records, 5, mode, rank_by_best=rank_by_best, senses=senses)
    assert render_ranking(rows, vbs, mode, fmt=fmt, rank_by_best=rank_by_best) == expected


class TestProtocol:
    def test_parse_lines(self):
        status, bound, payload = parse_solver_output(
            "c hello\no 12\no 10\ns OPTIMUM FOUND\nv <instantiation> <list> x </list> <values> 1 </values> </instantiation>\n"
        )
        assert status == "OPTIMUM"
        assert bound == 10
        assert payload.startswith("<instantiation>")

    def test_bad_line_raises(self):
        from xcspkit.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            parse_solver_output("s MAYBE\n")
        with pytest.raises(ProtocolViolationError):
            parse_solver_output("hello world\n")

    @pytest.mark.parametrize("line", ["o --3", "o +-5", "o \u00b2", "o 9223372036854775808", "o -9223372036854775809"])
    def test_a_malformed_bound_is_a_protocol_violation(self, line):
        from xcspkit.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            parse_solver_output(line + "\ns UNKNOWN\n")

    def test_a_bound_at_the_64_bit_limits_is_read(self):
        assert parse_solver_output("o 9223372036854775807\ns SATISFIABLE\n")[1] == 2**63 - 1
        assert parse_solver_output("o -9223372036854775808\ns SATISFIABLE\n")[1] == -(2**63)

    def test_missing_s_line_is_unknown(self):
        status, bound, payload = parse_solver_output("c nothing\n")
        assert status == "UNKNOWN"


class TestEngineWitnessesVerify:
    def test_every_corpus_witness_verifies(self):
        """Every witness the engine reports passes the ground-truth
        verifier, across the whole generated corpus."""
        from test_generators import ALL_REQUESTS
        from xcspkit.engine import SearchConfig, optimize, solve
        from xcspkit.generators import build, gen_sports_scheduling

        config = SearchConfig(time_limit=60)
        corpus = [build(r) for r in ALL_REQUESTS] + [gen_sports_scheduling(6)]
        solved = 0
        for inst in corpus:
            out = optimize(inst, config) if inst.kind == "COP" else solve(inst, config)
            if out.witness is not None:
                assert verify(inst, out.witness, out.bound).ok, inst
                solved += 1
        assert solved >= 20


def _running(pid: int) -> bool:
    """Whether the process exists and has not exited; a zombie has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


# every record a campaign can write, the 64-bit bounds included
CSV_RECORDS = [
    RunRecord("a", "s1", "SAT", None, 1.25),
    RunRecord("b", "s1", "OPTIMUM", 42, 0.5),
    RunRecord("c", "s1", "OPTIMUM", 2**63 - 1, 0.0, "maximize"),
    RunRecord("d", "s2", "SAT", -(2**63), 1234.5, "minimize"),
    RunRecord("e", "s2", "UNKNOWN", None, -1.0),
    RunRecord("f", "s2", "INVALID", None, 0.001),
]


class TestCampaign(object):
    def _write_instances(self, tmp_path):
        (tmp_path / "dubois3.xml").write_text(write_instance(gen_dubois(3)))
        (tmp_path / "langford3.xml").write_text(write_instance(gen_langford(3)))
        return tmp_path

    def test_builtin_solver_campaign(self, tmp_path):
        instance_dir = self._write_instances(tmp_path)
        # the solver process imports the kit from the same source tree
        src = shlex.quote(str(Path(xcspkit.__file__).resolve().parent.parent))
        template = f"env PYTHONPATH={src} {sys.executable} -m xcspkit.cli solve {{instance}} --timeout 60"
        records = run_campaign(str(instance_dir), "builtin", template, time_limit=90, jobs=2)
        by_id = {r.instance_id: r for r in records}
        assert by_id["dubois3"].status == "UNSAT"
        assert by_id["langford3"].status == "SAT"
        assert all(r.elapsed < 90 for r in records)

    def test_lying_solver_demoted_to_invalid(self, tmp_path):
        instance_dir = self._write_instances(tmp_path)
        lie = (
            "s SATISFIABLE\\n"
            "v <instantiation> <list> x[0] </list> <values> 1 </values> </instantiation>\\n"
        )
        template = f"{sys.executable} -c \"print('{lie}')\""
        records = run_campaign(str(instance_dir), "liar", template, time_limit=30)
        assert all(r.status == "INVALID" for r in records)

    def test_stray_line_is_invalid_and_campaign_goes_on(self, tmp_path):
        instance_dir = self._write_instances(tmp_path)
        template = "sh -c 'case {instance} in *dubois3*) echo hello;; *) echo \"s UNKNOWN\";; esac'"
        csv_path = tmp_path / "results.csv"
        records = run_campaign(str(instance_dir), "chatty", template, time_limit=30, csv_path=str(csv_path))
        by_id = {r.instance_id: r.status for r in records}
        assert by_id == {"dubois3": "INVALID", "langford3": "UNKNOWN"}
        assert {r.instance_id: r.status for r in read_records_csv(csv_path)} == by_id

    def test_a_malformed_bound_is_invalid_and_campaign_goes_on(self, tmp_path):
        instance_dir = self._write_instances(tmp_path)
        records = run_campaign(str(instance_dir), "miscounter", "sh -c 'echo o --3; echo s UNKNOWN'", time_limit=30)
        assert sorted((r.instance_id, r.status) for r in records) == [("dubois3", "INVALID"), ("langford3", "INVALID")]

    def test_solution_naming_a_variable_twice_is_invalid(self, tmp_path):
        path = tmp_path / "one.xml"
        path.write_text(write_instance(Instance("CSP", (Variable("x", Domain.rng(0, 3)),), ())))
        template = (
            "sh -c 'echo \"s SATISFIABLE\"; "
            "echo \"v <instantiation> <list> x x </list> <values> 1 2 </values> </instantiation>\"'"
        )
        record = run_one(str(path), "repeater", template, time_limit=30)
        assert record.status == "INVALID"

    @pytest.mark.parametrize(
        "claim, expected",
        [("OPTIMUM FOUND", "INVALID"), ("SATISFIABLE", "SAT")],
        ids=["optimum", "sat"],
    )
    def test_a_bound_claimed_on_a_csp_is_not_recorded(self, tmp_path, claim, expected):
        """A CSP has no optimum, so an OPTIMUM claim on one is INVALID even
        with a valid witness, and a SAT record of one carries no bound."""
        path = tmp_path / "langford3.xml"
        path.write_text(write_instance(gen_langford(3)))
        witness = write_solution(solve(gen_langford(3)).witness)
        template = f"sh -c 'echo o 7; echo \"s {claim}\"; echo \"v {witness}\"'"
        record = run_one(str(path), "optimist", template, time_limit=30)
        assert (record.status, record.bound, record.sense) == (expected, None, "")

    @pytest.mark.parametrize(
        "script, expected",
        [
            ('echo "s UNSATISFIABLE"; kill -SEGV $$', "INVALID"),
            ('echo "s UNKNOWN"; kill -SEGV $$', "UNKNOWN"),
            ('echo "s UNSATISFIABLE"; exit 20', "UNSAT"),
            ('echo "s UNSATISFIABLE"; exit 139', "INVALID"),
            ('echo "s UNSATISFIABLE"; exit 1', "INVALID"),
        ],
        ids=["killed-claim", "killed-unknown", "exit-code-20", "exit-code-139", "exit-code-1"],
    )
    def test_claim_of_a_solver_killed_by_a_signal_is_invalid(self, tmp_path, script, expected):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        record = run_one(str(path), "crasher", f"sh -c '{script}'", time_limit=30)
        assert record.status == expected

    def test_timeout_yields_unknown_with_full_elapsed(self, tmp_path):
        (tmp_path / "dubois3.xml").write_text(write_instance(gen_dubois(3)))
        template = f"{sys.executable} -c \"import time; time.sleep(30)\""
        records = run_campaign(str(tmp_path), "sleeper", template, time_limit=1.5)
        (record,) = records
        assert record.status == "UNKNOWN"
        assert record.elapsed == 1.5

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
    def test_a_time_limit_that_is_not_positive_is_refused_before_the_solver_runs(self, tmp_path, limit):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        marker = tmp_path / "ran"
        with pytest.raises(BadParameterError, match="time limit must be positive"):
            run_one(str(path), "quitter", f"sh -c 'touch {marker}; exit 0'", time_limit=limit)
        assert not marker.exists()

    def test_an_infinite_time_limit_is_no_limit(self, tmp_path):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        record = run_one(str(path), "quitter", "sh -c 'exit 0'", time_limit=math.inf)
        assert record.status == "UNKNOWN"
        assert 0 <= record.elapsed < 10

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    @pytest.mark.parametrize("stop", ["timeout", "interrupt"])
    def test_a_stopped_run_kills_the_solver_children(self, tmp_path, monkeypatch, stop):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        pid_file = tmp_path / "child.pid"
        template = f"sh -c 'sleep 30 & echo $! > {pid_file}; wait'"
        if stop == "timeout":
            record = run_one(str(path), "wrapper", template, time_limit=1.0)
            assert record.status == "UNKNOWN"
        else:
            def interrupted(proc, timeout=None):
                while not pid_file.exists() or not pid_file.read_text().strip():
                    time.sleep(0.05)
                raise KeyboardInterrupt

            monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_one(str(path), "wrapper", template, time_limit=30)
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 10
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)

    def test_a_child_holding_stdout_does_not_hold_the_verdict(self, tmp_path):
        """The run ends when the solver exits, even while a background child
        still holds its stdout."""
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        template = "sh -c 'sleep 20 & echo s UNSATISFIABLE; exit 20'"
        record = run_one(str(path), "wrapper", template, time_limit=10)
        assert record.status == "UNSAT"
        assert record.elapsed < 5

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_a_finished_run_kills_the_solver_children(self, tmp_path):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        pid_file = tmp_path / "child.pid"
        template = f"sh -c 'sleep 21 >/dev/null 2>&1 & echo $! > {pid_file}; echo s UNSATISFIABLE; exit 20'"
        record = run_one(str(path), "wrapper", template, time_limit=10)
        assert record.status == "UNSAT"
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 10
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)

    def test_csv_roundtrip(self, tmp_path):
        records = CSV_RECORDS
        path = tmp_path / "results.csv"
        write_records_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == "instance,solver,status,bound,elapsed_s,sense"
        back = read_records_csv(path)
        assert back == records


class TestCampaignCsv:
    @pytest.mark.parametrize(
        "bound, elapsed",
        [
            ("1_000", "1.0"),
            ("\u0663", "1.0"),
            (" 7", "1.0"),
            ("9223372036854775808", "1.0"),
            ("-9223372036854775809", "1.0"),
            ("", "1_5"),
            ("", "\u0663"),
            ("", " 1.0"),
            ("", "1e3"),
            ("", "inf"),
            ("", "1" * 400),
        ],
    )
    def test_a_number_outside_the_one_grammar_is_refused(self, tmp_path, bound, elapsed):
        path = tmp_path / "results.csv"
        path.write_text(f"instance,solver,status,bound,elapsed_s\na,s1,SAT,3,1.0\nb,s1,SAT,{bound},{elapsed}\n")
        with pytest.raises(SchemaMismatchError, match=f"{path}, line 3: "):
            read_records_csv(path)


_PROTOCOL_OUTPUT = (
    "c a comment\no 120\no 97\ns OPTIMUM FOUND\n"
    "v <instantiation> <list> x[0] x[1] </list> <values> 3 -4 </values> </instantiation>\n"
)
# what a mutation inserts: digits, signs, separators, quotes, spaces,
# tags, an underscore and non-ASCII digits
_INSERTS = "0123456789+-_.,\"' \t\nosvc\u0663\u00b2e"


@pytest.mark.parametrize("seed", range(2))
def test_mutated_campaign_output_is_read_or_refused_with_a_typed_error(tmp_path, seed):
    """Seeded mutations of a campaign CSV and of solver output: every
    mutant reads, within the readers' own bounds, or is refused with an
    ``XcspError``; no other exception escapes."""
    rng = random.Random(seed)
    path = tmp_path / "results.csv"
    write_records_csv(CSV_RECORDS, path)
    written = path.read_text()
    outcomes = set()
    for _ in range(1500):
        path.write_text(mutant(rng, written, _INSERTS))
        try:
            records = read_records_csv(path)
        except XcspError:
            outcomes.add("refused")
            continue
        outcomes.add("read")
        for r in records:
            assert r.bound is None or -(2**63) <= r.bound < 2**63
    for _ in range(1500):
        try:
            _, bound, _ = parse_solver_output(mutant(rng, _PROTOCOL_OUTPUT, _INSERTS))
        except XcspError:
            outcomes.add("violation")
            continue
        outcomes.add("parsed")
        assert bound is None or -(2**63) <= bound < 2**63
    assert outcomes == {"refused", "read", "violation", "parsed"}
