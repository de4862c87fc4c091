"""Harness tests: verification verdicts, scoring arithmetic against the
published tables, campaign execution over the built-in solver."""

import sys

import pytest

from xcspkit.errors import DuplicateRecordError, UnknownModeError
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
from xcspkit.io import write_instance
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

    def test_render_text_and_csv(self):
        records = synth_records([5, 3], 10, 6)
        rows, vbs = score_track(records, 10, "CSP")
        text = render_ranking(rows, vbs, "CSP")
        assert "Virtual Best Solver" in text
        assert "%" in text
        csv_text = render_ranking(rows, vbs, "CSP", fmt="csv")
        assert csv_text.splitlines()[0].startswith("rank,solver")


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


class TestCampaign(object):
    def _write_instances(self, tmp_path):
        (tmp_path / "dubois3.xml").write_text(write_instance(gen_dubois(3)))
        (tmp_path / "langford3.xml").write_text(write_instance(gen_langford(3)))
        return tmp_path

    def test_builtin_solver_campaign(self, tmp_path):
        instance_dir = self._write_instances(tmp_path)
        template = f"{sys.executable} -m xcspkit.cli solve {{instance}} --timeout 60"
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

    def test_solution_naming_a_variable_twice_is_invalid(self, tmp_path):
        path = tmp_path / "one.xml"
        path.write_text(write_instance(Instance("CSP", (Variable("x", Domain.rng(0, 3)),), ())))
        template = (
            "sh -c 'echo \"s SATISFIABLE\"; "
            "echo \"v <instantiation> <list> x x </list> <values> 1 2 </values> </instantiation>\"'"
        )
        record = run_one(str(path), "repeater", template, time_limit=30)
        assert record.status == "INVALID"

    def test_timeout_yields_unknown_with_full_elapsed(self, tmp_path):
        (tmp_path / "dubois3.xml").write_text(write_instance(gen_dubois(3)))
        template = f"{sys.executable} -c \"import time; time.sleep(30)\""
        records = run_campaign(str(tmp_path), "sleeper", template, time_limit=1.5)
        (record,) = records
        assert record.status == "UNKNOWN"
        assert record.elapsed == 1.5

    def test_csv_roundtrip(self, tmp_path):
        records = [
            RunRecord("a", "s1", "SAT", None, 1.25),
            RunRecord("b", "s1", "OPTIMUM", 42, 0.5),
        ]
        path = tmp_path / "results.csv"
        write_records_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == "instance,solver,status,bound,elapsed_s"
        back = read_records_csv(path)
        assert back == records
