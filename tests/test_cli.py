"""CLI tests: protocol output, exit codes, subcommand plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_io import (
    DUPLICATE_CELL,
    DUPLICATE_VAR,
    EMPTY_OBJECTIVE_VAR,
    EMPTY_VAR,
    SHORT_COEFFS,
    UNDECLARED_ID,
    WEIGHTED_MAXIMUM,
)

import xcspkit
from xcspkit.cli import main
from xcspkit.engine import solve
from xcspkit.generators import PROBLEMS, gen_dubois, gen_knapsack, gen_langford
from xcspkit.harness import RunRecord, write_records_csv
from xcspkit.io import parse_instance, parse_solution, write_instance, write_solution
from xcspkit.model import Assignment

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


def _protocol_lines(output):
    return [line for line in output.splitlines() if line]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``code`` on this checkout's package."""
    src = str(Path(xcspkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


_MODULES = "import sys; print(' '.join(sorted(sys.modules)))"


class TestSolveCommand:
    def test_dubois_unsat_exit_20(self, tmp_path, capsys):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        code = main(["solve", str(path), "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 20
        assert "s UNSATISFIABLE" in out

    def test_langford_sat_protocol_order(self, tmp_path, capsys):
        path = tmp_path / "langford3.xml"
        path.write_text(write_instance(gen_langford(3)))
        code = main(["solve", str(path), "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 10
        lines = _protocol_lines(out)
        s_lines = [i for i, line in enumerate(lines) if line.startswith("s ")]
        v_lines = [i for i, line in enumerate(lines) if line.startswith("v ")]
        assert len(s_lines) == 1
        assert lines[s_lines[0]] == "s SATISFIABLE"
        assert len(v_lines) == 1 and v_lines[0] > s_lines[0]
        assert all(line[:2] in ("c ", "s ", "v ", "o ") for line in lines)
        # the printed witness verifies
        payload = lines[v_lines[0]][2:]
        assignment = parse_solution(payload)
        inst = parse_instance(path.read_text())
        from xcspkit.harness import verify

        assert verify(inst, assignment).ok

    def test_optimum_protocol_and_exit_30(self, tmp_path, capsys):
        data = tmp_path / "k.json"
        data.write_text(json.dumps(KNAPSACK_DATA))
        out_xml = tmp_path / "out.xml"
        assert main(["generate", "knapsack", "--data", str(data), "-o", str(out_xml)]) == 0
        code = main(["solve", str(out_xml), "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 30
        lines = _protocol_lines(out)
        o_values = [int(line[2:]) for line in lines if line.startswith("o ")]
        assert o_values and o_values[-1] == 283
        assert o_values == sorted(o_values)  # maximization: nondecreasing quality
        assert "s OPTIMUM FOUND" in lines
        assert any(line.startswith("v ") for line in lines)

    def test_enumerate_all_flag(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "langford3.xml"
        path.write_text(write_instance(gen_langford(3)))

        def no_second_search(*args, **kwargs):
            raise AssertionError("--all must not search a second time for a witness")

        monkeypatch.setattr("xcspkit.cli.solve", no_second_search)
        code = main(["solve", str(path), "--all", "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        lines = _protocol_lines(out)
        assert "c 2 solution(s), exact=True" in lines
        (v_line,) = [line for line in lines if line.startswith("v ")]
        from xcspkit.harness import verify

        assert verify(parse_instance(path.read_text()), parse_solution(v_line[2:])).ok

    def test_enumerate_all_timeout_without_solution_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "langford8.xml"
        path.write_text(write_instance(gen_langford(8)))
        code = main(["solve", str(path), "--all", "--timeout", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s UNKNOWN" in _protocol_lines(out)
        assert "s UNSATISFIABLE" not in out

    def test_solve_loads_neither_the_generators_nor_the_harness(self, tmp_path):
        """A competition starts the solver once per instance, so ``solve``
        imports only what it solves with."""
        path = tmp_path / "langford3.xml"
        path.write_text(write_instance(gen_langford(3)))
        run = _python(f"import sys; from xcspkit.cli import main; code = main(sys.argv[1:]); {_MODULES}; sys.exit(code)",
                      "solve", str(path))
        assert run.returncode == 10, run.stderr
        *protocol, modules = run.stdout.splitlines()
        assert [line for line in protocol if line[:2] in ("s ", "v ")] == [
            "s SATISFIABLE",
            "v <instantiation> <list> v[0] v[1] v[2] v[3] v[4] v[5] p[0] p[1] p[2] p[3] p[4] p[5] </list>"
            " <values> 2 3 1 2 1 3 4 2 3 0 5 1 </values> </instantiation>",
        ]
        loaded = set(modules.split())
        assert {"xcspkit.engine", "xcspkit.io"} <= loaded
        assert not loaded & {"xcspkit.generators", "xcspkit.harness"}
        bare = set(_python(_MODULES).stdout.split())
        assert not loaded & ({"subprocess", "concurrent.futures", "csv", "json", "dataclasses", "inspect"} - bare)

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/nonexistent/file.xml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_exit_code_zero_on_timeout(self, tmp_path, capsys):
        from xcspkit.generators import gen_dubois as _dubois

        path = tmp_path / "dubois20.xml"
        path.write_text(write_instance(_dubois(20)))
        code = main(["solve", str(path), "--timeout", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s UNKNOWN" in out

    def test_debug_stats_line_prints_skipped_calls_after_propagations(self, tmp_path, capsys):
        path = tmp_path / "dubois6.xml"
        path.write_text(write_instance(gen_dubois(6)))
        main(["solve", str(path)])
        out = capsys.readouterr().out
        assert "c nodes 163, failures 164, propagations 1142, skipped 458, elapsed " in out

    def test_solve_validates_the_instance_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "langford3.xml"
        path.write_text(write_instance(gen_langford(3)))
        original = xcspkit.model.validate_instance
        calls = []

        def counted(instance):
            calls.append(instance)
            return original(instance)

        for name, module in list(sys.modules.items()):
            if name.startswith("xcspkit") and getattr(module, "validate_instance", None) is original:
                monkeypatch.setattr(module, "validate_instance", counted)
        assert main(["solve", str(path)]) == 10
        assert len(calls) == 1

    @pytest.mark.parametrize("domain", ["0..99999999999999999999999", "0..9223372036854775807"])
    def test_out_of_range_domain_exit_2(self, tmp_path, capsys, domain):
        path = tmp_path / "wide.xml"
        path.write_text(f'<instance format="XCSP3" type="CSP"> <variables> <var id="x"> {domain} </var> </variables> </instance>')
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_intension_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.xml"
        deep = "neg(" * 2000 + "x" + ")" * 2000
        path.write_text(
            '<instance format="XCSP3" type="CSP"> <variables> <var id="x"> 0..1 </var> </variables>'
            f" <constraints> <intension> eq({deep},0) </intension> </constraints> </instance>"
        )
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_timeout_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        assert main(["solve", str(path), "--timeout", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert not any(line.startswith("s ") for line in captured.out.splitlines())

    def test_coeffs_of_a_maximum_objective_exit_2(self, tmp_path, capsys):
        path = tmp_path / "weighted-maximum.xml"
        path.write_text(WEIGHTED_MAXIMUM)
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "BadObjective" in captured.err
        assert not any(line.startswith("s ") for line in captured.out.splitlines())

    @pytest.mark.parametrize(
        "text, message",
        [
            (WEIGHTED_MAXIMUM, "BadObjective at objective: a 'maximum' objective takes no coeffs (line 3, column 14)"),
            (SHORT_COEFFS, "LengthMismatch at constraint 2: coeffs length differs from scope length (line 5, column 1)"),
            (DUPLICATE_VAR, "DuplicateVariable at x: variable id declared twice (line 3, column 1)"),
            (EMPTY_VAR, "EmptyDomain at x: domain has no values (line 3, column 3)"),
            (DUPLICATE_CELL, "DuplicateVariable at a[1]: variable id declared twice (line 3, column 1)"),
            (UNDECLARED_ID, "UnknownVariable at constraint 0: references undeclared variable 'q' (line 4, column 1)"),
        ],
        ids=[
            "objective",
            "constraint",
            "variable-declared-twice",
            "variable-without-values",
            "array-cell-declared-again",
            "undeclared-variable",
        ],
    )
    def test_a_model_check_refusal_names_its_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "refused.xml"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_refused_variable_named_objective_exits_2(self, tmp_path, capsys):
        path = tmp_path / "refused.xml"
        path.write_text(EMPTY_OBJECTIVE_VAR)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == "error: EmptyDomain at objective: domain has no values (line 2, column 13)\n"

    def test_restarts_flag_is_refused(self, tmp_path, capsys):
        path = tmp_path / "dubois3.xml"
        path.write_text(write_instance(gen_dubois(3)))
        with pytest.raises(SystemExit) as done:
            main(["solve", str(path), "--restarts"])
        assert done.value.code == 2
        assert "unrecognized arguments: --restarts" in capsys.readouterr().err


class TestGenerateCommand:
    def test_param_form(self, capsys):
        assert main(["generate", "dubois", "--param", "n=3"]) == 0
        out = capsys.readouterr().out
        inst = parse_instance(out)
        assert len(inst.variables) == 9

    def test_unknown_problem_exit_2(self, capsys):
        assert main(["generate", "nonsense", "--param", "n=3"]) == 2

    def test_help_lists_every_problem_and_an_unknown_one_exits_2(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["generate", "--help"])
        assert done.value.code == 0
        listed = capsys.readouterr().out.split("one of: ", 1)[1].split("\n\n", 1)[0]
        assert [problem.strip() for problem in listed.split(",")] == sorted(PROBLEMS)
        assert main(["generate", "nonsense"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_tags_flag(self, capsys):
        assert main(["generate", "magic-hexagon", "--param", "n=3", "--param", "s=1"]) == 0
        full = parse_instance(capsys.readouterr().out)
        assert main(["generate", "magic-hexagon", "--param", "n=3", "--param", "s=1", "--no-tags", "sym"]) == 0
        bare = parse_instance(capsys.readouterr().out)
        assert len(full.constraints) - len(bare.constraints) == 6

    def test_nodv_flag(self, capsys):
        assert main(["generate", "golomb-ruler", "--param", "n=3", "--nodv"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.decision_variables == ()

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "dubois", "--param", "n=3", "--bogus"])
        assert err.value.code == 2

    def test_list_payload(self, tmp_path, capsys):
        data = tmp_path / "matrix.json"
        data.write_text(json.dumps([[0, 5, 6], [5, 0, 9], [6, 9, 0]]))
        assert main(["generate", "tsp", "--data", str(data)]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert len(inst.variables) == 6

    def test_param_with_list_payload_exit_2(self, tmp_path, capsys):
        data = tmp_path / "matrix.json"
        data.write_text(json.dumps([[0, 5, 6], [5, 0, 9], [6, 9, 0]]))
        assert main(["generate", "tsp", "--data", str(data), "--param", "n=3"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_payload_exit_2(self, tmp_path, capsys):
        data = tmp_path / "k.json"
        data.write_text(json.dumps({"capacity": 3, "items": [{"value": 1}]}))
        assert main(["generate", "knapsack", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "knapsack" in err and "'weight'" in err

    def test_edge_of_wrong_length_exit_2(self, tmp_path, capsys):
        data = tmp_path / "g.json"
        data.write_text(json.dumps({"nNodes": 3, "nColors": 2, "edges": [[0, 1, 2]]}))
        assert main(["generate", "graph_coloring", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "graph_coloring" in err and "ValueError" in err

    def test_bibd_has_no_variant_exit_2(self, capsys):
        params = ["--param", "v=7", "--param", "b=7", "--param", "r=3", "--param", "k=3", "--param", "lambda=1"]
        assert main(["generate", "bibd", *params]) == 0
        capsys.readouterr()
        assert main(["generate", "bibd", *params, "--variant", "sum"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_param_without_data_field_exit_2(self, capsys):
        assert main(["generate", "tsp", "--param", "n=3"]) == 2
        assert "'distances'" in capsys.readouterr().err


# outside the one integer grammar of ``io`` (``expr.INT_RE``, within int64),
# though ``int`` reads all but the last
NOT_INT64 = ["1_0", " 4", "4 ", "\u0664", "9223372036854775808"]


class TestIntegerOptions:
    @pytest.mark.parametrize("token", NOT_INT64)
    def test_a_param_outside_the_grammar_exits_2(self, capsys, token):
        assert main(["generate", "langford", "--param", f"n={token}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: --param n must be a 64-bit integer, got {token!r}")

    @pytest.mark.parametrize("token", NOT_INT64)
    def test_a_bound_outside_the_grammar_exits_2(self, tmp_path, capsys, token):
        inst_path = tmp_path / "k.xml"
        inst_path.write_text(write_instance(gen_knapsack(KNAPSACK_DATA)))
        sol = tmp_path / "sol.xml"
        sol.write_text(write_solution(Assignment({f"x[{i}]": 1 for i in range(5)})))
        assert main(["verify", str(inst_path), str(sol), "--bound", token]) == 2
        assert capsys.readouterr().err.startswith(f"error: --bound must be a 64-bit integer, got {token!r}")

    @pytest.mark.parametrize("token", NOT_INT64)
    def test_a_track_size_outside_the_grammar_exits_2(self, tmp_path, capsys, token):
        path = tmp_path / "r.csv"
        write_records_csv([RunRecord("a", "s1", "SAT", None, 1.0)], path)
        assert main(["rank", str(path), "--mode", "csp", "--n-instances", token]) == 2
        assert capsys.readouterr().err.startswith(f"error: --n-instances must be a 64-bit integer, got {token!r}")

    def test_signed_and_extreme_integers_are_read(self, tmp_path, capsys):
        assert main(["generate", "langford", "--param", "n=+3"]) == 0
        assert len(parse_instance(capsys.readouterr().out).variables) == 12
        inst_path = tmp_path / "k.xml"
        inst_path.write_text(write_instance(gen_knapsack(KNAPSACK_DATA)))
        sol = tmp_path / "sol.xml"
        sol.write_text(write_solution(Assignment({f"x[{i}]": 1 for i in range(5)})))
        assert main(["verify", str(inst_path), str(sol), "--bound", "-9223372036854775808"]) == 1
        assert "CostMismatch" in capsys.readouterr().out


class TestVerifyCommand:
    def test_valid_and_invalid(self, tmp_path, capsys):
        inst_path = tmp_path / "k.xml"
        inst_path.write_text(write_instance(gen_knapsack(KNAPSACK_DATA)))
        good = tmp_path / "good.xml"
        good.write_text(write_solution(Assignment({f"x[{i}]": 1 for i in range(5)})))
        assert main(["verify", str(inst_path), str(good), "--bound", "283"]) == 0
        assert "VALID" in capsys.readouterr().out
        bad = tmp_path / "bad.xml"
        bad.write_text(write_solution(Assignment({f"x[{i}]": 1 for i in range(4)})))
        assert main(["verify", str(inst_path), str(bad)]) == 1
        assert "Incomplete" in capsys.readouterr().out

    def test_corrupted_value_reports_constraint_index(self, tmp_path, capsys):
        from xcspkit.generators import gen_langford

        inst_path = tmp_path / "langford2.xml"
        inst_path.write_text(write_instance(gen_langford(2)))
        sol = tmp_path / "sol.xml"
        values = {"v[0]": 1, "v[1]": 1, "v[2]": 2, "v[3]": 2, "p[0]": 2, "p[1]": 0, "p[2]": 3, "p[3]": 1}
        sol.write_text(write_solution(Assignment(values)))
        assert main(["verify", str(inst_path), str(sol)]) == 1
        out = capsys.readouterr().out
        assert "constraint" in out and any(ch.isdigit() for ch in out)

    def test_a_bound_on_a_csp_exits_2(self, tmp_path, capsys):
        """A CSP has no objective to hold a claimed bound to, even beside a
        valid solution."""
        inst_path = tmp_path / "langford3.xml"
        inst_path.write_text(write_instance(gen_langford(3)))
        sol = tmp_path / "sol.xml"
        sol.write_text(write_solution(solve(gen_langford(3)).witness))
        assert main(["verify", str(inst_path), str(sol)]) == 0
        capsys.readouterr()
        assert main(["verify", str(inst_path), str(sol), "--bound", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: a claimed bound applies to COP instances only\n"


class TestRankCommand:
    def test_text_table(self, tmp_path, capsys):
        records = [
            RunRecord("a", "s1", "SAT", None, 1.0),
            RunRecord("b", "s1", "UNSAT", None, 1.0),
            RunRecord("a", "s2", "SAT", None, 2.0),
            RunRecord("b", "s2", "UNKNOWN", None, 2.0),
        ]
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        assert main(["rank", str(path), "--mode", "csp"]) == 0
        out = capsys.readouterr().out
        assert "Virtual Best Solver" in out
        assert "s1" in out and "s2" in out

    def test_csv_format(self, tmp_path, capsys):
        records = [RunRecord("a", "s1", "OPTIMUM", 5, 1.0)]
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        assert main(["rank", str(path), "--mode", "cop", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "rank,solver,solved,sat,unsat,opt,best,pct_instances,pct_vbs"

    def test_by_best_credits_the_highest_bound_of_a_maximize_instance(self, tmp_path, capsys):
        records = [RunRecord("m", "low", "SAT", 10, 1.0, "maximize"), RunRecord("m", "high", "SAT", 12, 2.0, "maximize")]
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        assert main(["rank", str(path), "--mode", "cop", "--by-best", "--format", "csv"]) == 0
        ranked = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(row[1], row[6]) for row in ranked] == [("high", "1"), ("low", "0")]

    def test_cop_bounds_without_a_sense_are_refused(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("instance,solver,status,bound,elapsed_s\nm,low,SAT,10,1.0\nm,high,SAT,12,2.0\n")
        assert main(["rank", str(path), "--mode", "cop", "--by-best"]) == 2
        assert capsys.readouterr().err.startswith("error: no objective sense recorded for m")

    def test_by_best_on_a_csp_track_is_refused(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        write_records_csv([RunRecord("a", "s1", "SAT", None, 1.0), RunRecord("a", "s2", "UNSAT", None, 1.0)], path)
        assert main(["rank", str(path), "--mode", "csp", "--by-best"]) == 2
        assert capsys.readouterr().err.startswith("error: ranking by best-known bounds applies to COP tracks only")

    @pytest.mark.parametrize("n_instances", ["2", "1", "0", "-3"])
    def test_track_smaller_than_the_csv_is_refused(self, tmp_path, capsys, n_instances):
        path = tmp_path / "r.csv"
        write_records_csv([RunRecord(i, "s1", "SAT", None, 1.0) for i in "abc"], path)
        assert main(["rank", str(path), "--mode", "csp", "--n-instances", n_instances]) == 2
        assert capsys.readouterr().err.startswith(f"error: --n-instances {n_instances} is below 3, the least")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("instance,solver,status,elapsed_s\na,s1,SAT,1.0\n", "line 1: no bound column"),
            ("instance,solver,status,bound,elapsed_s\na,s1,SAT,x,1.0\n", "line 2: invalid literal"),
            ("instance,solver,status,bound,elapsed_s\na,s1,SAT,,1.0\nb,s1,SAT,,fast\n", "line 3: could not convert"),
            ("instance,solver,status,bound,elapsed_s\na,s1,MAYBE,,1.0\n", "line 2: unknown status 'MAYBE'"),
            ("instance,solver,status,bound,elapsed_s,sense\na,s1,SAT,3,1.0,min\n", "line 2: unknown objective sense"),
        ],
        ids=["no-bound-column", "bound-x", "elapsed-fast", "status-maybe", "sense-min"],
    )
    def test_malformed_csv_is_refused(self, tmp_path, capsys, text, problem):
        path = tmp_path / "r.csv"
        path.write_text(text)
        assert main(["rank", str(path), "--mode", "csp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, ") and problem in err
