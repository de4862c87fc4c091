"""Generator tests: structure counts, data oracles, constraint-mix
conformance against the competition catalog, determinism, witnesses."""

import hashlib
import inspect
import itertools
import random
from xml.etree import ElementTree

import pytest

from helpers import brute_force
from xcspkit import generators
from xcspkit.engine import enumerate_all
from xcspkit.errors import BadParameterError, NonIntegralMagicError, SchemaMismatchError, UnknownVariantError
from xcspkit.generators import PROBLEMS, ProblemData, build
from xcspkit.generators.academic import (
    _match_number,
    gen_coloured_queens,
    gen_dubois,
    gen_golomb_ruler,
    gen_langford,
    gen_low_autocorrelation,
    gen_magic_hexagon,
    gen_magic_square,
    gen_sports_scheduling,
    gen_still_life,
)
from xcspkit.generators.structured import (
    gen_auction,
    gen_bacp,
    gen_graph_coloring,
    gen_knapsack,
    gen_mario,
    gen_mistery_shopper,
    gen_quadratic_assignment,
    gen_rcpsp,
    gen_strip_packing,
    gen_subgraph_isomorphism,
    gen_tsp,
)
from xcspkit.io import write_instance
from xcspkit.model import (
    Assignment,
    Count,
    Cumulative,
    Extension,
    Intension,
    Objective,
    Sum,
    conflicts,
    constraint_kind,
    constraint_satisfied,
    supports,
    validate_instance,
)

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

AUCTION_DATA = {
    "bids": [
        {"value": 10, "items": [1, 2]},
        {"value": 20, "items": [1, 3]},
        {"value": 30, "items": [2, 4]},
        {"value": 40, "items": [2, 3, 4]},
        {"value": 14, "items": [1]},
    ]
}

TSP_DATA = {
    "distances": [
        [0, 5, 6, 6, 6],
        [5, 0, 9, 8, 4],
        [6, 9, 0, 1, 7],
        [6, 8, 1, 0, 6],
        [6, 4, 7, 6, 0],
    ]
}

BACP_DATA = {
    "nPeriods": 5,
    "minCredits": 6,
    "maxCredits": 15,
    "minCourses": 2,
    "maxCourses": 6,
    "credits": [2, 3, 2, 4, 1, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3, 3],
    "prerequisites": [[6, 0], [7, 5], [10, 4], [10, 5], [11, 10], [13, 8], [14, 8], [15, 9]],
}

CAR_SEQUENCING_DATA = {
    "carClasses": [
        {"demand": 1, "options": [1, 0, 1, 1, 0]},
        {"demand": 1, "options": [0, 0, 0, 1, 0]},
        {"demand": 2, "options": [0, 1, 0, 0, 1]},
        {"demand": 2, "options": [0, 1, 0, 1, 0]},
        {"demand": 2, "options": [1, 0, 1, 0, 0]},
        {"demand": 2, "options": [1, 1, 0, 0, 0]},
    ],
    "optionLimits": [
        {"num": 1, "den": 2},
        {"num": 2, "den": 3},
        {"num": 1, "den": 3},
        {"num": 2, "den": 5},
        {"num": 1, "den": 5},
    ],
}

MISTERY_DATA = {"visitorGroups": [4, 4, 4], "visiteeGroups": [3, 2, 4]}

MARIO_DATA = {
    "marioHouse": 0,
    "luigiHouse": 1,
    "fuelLimit": 10,
    "houses": [
        {"fuelConsumption": [0, 2, 3, 4], "gold": 0},
        {"fuelConsumption": [2, 0, 5, 4], "gold": 0},
        {"fuelConsumption": [3, 5, 0, 1], "gold": 6},
        {"fuelConsumption": [4, 4, 1, 0], "gold": 4},
    ],
}

QAP_DATA = {
    "weights": [[0, 3, 0], [3, 0, 1], [0, 1, 0]],
    "distances": [[0, 2, 5], [2, 0, 3], [5, 3, 0]],
}

RCPSP_DATA = {
    "horizon": 12,
    "resourceCapacities": [12, 13, 4, 12],
    "jobs": [
        {"duration": 0, "successors": [1, 2], "requiredQuantities": [0, 0, 0, 0]},
        {"duration": 3, "successors": [3], "requiredQuantities": [4, 1, 0, 2]},
        {"duration": 2, "successors": [3], "requiredQuantities": [0, 2, 1, 0]},
        {"duration": 4, "successors": [4], "requiredQuantities": [2, 0, 2, 1]},
        {"duration": 0, "successors": [], "requiredQuantities": [0, 0, 0, 0]},
    ],
}

STRIP_DATA = {
    "container": {"width": 4, "height": 3},
    "rectangles": [{"width": 2, "height": 3}, {"width": 2, "height": 2}],
}

SUBISO_DATA = {
    "nPatternNodes": 3,
    "nTargetNodes": 4,
    "patternEdges": [[0, 1], [1, 2], [0, 2]],
    "targetEdges": [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3]],
}

COLORING_DATA = {"nNodes": 4, "nColors": 3, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
SUM_COLORING_DATA = {"nNodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}


class TestDubois:
    def test_counts(self):
        for n in (3, 5):
            inst = gen_dubois(n)
            assert len(inst.variables) == 3 * n
            assert len(inst.constraints) == 2 * n
            assert all(isinstance(c, Extension) and c.table.arity == 3 for c in inst.constraints)

    def test_unsat_by_enumeration(self):
        count, _, _ = brute_force(gen_dubois(3))
        assert count == 0

    def test_bad_parameter(self):
        with pytest.raises(BadParameterError):
            gen_dubois(2)


class TestKnapsack:
    def test_structure(self):
        inst = gen_knapsack(KNAPSACK_DATA)
        assert len(inst.variables) == 5
        assert len(inst.constraints) == 1
        assert inst.objective == Objective(
            "maximize", "sum", tuple(f"x[{i}]" for i in range(5)), (54, 92, 62, 20, 55)
        )

    def test_paper_optimum_by_brute_force(self):
        _, best, witness = brute_force(gen_knapsack(KNAPSACK_DATA))
        assert best == 283
        assert all(witness[f"x[{i}]"] == 1 for i in range(5))

    def test_all_items_cost(self):
        from xcspkit.model import assignment_cost

        inst = gen_knapsack(KNAPSACK_DATA)
        a = Assignment({f"x[{i}]": 1 for i in range(5)})
        assert assignment_cost(inst, a) == 54 + 92 + 62 + 20 + 55

    def test_zero_capacity(self):
        data = {"capacity": 0, "items": [{"weight": 1, "value": 9}, {"weight": 2, "value": 5}]}
        _, best, witness = brute_force(gen_knapsack(data))
        assert best == 0
        assert all(v == 0 for v in witness.bindings.values())


class TestGolombRuler:
    def test_counts(self):
        inst = gen_golomb_ruler(4)
        assert len(inst.variables) == 4 + 6
        assert len(inst.constraints) == 1 + 6
        assert inst.decision_variables == tuple(f"x[{i}]" for i in range(4))

    def test_nodv(self):
        assert gen_golomb_ruler(4, decision_vars=False).decision_variables == ()

    def test_optimum_by_exhaustive_marks(self):
        # independent oracle: all increasing mark placements within 0..16
        best = None
        for marks in itertools.combinations(range(17), 4):
            dists = [b - a for a, b in itertools.combinations(marks, 2)]
            if len(set(dists)) == len(dists):
                length = marks[-1] - marks[0]
                best = length if best is None else min(best, length)
        assert best == 6

    def test_n2_trivial(self):
        _, best, _ = brute_force(gen_golomb_ruler(2))
        assert best == 1


class TestLangford:
    @staticmethod
    def _langford_sequences(n):
        """Direct definition: each value m at two positions m+1 apart."""
        found = []
        for perm in set(itertools.permutations([i + 1 for i in range(n)] * 2)):
            ok = True
            for m in range(1, n + 1):
                pos = [i for i, v in enumerate(perm) if v == m]
                if pos[1] - pos[0] != m + 1:
                    ok = False
                    break
            if ok:
                found.append(perm)
        return found

    def test_counts(self):
        inst = gen_langford(3)
        assert len(inst.variables) == 12
        assert len(inst.constraints) == 9

    def test_n3_satisfiable_matches_definition(self):
        assert self._langford_sequences(3)
        count, _, _ = brute_force(gen_langford(3))
        assert count > 0

    def test_n2_unsatisfiable(self):
        assert not self._langford_sequences(2)
        count, _, _ = brute_force(gen_langford(2))
        assert count == 0

    def test_witness_accepted(self):
        inst = gen_langford(3)
        witness = {
            "v[0]": 3, "v[1]": 1, "v[2]": 2, "v[3]": 1, "v[4]": 3, "v[5]": 2,
            "p[0]": 3, "p[1]": 1, "p[2]": 5, "p[3]": 2, "p[4]": 4, "p[5]": 0,
        }
        a = Assignment(witness)
        assert all(constraint_satisfied(c, a) for c in inst.constraints)


class TestLowAutocorrelation:
    def test_variable_layout(self):
        inst = gen_low_autocorrelation(3)
        y_vars = [v.id for v in inst.variables if v.id.startswith("y")]
        assert y_vars == ["y[0][0]", "y[0][1]", "y[1][0]"]

    def test_optimum_n3(self):
        def energy(seq):
            n = len(seq)
            return sum(sum(seq[i] * seq[i + k] for i in range(n - k)) ** 2 for k in range(1, n))

        oracle = min(energy(s) for s in itertools.product((-1, 1), repeat=3))
        assert oracle == 1
        _, best, _ = brute_force(gen_low_autocorrelation(3))
        assert best == 1

    def test_optimum_n2(self):
        _, best, _ = brute_force(gen_low_autocorrelation(2))
        assert best == 1


class TestMagicHexagon:
    def test_paper_constants(self):
        inst = gen_magic_hexagon(3, 1)
        cells = [v for v in inst.variables]
        assert len(cells) == 19
        rows = {}
        for v in cells:
            i = int(v.id.split("[")[1].rstrip("]"))
            rows[i] = rows.get(i, 0) + 1
        assert [rows[i] for i in range(5)] == [3, 4, 5, 4, 3]
        assert cells[0].domain.values == tuple(range(1, 20))
        sums = [c for c in inst.constraints if isinstance(c, Sum)]
        assert len(sums) == 15
        assert all(c.condition.rhs == 38 for c in sums)

    def test_non_integral_magic_rejected(self):
        with pytest.raises(NonIntegralMagicError):
            gen_magic_hexagon(2, 1)

    def test_symmetry_block_droppable(self):
        full = gen_magic_hexagon(3, 1)
        bare = gen_magic_hexagon(3, 1, drop_tags=("sym",))
        assert len(full.constraints) - len(bare.constraints) == 6


class TestMagicSquare:
    def test_structure(self):
        inst = gen_magic_square(3)
        assert inst.kind == "CSP"
        assert len(inst.variables) == 9
        kinds = [constraint_kind(c) for c in inst.constraints]
        assert kinds.count("sum") == 8
        assert kinds.count("allDifferent") == 1
        assert "instantiation" not in kinds

    def test_known_square_accepted(self):
        inst = gen_magic_square(3)
        square = [[2, 7, 6], [9, 5, 1], [4, 3, 8]]
        a = Assignment({f"x[{i}][{j}]": square[i][j] for i in range(3) for j in range(3)})
        assert all(constraint_satisfied(c, a) for c in inst.constraints)

    def test_clues_add_instantiation(self):
        inst = gen_magic_square(3, clues=[[2, 0, 0], [0, 0, 0], [0, 0, 0]])
        kinds = [constraint_kind(c) for c in inst.constraints]
        assert kinds.count("instantiation") == 1


class TestColouredQueens:
    def test_counts_n8(self):
        inst = gen_coloured_queens(8)
        assert len(inst.variables) == 64
        kinds = [constraint_kind(c) for c in inst.constraints]
        assert kinds.count("allDifferentMatrix") == 1
        assert kinds.count("allDifferent") == 30


class TestSportsScheduling:
    def test_match_number_formula(self):
        assert _match_number(10, 0, 1) == 0
        assert _match_number(10, 8, 9) == 44

    def test_match_table_rows(self):
        inst = gen_sports_scheduling(10)
        tables = [c.table for c in inst.constraints if isinstance(c, Extension)]
        assert all(len(t.rows) == 45 for t in tables)

    def test_dummy_week_always_present(self):
        inst = gen_sports_scheduling(4)
        names = {v.id for v in inst.variables}
        assert "hd[0]" in names and "ad[1]" in names

    def test_bad_parameter(self):
        with pytest.raises(BadParameterError):
            gen_sports_scheduling(5)


class TestStillLife:
    @staticmethod
    def _oracle_accepts(t):
        # independent transcription of the wastage predicate
        s1 = sum(t[k] for k in (0, 1, 2, 3, 5, 6, 7, 8))
        s2 = t[0] * t[2] + t[2] * t[8] + t[8] * t[6] + t[6] * t[0] + t[1] + t[3] + t[5] + t[7]
        s3 = t[1] + t[3] + t[5] + t[7]
        clauses = [
            t[4] != 1 or s1 >= 2,
            t[4] != 1 or s1 <= 3,
            t[4] != 0 or s1 != 3,
            t[4] != 1 or s2 > 1 or t[9] >= 1,
            t[4] != 1 or s2 > 0 or t[9] >= 2,
            t[4] != 0 or s3 < 4 or t[9] >= 2,
            t[4] != 0 or s3 > 1 or t[9] >= 1,
            t[4] != 0 or s3 > 0 or t[9] >= 2,
        ]
        return all(clauses)

    def test_all_dead_needs_wastage_two(self):
        inst = gen_still_life(3)
        table = next(c.table for c in inst.constraints if isinstance(c, Extension) and c.table.arity == 10)
        dead = (0,) * 9
        accepted = [w for w in (0, 1, 2) if dead + (w,) in table.rows]
        assert accepted == [2]

    def test_support_rows_match_predicate_enumeration(self):
        inst = gen_still_life(3)
        table = next(c.table for c in inst.constraints if isinstance(c, Extension) and c.table.arity == 10)
        expected = {
            cells + (w,)
            for cells in itertools.product((0, 1), repeat=9)
            for w in (0, 1, 2)
            if self._oracle_accepts(cells + (w,))
        }
        assert set(table.rows) == expected
        assert len(expected) < 1536

    def test_border_windows_are_one_group(self):
        """The 4n windows of three border cells are posted in turn, so they
        are one run of one template and written as one ``<group>``."""
        inst = gen_still_life(3)
        windows = [c for c in inst.constraints if isinstance(c, Extension) and c.table.arity == 3]
        assert len(windows) == 12
        assert {c.table for c in windows} == {conflicts(3, [(1, 1, 1)])}
        first = inst.constraints.index(windows[0])
        assert list(inst.constraints[first : first + 12]) == windows
        groups = ElementTree.fromstring(write_instance(inst)).find("constraints").findall("group")
        assert [len(g.findall("args")) for g in groups if g.find("extension/conflicts") is not None] == [12]


class TestTsp:
    def test_table_rows(self):
        inst = gen_tsp(TSP_DATA)
        tables = [c.table for c in inst.constraints if isinstance(c, Extension)]
        assert all(len(t.rows) == 20 for t in tables)

    def test_paper_optimum_by_tour_enumeration(self):
        d = TSP_DATA["distances"]
        best = min(
            sum(d[t[i]][t[(i + 1) % 5]] for i in range(5))
            for t in ((0,) + p for p in itertools.permutations(range(1, 5)))
        )
        assert best == 22

    def test_unit_triangle(self):
        data = {"distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
        _, cost, _ = brute_force(gen_tsp(data))
        assert cost == 3

    def test_asymmetric_rejected(self):
        with pytest.raises(BadParameterError):
            gen_tsp({"distances": [[0, 1, 2], [1, 0, 3], [9, 3, 0]]})


class TestQuadraticAssignment:
    @staticmethod
    def _symmetric(rng, n, lo, hi):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(lo, hi)
        return m

    def test_optimum_matches_permutation_enumeration_with_negative_weights(self):
        """Every nonzero flow weight, negative ones included, ties its
        distance variable to the sites of its two facilities."""
        from xcspkit.engine import SearchConfig, optimize

        rng = random.Random(7)
        for _ in range(60):
            weights = self._symmetric(rng, 4, -3, 3)
            distances = self._symmetric(rng, 4, 1, 5)
            best = min(
                sum(weights[i][j] * distances[p[i]][p[j]] for i in range(4) for j in range(i + 1, 4))
                for p in itertools.permutations(range(4))
            )
            instance = gen_quadratic_assignment({"weights": weights, "distances": distances})
            out = optimize(instance, SearchConfig(time_limit=60))
            assert (out.status, out.bound) == ("OPTIMUM", best), (weights, distances)


class TestAuction:
    def test_item_constraint_scopes(self):
        inst = gen_auction(AUCTION_DATA, "cnt")
        scopes = [len(c.scope) for c in inst.constraints if isinstance(c, Count)]
        assert scopes == [3, 3, 2, 2]

    def test_paper_optimum(self):
        for variant in ("cnt", "sum"):
            _, best, witness = brute_force(gen_auction(AUCTION_DATA, variant))
            assert best == 54
            assert witness["b[3]"] == 1 and witness["b[4]"] == 1

    def test_single_bid(self):
        inst = gen_auction({"bids": [{"value": 7, "items": [1, 2]}]}, "sum")
        assert len(inst.constraints) == 0
        _, best, _ = brute_force(inst)
        assert best == 7

    def test_unknown_variant(self):
        with pytest.raises(UnknownVariantError):
            gen_auction(AUCTION_DATA, "xxx")


class TestCatalogStructure:
    def test_graph_coloring_shape(self):
        inst = gen_graph_coloring(COLORING_DATA)
        assert all(isinstance(c, Intension) for c in inst.constraints)
        assert len(inst.constraints) == 4
        assert inst.objective.kind == "maximum" and inst.objective.sense == "minimize"

    def test_rcpsp_shape(self):
        inst = gen_rcpsp(RCPSP_DATA)
        cumulatives = [c for c in inst.constraints if isinstance(c, Cumulative)]
        assert len(cumulatives) == 4
        n_successors = sum(len(j["successors"]) for j in RCPSP_DATA["jobs"])
        assert sum(1 for c in inst.constraints if isinstance(c, Intension)) == n_successors
        assert inst.objective == Objective("minimize", "variable", ("s[4]",))

    def test_bacp_m2_has_no_extension(self):
        m1 = gen_bacp(BACP_DATA, "m1")
        m2 = gen_bacp(BACP_DATA, "m2")
        assert any(isinstance(c, Extension) for c in m1.constraints)
        assert not any(isinstance(c, Extension) for c in m2.constraints)

    def test_mistery_shopper_dummy_group(self):
        inst = gen_mistery_shopper(MISTERY_DATA)
        gve = [v for v in inst.variables if v.id.startswith("gve")]
        # 3 visitee groups plus the dummy group
        assert gve[0].domain.values == (0, 1, 2, 3)

    def test_mario_witness(self):
        inst = gen_mario(MARIO_DATA)
        # tour 0 -> 2 -> 3 -> 1 -> 0, fuel 3 + 1 + 4 + 2 = 10
        a = Assignment(
            {
                "s[0]": 2, "s[1]": 0, "s[2]": 3, "s[3]": 1,
                "f[0]": 3, "f[1]": 2, "f[2]": 1, "f[3]": 4,
                "g[0]": 0, "g[1]": 0, "g[2]": 6, "g[3]": 4,
            }
        )
        assert all(constraint_satisfied(c, a) for c in inst.constraints)

    def test_strip_packing_witness(self):
        inst = gen_strip_packing(STRIP_DATA)
        a = Assignment(
            {
                "x[0]": 0, "y[0]": 0, "w[0]": 2, "h[0]": 3, "r[0]": 0,
                "x[1]": 2, "y[1]": 0, "w[1]": 2, "h[1]": 2, "r[1]": 0,
            }
        )
        assert all(constraint_satisfied(c, a) for c in inst.constraints)

    def test_subgraph_isomorphism_witness(self):
        inst = gen_subgraph_isomorphism(SUBISO_DATA)
        a = Assignment({"x[0]": 0, "x[1]": 1, "x[2]": 2})
        assert all(constraint_satisfied(c, a) for c in inst.constraints)

    def test_subgraph_isomorphism_with_self_loops(self):
        """A pattern loop may only go to a target loop (a unary supports
        table), and a pattern node to no target node of a lower degree (the
        ``red`` unary conflicts): the count is that of brute force over the
        injective maps, with and without the redundant tables."""
        data = {
            "nPatternNodes": 3,
            "nTargetNodes": 5,
            "patternEdges": [[0, 0], [0, 1], [1, 2]],
            "targetEdges": [[0, 0], [2, 2], [0, 1], [1, 2], [2, 3], [3, 4]],
        }
        full = gen_subgraph_isomorphism(data)
        plain = gen_subgraph_isomorphism(data, drop_tags=("red",))
        unary = [(c.scope, c.table) for c in full.constraints if isinstance(c, Extension) and c.table.arity == 1]
        # node 4 is a leaf, and pattern nodes 0 and 1 have degree 2
        assert unary == [
            (("x[0]",), supports(1, [(0,), (2,)])),
            (("x[0]",), conflicts(1, [(4,)])),
            (("x[1]",), conflicts(1, [(4,)])),
        ]
        assert len(full.constraints) - len(plain.constraints) == 2
        edges = {frozenset(e) for e in data["targetEdges"]}
        expected = sum(
            all(frozenset((f[a], f[b])) in edges for a, b in data["patternEdges"])
            for f in itertools.permutations(range(5), 3)
        )
        assert expected == 3
        for inst in (full, plain):
            assert brute_force(inst)[0] == expected
            assert enumerate_all(inst).count == expected


ALL_REQUESTS = [
    ProblemData("auction", AUCTION_DATA, "cnt"),
    ProblemData("auction", AUCTION_DATA, "sum"),
    ProblemData("bacp", BACP_DATA, "m1"),
    ProblemData("bacp", BACP_DATA, "m2"),
    ProblemData("bibd", {"v": 7, "b": 7, "r": 3, "k": 3, "lambda": 1}),
    ProblemData("car_sequencing", CAR_SEQUENCING_DATA),
    ProblemData("coloured_queens", {"n": 5}),
    ProblemData("dubois", {"n": 3}),
    ProblemData("golomb_ruler", {"n": 4}),
    ProblemData("graceful_graph", {"k": 3, "p": 2}),
    ProblemData("graph_coloring", COLORING_DATA),
    ProblemData("knapsack", KNAPSACK_DATA),
    ProblemData("langford", {"n": 3}),
    ProblemData("low_autocorrelation", {"n": 3}),
    ProblemData("magic_hexagon", {"n": 3, "s": 1}),
    ProblemData("magic_square", {"n": 3, "clues": None}),
    ProblemData("mario", MARIO_DATA),
    ProblemData("mistery_shopper", MISTERY_DATA),
    ProblemData("peacable_armies", {"n": 3}, "m1"),
    ProblemData("peacable_armies", {"n": 3}, "m2"),
    ProblemData("quadratic_assignment", QAP_DATA),
    ProblemData("rcpsp", RCPSP_DATA),
    ProblemData("social_golfers", {"nGroups": 2, "groupSize": 2, "nWeeks": 3}),
    ProblemData("sports_scheduling", {"nTeams": 4}),
    ProblemData("still_life", {"n": 3}),
    ProblemData("strip_packing", STRIP_DATA),
    ProblemData("subgraph_isomorphism", SUBISO_DATA),
    ProblemData("sum_coloring", SUM_COLORING_DATA),
    ProblemData("travelling_salesman", TSP_DATA),
]

# Catalog rows (union across model variants). Magic Square drops
# `instantiation` because competition instances carry no clues.
EXPECTED_MIX = {
    "auction": {"count", "sum"},
    "bacp": {"intension", "extension", "count", "sum"},
    "bibd": {"sum", "lexMatrix"},
    "car_sequencing": {"extension", "sum", "cardinality"},
    "coloured_queens": {"allDifferent", "allDifferentMatrix"},
    "dubois": {"extension"},
    "golomb_ruler": {"intension", "allDifferent"},
    "graceful_graph": {"intension", "allDifferent"},
    "graph_coloring": {"intension"},
    "knapsack": {"sum"},
    "langford": {"intension", "element"},
    "low_autocorrelation": {"intension", "sum"},
    "magic_hexagon": {"intension", "sum", "allDifferent"},
    "magic_square": {"allDifferent", "sum"},
    "mario": {"intension", "extension", "sum", "circuit"},
    "mistery_shopper": {"intension", "extension", "allDifferent", "lexMatrix", "channel"},
    "peacable_armies": {"intension", "sum", "count"},
    "quadratic_assignment": {"extension", "allDifferent"},
    "rcpsp": {"intension", "cumulative"},
    "social_golfers": {"intension", "instantiation", "cardinality", "lexMatrix"},
    "sports_scheduling": {"intension", "extension", "instantiation", "allDifferent", "count", "cardinality"},
    "still_life": {"intension", "extension", "instantiation", "sum"},
    "strip_packing": {"intension", "extension", "noOverlap"},
    "subgraph_isomorphism": {"extension", "allDifferent"},
    "sum_coloring": {"intension"},
    "travelling_salesman": {"extension", "allDifferent"},
}


def _mix(instance):
    return {constraint_kind(c) for c in instance.constraints}


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: f"{r.problem_id}-{r.variant or 'base'}")
def test_every_generated_instance_validates(request_):
    inst = build(request_)
    assert validate_instance(inst) == []


def test_constraint_mix_conformance():
    by_problem: dict[str, set] = {}
    for request_ in ALL_REQUESTS:
        mix = _mix(build(request_))
        by_problem.setdefault(request_.problem_id, set()).update(mix)
    assert by_problem == EXPECTED_MIX


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: f"{r.problem_id}-{r.variant or 'base'}")
def test_determinism_byte_identical(request_):
    first = write_instance(build(request_))
    second = write_instance(build(request_))
    assert first == second


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: f"{r.problem_id}-{r.variant or 'base'}")
def test_roundtrip_through_xml(request_):
    from xcspkit.io import parse_instance

    inst = build(request_)
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


def _template_key(c):
    """What constraints written from one template share: an intension's
    ``Intension.template``, an extension's table and the repeat pattern of
    its scope; None for any other constraint."""
    if isinstance(c, Intension):
        return "intension", c.template
    if isinstance(c, Extension):
        ids = list(dict.fromkeys(c.scope))
        return "extension", c.table, tuple(ids.index(v) for v in c.scope)
    return None


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: f"{r.problem_id}-{r.variant or 'base'}")
def test_each_run_of_one_template_is_a_group_whose_table_is_written_once(request_):
    """Every maximal run of two or more constraints of one template is one
    ``<group>``, whose ``<args>`` are the run's members, and nothing else is
    grouped. A table body is written once per run of its extensions: once
    per ``<group>`` or lone ``<extension>``."""
    from xcspkit.io import parse_instance

    text = write_instance(build(request_))
    constraints = parse_instance(text).constraints
    runs: list[list] = []  # [first constraint, length] per run
    for previous, c in zip((None, *constraints), constraints):
        key = _template_key(c)
        if runs and key is not None and key == _template_key(previous):
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    root = ElementTree.fromstring(text)
    children = list(root.find("constraints"))
    assert [len(child.findall("args")) if child.tag == "group" else 1 for child in children] == [n for _, n in runs]
    assert all(child.tag != "group" or len(child.findall("args")) >= 2 for child in children)
    bodies = [body for tag in ("supports", "conflicts") for body in root.iter(tag)]
    assert len(bodies) == sum(isinstance(c, Extension) for c, _ in runs)


# sha256 of each request's canonical XML: a refactor of the generators, of
# the expression builder or of the writer must write every instance byte for
# byte as before
WRITTEN_DIGESTS = {
    "auction-cnt": "307dffc31382a2787c52b18ac202eece3c3a1c2fe69d63e4f1f419e5c1aedb66",
    "auction-sum": "c9b187d8160b3b9cb412a79998979632794e5e6738e07f4ce445b4dafd282324",
    "bacp-m1": "33c2044aeedcc264368aafa121401ab339090d9c0991bd5009231dcee2f70c86",
    "bacp-m2": "2c5658d1558f468dfb476af9eb83d463843502c8ab29deaf6532e595e739a800",
    "bibd-base": "91afa490951ccfae9ebc1a088e2d1990aa132cb53603dd658b8bc2969ba58b19",
    "car_sequencing-base": "1db1e24f2f0cef79d1fc745c602e6bceed3f537b0cd2fad9e9d0bc5165659b6c",
    "coloured_queens-base": "0ce565750d36f43f785222369f73b167ae2aa0b56b0335c6a1e108e9aafad1a3",
    "dubois-base": "a182513bf7ec12c2f0a7ae90ef10c3578816fdbb1cb80e77dfbe66e2761d52bb",
    "golomb_ruler-base": "78ca4c7b890dc4803afd277fa04d177a4e961594a6082cc20c4f0afc1c91e57c",
    "graceful_graph-base": "8e024de54be7b1dbd4ec4b8d1b0a129249e021ca3436c081e00165380904dc11",
    "graph_coloring-base": "7c68b89ccde0d3edba932a24e4f9200c08ef1497cca2ccb4e33d9be07666e2e9",
    "knapsack-base": "63fa96458040d7d6d09ea6b6945f35e3eb7d4b3cf65408e3ebb9c7b0a580c49f",
    "langford-base": "a4a559a1b92270c368d7c047e9f7391dbce917144a756886d79131ff06e1cd59",
    "low_autocorrelation-base": "e2f8a506a214c4f5c346906fff6940c1da50a72f3a47b8686e768d9e1378c2d9",
    "magic_hexagon-base": "681ac8abd19adfb77af8c3d877511259c0ab410cf32194649a37f700cc1b01e7",
    "magic_square-base": "e91b6a346dbb6224be242982f12d8148b32fcb9a4cb5a588ec82cf21ec93054f",
    "mario-base": "bf64573c31f63b2dcbe830b5ca940d30e16cb02c280a711bdd9cf8685a505c98",
    "mistery_shopper-base": "37ea3a7d68243e294a6515ef1c024a6e63b1eacec4e9aae6cb2b83b8e0457d75",
    "peacable_armies-m1": "49cba452dadd8e096d552257c029f842e0043350d491295c5744b116ffde8ce7",
    "peacable_armies-m2": "8ab9a3b2b5bfb1f2a11b1a26e763b410b7d9876b81fd11c259ce26d5523a94dc",
    "quadratic_assignment-base": "7bc40571dac640658ae131562c77b712df345a3e7786c1c62a10b8c462f7b877",
    "rcpsp-base": "7d05f81af55c1e1751601a602002dbacd8e9150fb8f13d71123092a39ea4ba11",
    "social_golfers-base": "d6d7b975ed0dda982dbe65890e0b40dc1a187ebeb94641ae80b599360067a0f9",
    "sports_scheduling-base": "b437381c4a147839f8b0fd4be4f9f6f9bea4badf7b4fc60971d570912bba978a",
    "still_life-base": "ddbdc0f3d04ea7a5b4d81791b3eeb9500f066707ac6b98cff9a4a78a5c1f7b11",
    "strip_packing-base": "ccfbe0207532aaf833a022d28a68bb6cfc60be5293157d021c6f099e8e6f2ae7",
    "subgraph_isomorphism-base": "b3916ce8665b6602df3c2d765dc0db647047c298299a892f03f5a2760a604940",
    "sum_coloring-base": "533663f45b5a0c3ab5ae5dcdb7d2a53d982763c1cab72565bb60ffdf87af2cbc",
    "travelling_salesman-base": "472c6d881aa997117cbecc17ae333ba050d971f2d07a28c85dadf318fb26ade4",
}


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: f"{r.problem_id}-{r.variant or 'base'}")
def test_written_instance_is_pinned(request_):
    digest = hashlib.sha256(write_instance(build(request_)).encode()).hexdigest()
    assert digest == WRITTEN_DIGESTS[f"{request_.problem_id}-{request_.variant or 'base'}"]


def test_every_generator_has_one_problem_row():
    gens = {name: getattr(generators, name) for name in generators.__all__ if name.startswith("gen_")}
    assert sorted(problem.gen.__name__ for problem in PROBLEMS.values()) == sorted(gens)
    for problem in PROBLEMS.values():
        assert gens[problem.gen.__name__] is problem.gen
        assert set(problem.options) <= {"variant", "drop_tags", "decision_vars", "clues"}
        args = [0] * len(problem.params) or [{}]
        inspect.signature(problem.gen).bind(*args, **dict.fromkeys(problem.options))


# every data-driven family with an empty payload, then one bad field each
MALFORMED_REQUESTS = [ProblemData(p, {}) for p, row in sorted(PROBLEMS.items()) if not row.params] + [
    ProblemData("knapsack", {"capacity": 3, "items": [{"value": 1}]}),
    ProblemData("graph_coloring", {"nNodes": 2, "nColors": 2, "edges": [[0, 5]]}),
    ProblemData("magic_square", {"n": 3, "clues": [[1]]}),
    ProblemData("rcpsp", 5),
    ProblemData("graph_coloring", {"nNodes": 3, "nColors": 2, "edges": [[0, 1, 2]]}),
]


@pytest.mark.parametrize("request_", MALFORMED_REQUESTS, ids=lambda r: r.problem_id)
def test_malformed_payload_is_a_schema_mismatch(request_):
    with pytest.raises(SchemaMismatchError, match=request_.problem_id):
        build(request_)


def test_bibd_takes_no_variant():
    with pytest.raises(UnknownVariantError):
        build(ProblemData("bibd", {"v": 7, "b": 7, "r": 3, "k": 3, "lambda": 1}, "sum"))


def test_bare_payloads():
    matrix = TSP_DATA["distances"]
    assert build(ProblemData("tsp", matrix)) == build(ProblemData("travelling_salesman", TSP_DATA))
    assert build(ProblemData("langford", 3)) == build(ProblemData("langford", {"n": 3}))
