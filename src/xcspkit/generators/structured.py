"""Builders for the data-file-driven benchmark families."""

from __future__ import annotations

from ..errors import UnknownVariantError
from ..model import (
    AllDifferent,
    Cardinality,
    Channel,
    Circuit,
    Condition,
    Count,
    Cumulative,
    Domain,
    Extension,
    Instance,
    Intension,
    LexMatrix,
    NoOverlap,
    Objective,
    Sum,
    conflicts,
    supports,
)
from ._base import Builder, add, check, eq, iff, imp, le, lt, ne


def gen_knapsack(data: dict) -> Instance:
    capacity, items = data["capacity"], data["items"]
    check(len(items) >= 1, "knapsack needs at least one item")
    weights = [it["weight"] for it in items]
    values = [it["value"] for it in items]
    check(capacity >= 0 and all(w >= 0 for w in weights) and all(v >= 0 for v in values),
          "knapsack weights, values and capacity must be non-negative")
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.rng(0, 1)) for i in range(len(items))]
    b.post(Sum(tuple(x), tuple(weights), Condition("le", capacity)))
    return b.instance(Objective("maximize", "sum", tuple(x), tuple(values)))


def gen_auction(data: dict, variant: str = "cnt") -> Instance:
    bids = data["bids"]
    check(len(bids) >= 1, "auction needs at least one bid")
    values = [bid["value"] for bid in bids]
    check(all(v >= 0 for v in values), "auction bid values must be non-negative")
    if variant not in ("cnt", "sum"):
        raise UnknownVariantError("auction", variant)
    all_items = sorted({item for bid in bids for item in bid["items"]})
    b = Builder()
    x = [b.var(f"b[{i}]", Domain.rng(0, 1)) for i in range(len(bids))]
    for item in all_items:
        scope = tuple(x[j] for j in range(len(bids)) if item in bids[j]["items"])
        if len(scope) > 1:
            if variant == "cnt":
                b.post(Count(scope, (1,), Condition("le", 1)))
            else:
                b.post(Sum(scope, (1,) * len(scope), Condition("le", 1)))
    return b.instance(Objective("maximize", "sum", tuple(x), tuple(values)))


def gen_bacp(data: dict, variant: str = "m1", decision_vars: bool = True) -> Instance:
    """Balanced academic curriculum; variant m2 swaps the channeling tables
    for implication + sum forms usable by restricted solvers."""
    n_periods = data["nPeriods"]
    min_credits, max_credits = data["minCredits"], data["maxCredits"]
    min_courses, max_courses = data["minCourses"], data["maxCourses"]
    credits = list(data["credits"])
    prerequisites = [tuple(p) for p in data["prerequisites"]]
    if variant not in ("m1", "m2"):
        raise UnknownVariantError("bacp", variant)
    check(n_periods >= 1, "bacp needs at least one period")
    n_courses = len(credits)
    b = Builder()
    s = [b.var(f"s[{c}]", Domain.rng(0, n_periods - 1)) for c in range(n_courses)]
    co = [b.var(f"co[{p}]", Domain.rng(min_courses, max_courses)) for p in range(n_periods)]
    cr = [b.var(f"cr[{p}]", Domain.rng(min_credits, max_credits)) for p in range(n_periods)]
    cp = [[b.var(f"cp[{c}][{p}]", Domain.of(0, credits[c])) for p in range(n_periods)] for c in range(n_courses)]

    if variant == "m1":
        for c in range(n_courses):
            rows = []
            for p in range(n_periods):
                row = [0] * n_periods + [p]
                row[p] = credits[c]
                rows.append(tuple(row))
            b.post(Extension(tuple(cp[c]) + (s[c],), supports(n_periods + 1, rows)))
    else:
        for c in range(n_courses):
            for p in range(n_periods):
                b.post(Intension.of(imp(eq(s[c], p), eq(cp[c][p], credits[c]))))
        for c in range(n_courses):
            b.post(Sum(tuple(cp[c]), (1,) * n_periods, Condition("eq", credits[c])))
    for p in range(n_periods):
        b.post(Count(tuple(s), (p,), Condition("eq", co[p])))
    for p in range(n_periods):
        b.post(Sum(tuple(cp[c][p] for c in range(n_courses)), (1,) * n_courses, Condition("eq", cr[p])))
    for before, after in prerequisites:
        b.post(Intension.of(lt(s[before], s[after])))
    objective = Objective("minimize", "maximum", tuple(cr))
    return b.instance(objective, s if decision_vars else ())


def gen_car_sequencing(data: dict, drop_tags=()) -> Instance:
    classes = data.get("carClasses", data.get("classes"))
    limits = data.get("optionLimits", data.get("limits"))
    demands = [cla["demand"] for cla in classes]
    check(all(d >= 1 for d in demands), "car sequencing demands must be positive")
    n_cars, n_options, n_classes = sum(demands), len(limits), len(classes)
    table = supports(1 + n_options, [(j, *classes[j]["options"]) for j in range(n_classes)])
    b = Builder(drop_tags)
    c = [b.var(f"c[{i}]", Domain.rng(0, n_classes - 1)) for i in range(n_cars)]
    o = [[b.var(f"o[{i}][{k}]", Domain.rng(0, 1)) for k in range(n_options)] for i in range(n_cars)]

    b.post(Cardinality(tuple(c), tuple(range(n_classes)), tuple((d, d) for d in demands)))
    for i in range(n_cars):
        b.post(Extension((c[i], *o[i]), table))
    for k in range(n_options):
        num, den = limits[k]["num"], limits[k]["den"]
        for i in range(n_cars):
            if i <= n_cars - den:
                scope = tuple(o[i2][k] for i2 in range(i, i + den))
                b.post(Sum(scope, (1,) * den, Condition("le", num)))
    for k in range(n_options):
        num, den = limits[k]["num"], limits[k]["den"]
        occurrences = sum(cla["options"][k] * cla["demand"] for cla in classes)
        for i in range(n_cars):
            remaining = occurrences - i * num
            possible = n_cars - i * den
            if remaining > 0 and possible > 0:
                scope = tuple(o[i2][k] for i2 in range(possible))
                b.post(Sum(scope, (1,) * possible, Condition("ge", remaining)), "red")
    return b.instance()


def gen_graph_coloring(data: dict) -> Instance:
    n_nodes, n_colors = data["nNodes"], data["nColors"]
    edges = [tuple(e) for e in data["edges"]]
    check(n_nodes >= 1 and n_colors >= 1, "graph coloring needs nodes and colors")
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.rng(0, n_colors - 1)) for i in range(n_nodes)]
    for u, v in edges:
        b.post(Intension.of(ne(x[u], x[v])))
    return b.instance(Objective("minimize", "maximum", tuple(x)))


def gen_sum_coloring(data: dict) -> Instance:
    n_nodes = data["nNodes"]
    edges = [tuple(e) for e in data["edges"]]
    check(n_nodes >= 1, "sum coloring needs at least one node")
    b = Builder()
    c = [b.var(f"c[{i}]", Domain.rng(0, n_nodes - 1)) for i in range(n_nodes)]
    for u, v in edges:
        b.post(Intension.of(ne(c[u], c[v])))
    return b.instance(Objective("minimize", "sum", tuple(c)))


def gen_mario(data: dict) -> Instance:
    """Prize-collecting tour: successor variables form a circuit through
    visited houses, self-loops mark skipped ones."""
    mario, luigi = data["marioHouse"], data["luigiHouse"]
    fuel_limit = data["fuelLimit"]
    houses = data["houses"]
    n = len(houses)
    check(n >= 2, "mario needs at least two houses")
    check(0 <= mario < n and 0 <= luigi < n and mario != luigi, "bad mario/luigi houses")
    fuel_rows = [h.get("fuelConsumption", h.get("fuel")) for h in houses]
    golds = [h["gold"] for h in houses]
    check(all(isinstance(row, list) and len(row) == n for row in fuel_rows), "fuel matrix must be n x n")
    check(fuel_limit >= 0, "fuel limit must be non-negative")
    b = Builder()
    s = [b.var(f"s[{i}]", Domain.rng(0, n - 1)) for i in range(n)]
    f = [b.var(f"f[{i}]", Domain.of(*fuel_rows[i])) for i in range(n)]
    g = [b.var(f"g[{i}]", Domain.of(0, golds[i])) for i in range(n)]
    for i in range(n):
        rows = [(j, fuel_rows[i][j]) for j in range(n)]
        b.post(Extension((s[i], f[i]), supports(2, rows)))
    b.post(Sum(tuple(f), (1,) * n, Condition("le", fuel_limit)))
    for i in range(n):
        if i not in (mario, luigi):
            b.post(Intension.of(iff(eq(s[i], i), eq(g[i], 0))))
    b.post(Circuit(tuple(s)))
    b.post(Intension.of(eq(s[luigi], mario)))
    return b.instance(Objective("maximize", "sum", tuple(g)))


def gen_mistery_shopper(data: dict, drop_tags=()) -> Instance:
    visitor_groups = list(data["visitorGroups"])
    visitee_groups = list(data["visiteeGroups"])
    n_visitors, n_visitees = sum(visitor_groups), sum(visitee_groups)
    check(n_visitees <= n_visitors, "mistery shopper needs nVisitees <= nVisitors")
    n = n_visitors
    n_dummy = n_visitors - n_visitees
    if n_dummy > 0:
        visitee_groups = visitee_groups + [n_dummy]
    n_vgroups, n_egroups = len(visitor_groups), len(visitee_groups)
    n_weeks = n_vgroups

    def number_per(group_sizes):
        rows, cnt = [], 0
        for gi, size in enumerate(group_sizes):
            for _ in range(size):
                rows.append((gi, cnt))
                cnt += 1
        return supports(2, rows)

    visitor_table = number_per(visitor_groups)
    visitee_table = number_per(visitee_groups)
    b = Builder(drop_tags)
    vr = [[b.var(f"vr[{i}][{w}]", Domain.rng(0, n - 1)) for w in range(n_weeks)] for i in range(n)]
    ve = [[b.var(f"ve[{i}][{w}]", Domain.rng(0, n - 1)) for w in range(n_weeks)] for i in range(n)]
    gvr = [[b.var(f"gvr[{i}][{w}]", Domain.rng(0, n_vgroups - 1)) for w in range(n_weeks)] for i in range(n)]
    gve = [[b.var(f"gve[{i}][{w}]", Domain.rng(0, n_egroups - 1)) for w in range(n_weeks)] for i in range(n)]

    for w in range(n_weeks):
        b.post(AllDifferent(tuple(vr[i][w] for i in range(n))))
    for w in range(n_weeks):
        b.post(AllDifferent(tuple(ve[i][w] for i in range(n))))
    for i in range(n):
        b.post(AllDifferent(tuple(gvr[i])))
    for i in range(n):
        b.post(AllDifferent(tuple(gve[i])))
    for w in range(n_weeks):
        b.post(Channel(tuple(vr[i][w] for i in range(n)), tuple(ve[i][w] for i in range(n))))
    for i in range(n):
        for w in range(n_weeks):
            b.post(Extension((gvr[i][w], vr[i][w]), visitor_table))
    for i in range(n):
        for w in range(n_weeks):
            b.post(Extension((gve[i][w], ve[i][w]), visitee_table))
    b.post(LexMatrix(tuple(tuple(row) for row in vr), "le"), "sym")
    if n_dummy > 0:
        for w in range(n_weeks):
            for i in range(n_visitees, n - 1):
                b.post(Intension.of(lt(vr[i][w], vr[i + 1][w])), "sym")
    return b.instance()


def gen_quadratic_assignment(data: dict) -> Instance:
    weights = [list(row) for row in data["weights"]]
    distances = [list(row) for row in data["distances"]]
    n = len(weights)
    check(n >= 2 and all(len(r) == n for r in weights), "weights must be square")
    check(len(distances) == n and all(len(r) == n for r in distances), "distances must match weights")
    table = supports(3, [(i, j, distances[i][j]) for i in range(n) for j in range(n) if i != j])
    dist_values = Domain.of(*(v for row in distances for v in row))
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.rng(0, n - 1)) for i in range(n)]
    d: dict[tuple[int, int], str] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i][j] != 0:
                d[i, j] = b.var(f"d[{i}][{j}]", dist_values)
    b.post(AllDifferent(tuple(x)))
    for (i, j), dij in d.items():
        b.post(Extension((x[i], x[j], dij), table))
    coeffs = tuple(weights[i][j] for i, j in d)
    return b.instance(Objective("minimize", "sum", tuple(d.values()), coeffs))


def gen_rcpsp(data: dict) -> Instance:
    horizon = data["horizon"]
    capacities = list(data["resourceCapacities"])
    jobs = data["jobs"]
    n_jobs = len(jobs)
    check(n_jobs >= 2 and horizon >= 1, "rcpsp needs jobs and a positive horizon")
    b = Builder()
    s = [
        b.var(f"s[{i}]", Domain.of(0) if i == 0 else Domain.rng(0, horizon - 1))
        for i in range(n_jobs)
    ]
    for i, job in enumerate(jobs):
        for successor in job["successors"]:
            b.post(Intension.of(le(add(s[i], job["duration"]), s[successor])))
    for j, capacity in enumerate(capacities):
        indexes = [i for i in range(n_jobs) if jobs[i]["requiredQuantities"][j] > 0]
        if indexes:
            b.post(
                Cumulative(
                    tuple(s[i] for i in indexes),
                    tuple(jobs[i]["duration"] for i in indexes),
                    tuple(jobs[i]["requiredQuantities"][j] for i in indexes),
                    capacity,
                )
            )
    return b.instance(Objective("minimize", "variable", (s[n_jobs - 1],)))


def gen_strip_packing(data: dict) -> Instance:
    items = data.get("rectangles", data.get("items"))
    container = data["container"]
    width, height = container["width"], container["height"]
    n = len(items)
    check(n >= 1 and width >= 1 and height >= 1, "strip packing needs items and a container")
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.rng(0, width - 1)) for i in range(n)]
    y = [b.var(f"y[{i}]", Domain.rng(0, height - 1)) for i in range(n)]
    w = [b.var(f"w[{i}]", Domain.of(items[i]["width"], items[i]["height"])) for i in range(n)]
    h = [b.var(f"h[{i}]", Domain.of(items[i]["width"], items[i]["height"])) for i in range(n)]
    r = [b.var(f"r[{i}]", Domain.rng(0, 1)) for i in range(n)]
    for i in range(n):
        b.post(Intension.of(le(add(x[i], w[i]), width)))
    for i in range(n):
        b.post(Intension.of(le(add(y[i], h[i]), height)))
    for i in range(n):
        wi, hi = items[i]["width"], items[i]["height"]
        b.post(Extension((r[i], w[i], h[i]), supports(3, [(0, wi, hi), (1, hi, wi)])))
    b.post(NoOverlap(tuple((x[i], y[i]) for i in range(n)), tuple((w[i], h[i]) for i in range(n))))
    return b.instance()


def gen_subgraph_isomorphism(data: dict, drop_tags=()) -> Instance:
    n_pattern, n_target = data["nPatternNodes"], data["nTargetNodes"]
    pattern_edges = [tuple(e) for e in data["patternEdges"]]
    target_edges = [tuple(e) for e in data["targetEdges"]]
    check(n_pattern >= 1 and n_target >= 1, "graphs must be non-empty")

    def self_loops(edges):
        return [t[0] for t in edges if t[0] == t[1]]

    def degree(edges, node):
        return sum(1 for t in edges if t[0] == node or t[1] == node)

    p_loops, t_loops = self_loops(pattern_edges), self_loops(target_edges)
    p_degrees = [degree(pattern_edges, i) for i in range(n_pattern)]
    t_degrees = [degree(target_edges, i) for i in range(n_target)]
    both_ways = supports(2, list(target_edges) + [(b_, a_) for a_, b_ in target_edges])

    b = Builder(drop_tags)
    x = [b.var(f"x[{i}]", Domain.rng(0, n_target - 1)) for i in range(n_pattern)]
    b.post(AllDifferent(tuple(x)))
    for node in p_loops:
        b.post(Extension((x[node],), supports(1, [(t,) for t in t_loops])))
    for a_, b_ in pattern_edges:
        b.post(Extension((x[a_], x[b_]), both_ways))
    for i in range(n_pattern):
        bad = [j for j in range(n_target) if t_degrees[j] < p_degrees[i]]
        if bad:
            b.post(Extension((x[i],), conflicts(1, [(j,) for j in bad])), "red")
    return b.instance()


def gen_tsp(data: dict) -> Instance:
    distances = data["distances"] if isinstance(data, dict) else data
    n = len(distances)
    check(n >= 3, "tsp needs at least 3 cities")
    check(all(len(row) == n for row in distances), "distance matrix must be square")
    check(all(distances[i][i] == 0 for i in range(n)), "distance matrix must have a zero diagonal")
    check(
        all(distances[i][j] == distances[j][i] for i in range(n) for j in range(n)),
        "distance matrix must be symmetric",
    )
    table = supports(3, [(i, j, distances[i][j]) for i in range(n) for j in range(n) if i != j])
    values = Domain.of(*(v for row in distances for v in row))
    b = Builder()
    c = [b.var(f"c[{i}]", Domain.rng(0, n - 1)) for i in range(n)]
    d = [b.var(f"d[{i}]", values) for i in range(n)]
    b.post(AllDifferent(tuple(c)))
    for i in range(n):
        b.post(Extension((c[i], c[(i + 1) % n], d[i]), table))
    return b.instance(Objective("minimize", "sum", tuple(d)))
