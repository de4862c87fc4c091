"""Builders for the scalar-parameter benchmark families."""

from __future__ import annotations

import itertools

from ..errors import NonIntegralMagicError
from ..model import (
    AllDifferent,
    AllDifferentMatrix,
    Cardinality,
    Condition,
    Count,
    Domain,
    Extension,
    Instance,
    Instantiation,
    Intension,
    LexMatrix,
    Objective,
    Sum,
    conflicts,
    supports,
)
from ._base import Builder, add, check, dist, eq, ge, le, lor, lt, mul, ne, sub


def gen_dubois(n: int) -> Instance:
    """Contradictory 3-SAT family: 3n binary variables, 2n ternary tables."""
    check(n >= 3, f"dubois needs n >= 3, got {n}")
    odd = supports(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    even = supports(3, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.rng(0, 1)) for i in range(3 * n)]
    b.post(Extension((x[2 * n - 2], x[2 * n - 1], x[0]), odd))
    for i in range(n - 2):
        b.post(Extension((x[i], x[2 * n + i], x[i + 1]), odd))
    for i in range(2):
        b.post(Extension((x[n - 2 + i], x[3 * n - 2], x[3 * n - 1]), odd))
    for i in range(n, 2 * n - 2):
        b.post(Extension((x[i], x[4 * n - 3 - i], x[i - 1]), odd))
    b.post(Extension((x[2 * n - 2], x[2 * n - 1], x[2 * n - 3]), even))
    return b.instance()


def gen_langford(n: int) -> Instance:
    """Langford pairing L(2, n) with value/position channeling."""
    check(n >= 1, f"langford needs n >= 1, got {n}")
    b = Builder()
    v = [b.var(f"v[{i}]", Domain.rng(1, n)) for i in range(2 * n)]
    p = [b.var(f"p[{j}]", Domain.rng(0, 2 * n - 1)) for j in range(2 * n)]
    from ..model import Element

    for i in range(n):
        b.post(Element(tuple(v), p[2 * i], i + 1))
    for i in range(n):
        b.post(Element(tuple(v), p[2 * i + 1], i + 1))
    for i in range(n):
        b.post(Intension(eq(p[2 * i], add(i + 2, p[2 * i + 1]))))
    return b.instance()


def gen_golomb_ruler(n: int, decision_vars: bool = True) -> Instance:
    """Minimum-length ruler with n marks and pairwise-distinct distances."""
    check(n >= 2, f"golomb ruler needs n >= 2, got {n}")
    ruler_length = n * n + 1
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.rng(0, ruler_length - 1)) for i in range(n)]
    y: dict[tuple[int, int], str] = {}
    for i in range(n):
        for j in range(i + 1, n):
            y[i, j] = b.var(f"y[{i}][{j}]", Domain.rng(1, ruler_length - 1))
    b.post(AllDifferent(tuple(y[i, j] for i in range(n) for j in range(i + 1, n))))
    for i in range(n):
        for j in range(i + 1, n):
            b.post(Intension(eq(x[j], add(x[i], y[i, j]))))
    objective = Objective("minimize", "variable", (x[n - 1],))
    return b.instance(objective, x if decision_vars else ())


def gen_low_autocorrelation(n: int) -> Instance:
    """Binary sequence minimizing summed squared autocorrelations."""
    check(n >= 2, f"low autocorrelation needs n >= 2, got {n}")
    b = Builder()
    x = [b.var(f"x[{i}]", Domain.of(-1, 1)) for i in range(n)]
    y: dict[tuple[int, int], str] = {}
    for k in range(n - 1):
        for i in range(n - k - 1):
            y[k, i] = b.var(f"y[{k}][{i}]", Domain.of(-1, 1))
    c = [b.var(f"c[{k}]", Domain.rng(-n + k + 1, n - k - 1)) for k in range(n - 1)]
    s = [
        b.var(f"s[{k}]", Domain.of(*(v * v for v in range(n - k))))
        for k in range(n - 1)
    ]
    for k in range(n - 1):
        for i in range(n - k - 1):
            b.post(Intension(eq(y[k, i], mul(x[i], x[i + k + 1]))))
    for k in range(n - 1):
        row = tuple(y[k, i] for i in range(n - k - 1))
        b.post(Sum(row, (1,) * len(row), Condition("eq", c[k])))
    for k in range(n - 1):
        b.post(Intension(eq(s[k], mul(c[k], c[k]))))
    objective = Objective("minimize", "sum", tuple(s))
    return b.instance(objective)


def _hexagon_rows(n: int) -> list[int]:
    d = 2 * n - 1
    return [d - abs(d // 2 - i) for i in range(d)]


def gen_magic_hexagon(n: int, s: int, drop_tags=()) -> Instance:
    """Hexagonal array on values s..s+gap-1 where rows and both diagonal
    families share one magic sum."""
    check(n >= 2, f"magic hexagon needs n >= 2, got {n}")
    gap = 3 * n * n - 3 * n + 1
    total = sum(range(s, s + gap))
    if total % (2 * n - 1) != 0:
        raise NonIntegralMagicError(f"magic sum {total}/{2 * n - 1} is not integral")
    magic = total // (2 * n - 1)
    d = 2 * n - 1
    lengths = _hexagon_rows(n)
    b = Builder(drop_tags)
    x = [[b.var(f"x[{i}][{j}]", Domain.rng(s, s + gap - 1)) for j in range(lengths[i])] for i in range(d)]

    def diagonal(i: int, right: bool) -> tuple[str, ...]:
        v1 = max(0, d // 2 - i) if right else max(0, i - d // 2)
        v2 = d // 2 - v1
        length = d - abs(d // 2 - i)
        cells = []
        for j in range(length):
            off = (v2 - j) if right else (j - v2)
            cells.append(x[j + v1][i - max(0, off)])
        return tuple(cells)

    b.post(AllDifferent(tuple(cell for row in x for cell in row)))
    for i in range(d):
        b.post(Sum(tuple(x[i]), (1,) * lengths[i], Condition("eq", magic)))
    for i in range(d):
        scope = diagonal(i, True)
        b.post(Sum(scope, (1,) * len(scope), Condition("eq", magic)))
    for i in range(d):
        scope = diagonal(i, False)
        b.post(Sum(scope, (1,) * len(scope), Condition("eq", magic)))
    for lhs, rhs in (
        (x[0][0], x[0][n - 1]),
        (x[0][0], x[n - 1][d - 1]),
        (x[0][0], x[d - 1][n - 1]),
        (x[0][0], x[d - 1][0]),
        (x[0][0], x[n - 1][0]),
        (x[0][n - 1], x[n - 1][0]),
    ):
        b.post(Intension(lt(lhs, rhs)), "sym")
    return b.instance()


def gen_magic_square(n: int, clues=None) -> Instance:
    """n x n square of values 1..n^2 with equal row/column/diagonal sums."""
    check(n >= 1, f"magic square needs n >= 1, got {n}")
    magic = n * (n * n + 1) // 2
    b = Builder()
    x = [[b.var(f"x[{i}][{j}]", Domain.rng(1, n * n)) for j in range(n)] for i in range(n)]
    b.post(AllDifferent(tuple(cell for row in x for cell in row)))
    for i in range(n):
        b.post(Sum(tuple(x[i]), (1,) * n, Condition("eq", magic)))
    for j in range(n):
        b.post(Sum(tuple(x[i][j] for i in range(n)), (1,) * n, Condition("eq", magic)))
    b.post(Sum(tuple(x[i][i] for i in range(n)), (1,) * n, Condition("eq", magic)))
    b.post(Sum(tuple(x[n - 1 - i][i] for i in range(n)), (1,) * n, Condition("eq", magic)))
    if clues is not None:
        scope, values = [], []
        for i in range(n):
            for j in range(n):
                if clues[i][j] != 0:
                    scope.append(x[i][j])
                    values.append(clues[i][j])
        if scope:
            b.post(Instantiation(tuple(scope), tuple(values)))
    return b.instance()


def gen_coloured_queens(n: int) -> Instance:
    """Color the n x n queens graph with n colors."""
    check(n >= 1, f"coloured queens needs n >= 1, got {n}")
    b = Builder()
    x = [[b.var(f"x[{i}][{j}]", Domain.rng(0, n - 1)) for j in range(n)] for i in range(n)]
    b.post(AllDifferentMatrix(tuple(tuple(row) for row in x)))
    for c in range(-(n - 1), n):
        cells = tuple(x[i][i - c] for i in range(n) if 0 <= i - c < n)
        b.post(AllDifferent(cells))
    for c in range(0, 2 * n - 1):
        cells = tuple(x[i][c - i] for i in range(n) if 0 <= c - i < n)
        b.post(AllDifferent(cells))
    return b.instance()


def gen_social_golfers(n_groups: int, group_size: int, n_weeks: int, drop_tags=()) -> Instance:
    check(n_groups >= 1 and group_size >= 1 and n_weeks >= 1, "social golfers parameters must be positive")
    n_players = n_groups * group_size
    b = Builder(drop_tags)
    x = [[b.var(f"x[{w}][{p}]", Domain.rng(0, n_groups - 1)) for p in range(n_players)] for w in range(n_weeks)]
    groups = tuple(range(n_groups))
    for w in range(n_weeks):
        b.post(Cardinality(tuple(x[w]), groups, ((group_size, group_size),) * n_groups))
    for w1 in range(n_weeks):
        for w2 in range(w1 + 1, n_weeks):
            for p1 in range(n_players):
                for p2 in range(p1 + 1, n_players):
                    b.post(Intension(lor(ne(x[w1][p1], x[w1][p2]), ne(x[w2][p1], x[w2][p2]))))
    b.post(Instantiation(tuple(x[0]), tuple(p // group_size for p in range(n_players))), "sym")
    for k in range(group_size):
        if n_weeks > 1:
            scope = tuple(x[w][k] for w in range(1, n_weeks))
            b.post(Instantiation(scope, (k,) * len(scope)), "sym")
    b.post(LexMatrix(tuple(tuple(row) for row in x), "le"), "sym")
    return b.instance()


def _match_number(n_teams: int, t1: int, t2: int) -> int:
    n_possible = (n_teams - 1) * n_teams // 2
    return n_possible - ((n_teams - t1) * (n_teams - t1 - 1)) // 2 + (t2 - t1 - 1)


def gen_sports_scheduling(n_teams: int, drop_tags=()) -> Instance:
    """Round-robin schedule over periods and weeks, with the always-present
    dummy-week block."""
    check(n_teams >= 4 and n_teams % 2 == 0, f"sports scheduling needs an even n >= 4, got {n_teams}")
    n_weeks, n_periods = n_teams - 1, n_teams // 2
    n_possible = (n_teams - 1) * n_teams // 2
    matches = supports(
        3,
        [(t1, t2, _match_number(n_teams, t1, t2)) for t1 in range(n_teams) for t2 in range(t1 + 1, n_teams)],
    )
    b = Builder(drop_tags)
    h = [[b.var(f"h[{p}][{w}]", Domain.rng(0, n_teams - 1)) for w in range(n_weeks)] for p in range(n_periods)]
    a = [[b.var(f"a[{p}][{w}]", Domain.rng(0, n_teams - 1)) for w in range(n_weeks)] for p in range(n_periods)]
    m = [[b.var(f"m[{p}][{w}]", Domain.rng(0, n_possible - 1)) for w in range(n_weeks)] for p in range(n_periods)]
    teams = tuple(range(n_teams))

    b.post(AllDifferent(tuple(cell for row in m for cell in row)))
    for p in range(n_periods):
        for w in range(n_weeks):
            b.post(Extension((h[p][w], a[p][w], m[p][w]), matches))
    for w in range(n_weeks):
        scope = tuple(h[p][w] for p in range(n_periods)) + tuple(a[p][w] for p in range(n_periods))
        b.post(AllDifferent(scope))
    for p in range(n_periods):
        b.post(Cardinality(tuple(h[p]) + tuple(a[p]), teams, ((1, 2),) * n_teams))

    first_week = tuple(_match_number(n_teams, 2 * p, 2 * p + 1) for p in range(n_periods))
    b.post(Instantiation(tuple(m[p][0] for p in range(n_periods)), first_week), "sym")
    for w in range(n_weeks):
        scope = tuple(m[p][w] for p in range(n_periods))
        b.post(Count(scope, (_match_number(n_teams, 0, w + 1),), Condition("eq", 1)), "sym")

    hd = [b.var(f"hd[{p}]", Domain.rng(0, n_teams - 1)) for p in range(n_periods)]
    ad = [b.var(f"ad[{p}]", Domain.rng(0, n_teams - 1)) for p in range(n_periods)]
    b.post(AllDifferent(tuple(hd) + tuple(ad)))
    for p in range(n_periods):
        b.post(Cardinality((*h[p], hd[p], ad[p], *a[p]), teams, ((2, 2),) * n_teams))
    for p in range(n_periods):
        b.post(Intension(lt(hd[p], ad[p])), "sym")
    return b.instance()


def _still_life_accepts(t: tuple[int, ...]) -> bool:
    """Wastage predicate over a 3x3 neighborhood (row-major, center at 4)
    plus the wastage value at position 9."""
    s1 = t[0] + t[1] + t[2] + t[3] + t[5] + t[6] + t[7] + t[8]
    s2 = t[0] * t[2] + t[2] * t[8] + t[8] * t[6] + t[6] * t[0] + t[1] + t[3] + t[5] + t[7]
    s3 = t[1] + t[3] + t[5] + t[7]
    return (
        (t[4] != 1 or s1 >= 2)
        and (t[4] != 1 or s1 <= 3)
        and (t[4] != 0 or s1 != 3)
        and (t[4] != 1 or s2 > 1 or t[9] >= 1)
        and (t[4] != 1 or s2 > 0 or t[9] >= 2)
        and (t[4] != 0 or s3 < 4 or t[9] >= 2)
        and (t[4] != 0 or s3 > 1 or t[9] >= 1)
        and (t[4] != 0 or s3 > 0 or t[9] >= 2)
    )


def still_life_support_rows() -> list[tuple[int, ...]]:
    rows = []
    for cells in itertools.product((0, 1), repeat=9):
        for w in (0, 1, 2):
            t = cells + (w,)
            if _still_life_accepts(t):
                rows.append(t)
    return rows


def gen_still_life(n: int, drop_tags=()) -> Instance:
    """Maximum-density still life on an n x n board with a dead border,
    modeled through wastage accounting."""
    check(n >= 1, f"still life needs n >= 1, got {n}")
    size = n + 2
    b = Builder(drop_tags)
    x = [[b.var(f"x[{i}][{j}]", Domain.rng(0, 1)) for j in range(size)] for i in range(size)]
    w = [[b.var(f"w[{i}][{j}]", Domain.rng(0, 2)) for j in range(size)] for i in range(size)]
    ws = [b.var(f"ws[{i}]", Domain.rng(0, 2 * size * size)) for i in range(size)]
    z = b.var("z", Domain.rng(0, n * n))

    b.post(Instantiation(tuple(x[0]), (0,) * size))
    b.post(Instantiation(tuple(x[n + 1]), (0,) * size))
    b.post(Instantiation(tuple(x[i][0] for i in range(size)), (0,) * size))
    b.post(Instantiation(tuple(x[i][n + 1] for i in range(size)), (0,) * size))

    triple = conflicts(3, [(1, 1, 1)])
    # three live cells in a line next to the dead border would give birth in it
    for line in (x[1], x[n], [row[1] for row in x], [row[n] for row in x]):
        for k in range(n):
            b.post(Extension(tuple(line[k : k + 3]), triple))

    life = supports(10, still_life_support_rows())
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            neighborhood = tuple(x[i2][j2] for i2 in (i - 1, i, i + 1) for j2 in (j - 1, j, j + 1))
            b.post(Extension(neighborhood + (w[i][j],), life))

    for j in range(1, n + 1):
        b.post(Intension(eq(add(w[0][j], x[1][j]), 1)))
    for j in range(1, n + 1):
        b.post(Intension(eq(add(w[n + 1][j], x[n][j]), 1)))
    for i in range(1, n + 1):
        b.post(Intension(eq(add(w[i][0], x[i][1]), 1)))
    for i in range(1, n + 1):
        b.post(Intension(eq(add(w[i][n + 1], x[i][n]), 1)))

    for i in range(size):
        if i == 0:
            scope = tuple(w[0])
        else:
            scope = (ws[i - 1], *w[i])
        b.post(Sum(scope, (1,) * len(scope), Condition("eq", ws[i])))
    b.post(Sum((z, ws[n + 1]), (4, 1), Condition("eq", 2 * n * n + 4 * n)))
    for i in range(n + 1):
        b.post(Intension(ge(sub(ws[n + 1], ws[i]), 2 * ((n - i) // 3) + n // 3)), "red")

    return b.instance(Objective("maximize", "variable", (z,)))


def gen_graceful_graph(k: int, p: int) -> Instance:
    """Graceful labelling of K_k x P_p."""
    check(k >= 2 and p >= 1, f"graceful graph needs k >= 2 and p >= 1, got k={k}, p={p}")
    n_edges = (k * (k - 1) * p) // 2 + k * (p - 1)
    b = Builder()
    cn = [[b.var(f"cn[{i}][{j}]", Domain.rng(0, n_edges)) for j in range(k)] for i in range(p)]
    ce: dict[tuple[int, int, int], str] = {}
    for i in range(p):
        for j1 in range(k):
            for j2 in range(j1 + 1, k):
                ce[i, j1, j2] = b.var(f"ce[{i}][{j1}][{j2}]", Domain.rng(1, n_edges))
    cp = [[b.var(f"cp[{i}][{j}]", Domain.rng(1, n_edges)) for j in range(k)] for i in range(p - 1)]

    b.post(AllDifferent(tuple(cell for row in cn for cell in row)))
    edge_vars = tuple(ce[i, j1, j2] for i in range(p) for j1 in range(k) for j2 in range(j1 + 1, k))
    edge_vars += tuple(cell for row in cp for cell in row)
    b.post(AllDifferent(edge_vars))
    for i in range(p):
        for j1 in range(k):
            for j2 in range(j1 + 1, k):
                b.post(Intension(eq(ce[i, j1, j2], dist(cn[i][j1], cn[i][j2]))))
    for i in range(p - 1):
        for j in range(k):
            b.post(Intension(eq(cp[i][j], dist(cn[i][j], cn[i + 1][j]))))
    return b.instance()


def gen_peacable_armies(n: int, variant: str = "m1") -> Instance:
    """Equal-size black and white queen armies that never attack each other."""
    check(n >= 1, f"peacable armies needs n >= 1, got {n}")

    def aligned(i1, j1, i2, j2):
        return i1 == i2 or j1 == j2 or abs(i1 - i2) == abs(j1 - j2)

    if variant == "m1":
        b = Builder()
        bq = [[b.var(f"b[{i}][{j}]", Domain.rng(0, 1)) for j in range(n)] for i in range(n)]
        wq = [[b.var(f"w[{i}][{j}]", Domain.rng(0, 1)) for j in range(n)] for i in range(n)]
        for i1 in range(n):
            for j1 in range(n):
                for i2 in range(n):
                    for j2 in range(n):
                        if i1 == i2 and j1 == j2:
                            b.post(Intension(le(add(bq[i1][j1], wq[i1][j1]), 1)))
                        elif (i1 < i2 or (i1 == i2 and j1 < j2)) and aligned(i1, j1, i2, j2):
                            b.post(Intension(le(add(bq[i1][j1], wq[i2][j2]), 1)))
                            b.post(Intension(le(add(wq[i1][j1], bq[i2][j2]), 1)))
        flat_b = tuple(c for row in bq for c in row)
        flat_w = tuple(c for row in wq for c in row)
        b.post(Sum(flat_b + flat_w, (1,) * (n * n) + (-1,) * (n * n), Condition("eq", 0)))
        return b.instance(Objective("maximize", "sum", flat_b))

    if variant == "m2":
        b = Builder()
        x = [[b.var(f"x[{i}][{j}]", Domain.of(0, 1, 2)) for j in range(n)] for i in range(n)]
        nb = b.var("nb", Domain.rng(0, n * n // 2 - 1))
        nw = b.var("nw", Domain.rng(0, n * n // 2 - 1))
        for i1 in range(n):
            for j1 in range(n):
                for i2 in range(n):
                    for j2 in range(n):
                        if (i1 < i2 or (i1 == i2 and j1 < j2)) and aligned(i1, j1, i2, j2):
                            b.post(Intension(ne(add(x[i1][j1], x[i2][j2]), 3)))
        flat = tuple(c for row in x for c in row)
        b.post(Count(flat, (1,), Condition("eq", nb)))
        b.post(Count(flat, (2,), Condition("eq", nw)))
        b.post(Intension(eq(nb, nw)))
        return b.instance(Objective("maximize", "variable", (nb,)))

    from ..errors import UnknownVariantError

    raise UnknownVariantError("peacable_armies", variant)


def gen_bibd(v: int, blocks: int, r: int, k: int, lam: int, drop_tags=()) -> Instance:
    """Balanced incomplete block design as a 0/1 incidence matrix; the
    pairwise constraints are scalar products of variable rows."""
    check(v >= 2 and k >= 2 and lam >= 1, "bibd needs v >= 2, k >= 2, lambda >= 1")
    if blocks == 0:
        num = lam * v * (v - 1)
        den = k * (k - 1)
        check(num % den == 0, "bibd: derived b is not integral")
        blocks = num // den
    if r == 0:
        check((lam * (v - 1)) % (k - 1) == 0, "bibd: derived r is not integral")
        r = (lam * (v - 1)) // (k - 1)
    b = Builder(drop_tags)
    x = [[b.var(f"x[{i}][{j}]", Domain.rng(0, 1)) for j in range(blocks)] for i in range(v)]
    for i in range(v):
        b.post(Sum(tuple(x[i]), (1,) * blocks, Condition("eq", r)))
    for j in range(blocks):
        b.post(Sum(tuple(x[i][j] for i in range(v)), (1,) * v, Condition("eq", k)))
    for i in range(v):
        for j in range(i + 1, v):
            b.post(Sum(tuple(x[i]), tuple(x[j]), Condition("eq", lam)))
    b.post(LexMatrix(tuple(tuple(row) for row in x), "le"), "sym")
    return b.instance()
