"""The benchmark corpora: which instances each workload runs, in which
order, and the answer each one must give.

Every instance comes from the kit's own generators, so nothing is
downloaded. Parametric members are the same for every seed. The seed
draws the data of the data-driven members (TSP, knapsack, QAP, strip
packing) at fixed sizes and permutes the order of the whole corpus.
Reference answers for seeded members come from brute force or dynamic
programming here, never from the engine under test."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from xcspkit import generators as g

WORKLOADS = ("csp-search", "cop-bnb", "load", "campaign")


@dataclass(frozen=True)
class Member:
    """One corpus instance.

    ``mode`` is how the benchmark drives it: ``solve``, ``optimize``,
    ``count`` (``enumerate_all``) or ``load`` (no search). ``reference``
    returns the expected verdict: "SAT"/"UNSAT" for ``solve``, the optimum
    for ``optimize``, the solution count for ``count`` and None for
    ``load``. ``seeded`` members depend on the workload seed."""

    id: str
    build: Callable
    mode: str
    reference: Callable
    seeded: bool = False


def _known(value):
    return lambda: value


def _parametric(id_, build, mode, expected):
    return Member(id_, build, mode, _known(expected))


# -- seeded data and its independent references


def _tsp_data(rng: random.Random, n: int) -> list[list[int]]:
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 30)
    return d


def tsp_optimum(d) -> int:
    n = len(d)
    return min(
        sum(d[a][b] for a, b in zip((0,) + tour, tour + (0,)))
        for tour in itertools.permutations(range(1, n))
    )


def _knapsack_data(rng: random.Random, n: int) -> dict:
    items = [{"weight": rng.randint(1, 30), "value": rng.randint(1, 60)} for _ in range(n)]
    return {"capacity": sum(it["weight"] for it in items) // 2, "items": items}


def knapsack_optimum(data) -> int:
    best = [0] * (data["capacity"] + 1)
    for it in data["items"]:
        w, v = it["weight"], it["value"]
        for c in range(data["capacity"], w - 1, -1):
            best[c] = max(best[c], best[c - w] + v)
    return best[-1]


def _qap_data(rng: random.Random, n: int) -> dict:
    weights = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = rng.randint(0, 5)
    sites = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)]
    distances = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in sites] for a in sites]
    return {"weights": weights, "distances": distances}


def qap_optimum(data) -> int:
    w, d = data["weights"], data["distances"]
    n = len(w)
    return min(
        sum(w[i][j] * d[p[i]][p[j]] for i in range(n) for j in range(i + 1, n))
        for p in itertools.permutations(range(n))
    )


def _strip_data(rng: random.Random, width: int, height: int, pieces: int) -> dict:
    """Guillotine-cut the container into ``pieces`` rectangles, so a
    perfect packing exists and the reference verdict is SAT."""
    rects = [(width, height)]
    while len(rects) < pieces:
        rects.sort(key=lambda r: -r[0] * r[1])
        w, h = rects.pop(0)
        if (w >= h and w > 1) or h == 1:
            cut = rng.randint(1, w - 1)
            rects += [(cut, h), (w - cut, h)]
        else:
            cut = rng.randint(1, h - 1)
            rects += [(w, cut), (w, h - cut)]
    rng.shuffle(rects)
    return {
        "container": {"width": width, "height": height},
        "rectangles": [{"width": w, "height": h} for w, h in rects],
    }


def _seeded(rng: random.Random, tiny: bool) -> dict[str, Member]:
    tsp = _tsp_data(rng, 5 if tiny else 8)
    knapsack = _knapsack_data(rng, 6 if tiny else 20)
    qap = _qap_data(rng, 4 if tiny else 6)
    strip = _strip_data(rng, 4, 3, 3) if tiny else _strip_data(rng, 7, 5, 5)
    return {
        "tsp": Member(f"tsp-{len(tsp)}", lambda: g.gen_tsp({"distances": tsp}),
                      "optimize", lambda: tsp_optimum(tsp), True),
        "knapsack": Member(f"knapsack-{len(knapsack['items'])}", lambda: g.gen_knapsack(knapsack),
                           "optimize", lambda: knapsack_optimum(knapsack), True),
        "qap": Member(f"qap-{len(qap['weights'])}", lambda: g.gen_quadratic_assignment(qap),
                      "optimize", lambda: qap_optimum(qap), True),
        "strip": Member("strip-packing", lambda: g.gen_strip_packing(strip),
                        "solve", _known("SAT"), True),
    }


# -- the corpora


def _full(workload: str, seeded: dict[str, Member]) -> list[Member]:
    dubois = _parametric("dubois-12", lambda: g.gen_dubois(12), "solve", "UNSAT")
    hexagon = _parametric("magic-hexagon-3-1", lambda: g.gen_magic_hexagon(3, 1), "solve", "SAT")
    square = _parametric("magic-square-4", lambda: g.gen_magic_square(4), "solve", "SAT")
    labs = _parametric("labs-10", lambda: g.gen_low_autocorrelation(10), "optimize", 13)
    still_life = _parametric("still-life-4", lambda: g.gen_still_life(4), "optimize", 8)
    if workload == "csp-search":
        return [
            _parametric("langford-6", lambda: g.gen_langford(6), "solve", "UNSAT"),
            _parametric("langford-7", lambda: g.gen_langford(7), "solve", "SAT"),
            dubois,
            hexagon,
            square,
            seeded["strip"],
            _parametric("magic-square-3", lambda: g.gen_magic_square(3), "count", 8),
        ]
    if workload == "cop-bnb":
        return [
            _parametric("golomb-7", lambda: g.gen_golomb_ruler(7), "optimize", 25),
            still_life,
            labs,
            seeded["tsp"],
            seeded["knapsack"],
            seeded["qap"],
        ]
    if workload == "load":
        return [
            _parametric("still-life-12", lambda: g.gen_still_life(12), "load", None),
            _parametric("still-life-8", lambda: g.gen_still_life(8), "load", None),
            _parametric("labs-40", lambda: g.gen_low_autocorrelation(40), "load", None),
            _parametric("golomb-12", lambda: g.gen_golomb_ruler(12), "load", None),
            _parametric("social-golfers-4-4-4", lambda: g.gen_social_golfers(4, 4, 4), "load", None),
        ]
    # TSP-8 is left out: it is not fast, and its time moves six times with
    # the seed, which would set the campaign's makespan
    return [dubois, hexagon, square, seeded["strip"], labs, still_life,
            seeded["knapsack"], seeded["qap"]]


def _tiny(workload: str, seeded: dict[str, Member]) -> list[Member]:
    langford = _parametric("langford-3", lambda: g.gen_langford(3), "solve", "SAT")
    dubois = _parametric("dubois-4", lambda: g.gen_dubois(4), "solve", "UNSAT")
    golomb = _parametric("golomb-4", lambda: g.gen_golomb_ruler(4), "optimize", 6)
    if workload == "csp-search":
        return [langford, dubois, seeded["strip"],
                _parametric("magic-square-3", lambda: g.gen_magic_square(3), "count", 8)]
    if workload == "cop-bnb":
        return [golomb, seeded["tsp"], seeded["knapsack"], seeded["qap"]]
    if workload == "load":
        return [
            _parametric("still-life-3", lambda: g.gen_still_life(3), "load", None),
            _parametric("golomb-5", lambda: g.gen_golomb_ruler(5), "load", None),
        ]
    return [langford, golomb]


def members(workload: str, seed: int, tiny: bool = False) -> list[Member]:
    """The corpus of ``workload`` for ``seed``, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    seeded = _seeded(rng, tiny)
    corpus = (_tiny if tiny else _full)(workload, seeded)
    rng.shuffle(corpus)
    return corpus


def file_name(position: int, member: Member) -> str:
    """Instance file name; the position prefix keeps the seeded order for
    callers that sort by name, such as ``harness.run_campaign``."""
    return f"{position:02d}-{member.id}.xml"
