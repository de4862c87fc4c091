"""Property tests of the passes flagged ``idempotent``: on seeded random
stores, after a call that holds, a second call holds and changes no
domain. A constant-result ``Element`` also stays a no-op after any removal
of values outside its ``value_watch``. The engine skips a call only when
these hold."""

import random

import pytest

from test_prune_reference import _store
from xcspkit.engine import DomainStore, propagators
from xcspkit.engine.propagators import ElementProp, IntensionProp, TableProp, make_propagators
from xcspkit.expr import parse_expr
from xcspkit.model import STAR, Domain, Element, Extension, Intension, Variable, conflicts, supports

# -- random constraints over the store's variables


def _random_table(rng, store, polarity):
    # a scope may repeat a variable
    scope = tuple(rng.choice(store.names) for _ in range(rng.randint(1, 3)))
    domains = [store.init_values[store.index[v]] for v in scope]
    rows = {
        tuple(STAR if rng.random() < 0.1 else rng.choice(d) for d in domains)
        for _ in range(rng.randint(1, 12))
    }
    return Extension(scope, (supports if polarity == "supports" else conflicts)(len(scope), sorted(rows, key=str)))


_INTENSIONS = (
    "eq({0},add({1},{2}))",
    "ne({0},{1})",
    "le(add({0},{1}),{k})",
    "eq(dist({0},{1}),{2})",
    "or(eq({0},{k}),lt({1},{2}))",
    "gt(mul({0},{1}),{k})",
)


def _random_intension(rng, store):
    a, b, c = rng.sample(store.names, 3)
    return Intension(parse_expr(rng.choice(_INTENSIONS).format(a, b, c, k=rng.randint(-2, 6))))


def _random_element(rng, store, constant):
    names = list(store.names)
    rng.shuffle(names)
    index, value, cells = names[0], names[1], names[2:]
    cells = tuple(rng.choice(cells) for _ in range(rng.randint(1, 5)))
    if constant:
        value = rng.choice(store.init_values[store.index[rng.choice(cells)]])
    return Element(cells, index, value)


_CASES = {
    "compact-table": lambda rng, store: _random_table(rng, store, rng.choice(("supports", "conflicts"))),
    "residual-table": lambda rng, store: _random_table(rng, store, "conflicts"),
    "tabled-intension": _random_intension,
    "residual-intension": _random_intension,
    "element-constant": lambda rng, store: _random_element(rng, store, True),
    "element-variable": lambda rng, store: _random_element(rng, store, False),
}

# the pass each case must get, and the cap set to 0 to force the residual one
_SHAPES = {
    "compact-table": (TableProp, lambda p: p.supports is not None, None),
    "residual-table": (TableProp, lambda p: p.residues is not None, "_COMPLEMENT_CAP"),
    "tabled-intension": (IntensionProp, lambda p: p.supports is not None, None),
    "residual-intension": (IntensionProp, lambda p: p.residues is not None, "_TABLE_CAP"),
    "element-constant": (ElementProp, lambda p: p.value_watch is not None, None),
    "element-variable": (ElementProp, lambda p: p.value_watch is None, None),
}


def _remove_unwatched(rng, store, watch):
    """Remove random values outside the watched bits, never a last one."""
    for x, bits in watch.items():
        spare = store.masks[x] & ~bits
        drop = spare & rng.getrandbits(len(store.init_values[x]))
        if drop != store.masks[x]:
            store.remove_bits(x, drop)


@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("seed", range(4))
def test_a_second_call_prunes_nothing(case, seed, monkeypatch):
    cls, shape, cap = _SHAPES[case]
    if cap is not None:
        monkeypatch.setattr(propagators, cap, 0)
    rng = random.Random(f"{case}-{seed}")
    held = pruned = 0
    for _ in range(300):
        store = _store(rng, rng.randint(3, 7), range(-1, 3), 4)
        (prop,) = make_propagators([_CASES[case](rng, store)], store)
        assert isinstance(prop, cls) and prop.idempotent and shape(prop)
        mark = len(store._trail)
        if not prop.propagate(store):
            continue
        held += 1
        pruned += len(store._trail) > mark
        if prop.value_watch is not None:
            _remove_unwatched(rng, store, prop.value_watch)
        masks, mark = list(store.masks), len(store._trail)
        assert prop.propagate(store)
        assert (store.masks, len(store._trail)) == (masks, mark)
    assert held > 50 and pruned > 25


@pytest.mark.parametrize(
    "element, idempotent",
    [
        (Element(("a", "b"), "i", "v"), True),
        (Element(("a", "a"), "i", 1), True),
        (Element(("a", "i"), "i", "v"), False),  # the index is a cell
        (Element(("a", "v"), "i", "v"), False),  # the value is a cell
        (Element(("a", "b"), "i", "i"), False),  # the index is the value
    ],
)
def test_element_is_idempotent_when_index_value_and_cells_are_distinct(element, idempotent):
    store = DomainStore([Variable(name, Domain.rng(0, 2)) for name in ("a", "b", "i", "v")])
    (prop,) = make_propagators([element], store)
    assert prop.idempotent is idempotent
    assert (prop.value_watch is not None) is (idempotent and isinstance(element.value, int))


@pytest.mark.parametrize(
    "text, bounds_pass",
    [
        ("ne(a,add(b,i))", None),
        # arity 4, tabled at any arity (81 rows)
        ("ne(a,add(b,i,v))", None),
        # tabled (2,500 rows over y and z) although its product is above _SCAN_CAP
        ("eq(x,add(y,z))", None),
        # 125,000 rows: above both caps, and linear
        ("le(add(x,y,z),70)", "linear"),
        # 125,000 rows, not linear
        ("ne(x,mul(y,z))", "bounds_fn"),
    ],
)
def test_intension_is_idempotent_without_interval_filtering(text, bounds_pass):
    """Only a pass that narrows bounds, the Sum pass or the bounds closure,
    may leave a prune for a second call."""
    variables = [Variable(name, Domain.rng(0, 2)) for name in ("a", "b", "i", "v")]
    store = DomainStore(variables + [Variable(name, Domain.rng(0, 49)) for name in ("x", "y", "z")])
    (prop,) = make_propagators([Intension(parse_expr(text))], store)
    built = [name for name in ("supports", "linear", "bounds_fn") if getattr(prop, name) is not None]
    assert (built, prop.idempotent) == ([bounds_pass or "supports"], bounds_pass is None)
