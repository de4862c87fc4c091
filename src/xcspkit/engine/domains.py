"""Trailed bitset domain store.

Each variable's current domain is an int bitmask over its initial value
list; removals are logged on a trail so that popping a level restores
domains exactly. Initial value lists must be strictly ascending, so bit
order is value order; the store refuses any other."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from ..errors import InvalidInstanceError
from ..model import Variable


class DomainStore:
    __slots__ = ("names", "index", "init_values", "pos", "full", "masks", "_trail", "_marks", "touched")

    def __init__(self, variables: Sequence[Variable]):
        self.names = [v.id for v in variables]
        self.index = {name: x for x, name in enumerate(self.names)}
        self.init_values = [tuple(v.domain.values) for v in variables]
        for v, vals in zip(variables, self.init_values):
            if vals != tuple(sorted(set(vals))):
                raise InvalidInstanceError(f"domain of {v.id!r} is not strictly ascending")
        self.pos = [{val: i for i, val in enumerate(vals)} for vals in self.init_values]
        self.full = [(1 << len(vals)) - 1 for vals in self.init_values]
        self.masks = list(self.full)
        self._trail: list[tuple[int, int]] = []
        self._marks: list[int] = []
        # the removals since the engine last read them, as the trail's own
        # (variable, removed bits) entries; the engine clears this list in
        # place, so it is never rebound
        self.touched: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.names)

    def indices(self, ids) -> tuple[int, ...]:
        """The variable indices of the given variable ids."""
        index = self.index
        return tuple(index[v] for v in ids)

    # -- state inspection

    def size(self, x: int) -> int:
        return self.masks[x].bit_count()

    def is_assigned(self, x: int) -> bool:
        m = self.masks[x]
        return m != 0 and m & (m - 1) == 0

    def value(self, x: int) -> int:
        return self.init_values[x][self.masks[x].bit_length() - 1]

    def min_value(self, x: int) -> int:
        m = self.masks[x]
        return self.init_values[x][(m & -m).bit_length() - 1]

    def max_value(self, x: int) -> int:
        return self.init_values[x][self.masks[x].bit_length() - 1]

    def contains(self, x: int, value: int) -> bool:
        bit = self.pos[x].get(value)
        return bit is not None and self.masks[x] >> bit & 1 == 1

    def values(self, x: int) -> Iterator[int]:
        m = self.masks[x]
        vals = self.init_values[x]
        while m:
            low = m & -m
            yield vals[low.bit_length() - 1]
            m ^= low

    def bounds(self, x: int) -> tuple[int, int]:
        """``(min_value(x), max_value(x))``, from one read of the mask."""
        m = self.masks[x]
        vals = self.init_values[x]
        return vals[(m & -m).bit_length() - 1], vals[m.bit_length() - 1]

    def domain_list(self, x: int) -> list[int]:
        return list(self.values(x))

    def value_mask(self, x: int, values) -> int:
        """Bitmask of the given values (those inside the initial domain)."""
        mask = 0
        pos = self.pos[x]
        for v in values:
            bit = pos.get(v)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def interval_mask(self, x: int, lo: int, hi: int) -> int:
        """Bitmask of the initial values in ``lo..hi``."""
        vals = self.init_values[x]
        first, end = bisect_left(vals, lo), bisect_right(vals, hi)
        return (1 << end) - (1 << first) if first < end else 0

    # -- mutation (trailed)

    def remove_bits(self, x: int, bits: int) -> bool:
        bits &= self.masks[x]
        if not bits:
            return True
        new = self.masks[x] & ~bits
        event = (x, bits)
        self._trail.append(event)
        self.masks[x] = new
        self.touched.append(event)
        return new != 0

    def keep_bits(self, x: int, bits: int) -> bool:
        return self.remove_bits(x, self.masks[x] & ~bits)

    def remove_value(self, x: int, value: int) -> bool:
        bit = self.pos[x].get(value)
        if bit is None or self.masks[x] >> bit & 1 == 0:
            return True
        return self.remove_bits(x, 1 << bit)

    def assign(self, x: int, value: int) -> bool:
        bit = self.pos[x].get(value)
        if bit is None or self.masks[x] >> bit & 1 == 0:
            return self.remove_bits(x, self.masks[x])
        return self.remove_bits(x, self.masks[x] & ~(1 << bit))

    def keep_values(self, x: int, values) -> bool:
        return self.keep_bits(x, self.value_mask(x, values))

    def restrict(self, x: int, lo: int, hi: int) -> bool:
        """Keep only the values in ``lo..hi``; False when none is left.
        When the minimum and the maximum already lie in ``lo..hi`` no value
        is removed, so it returns True at once: no mask is built, and
        nothing is trailed or touched."""
        vmin, vmax = self.bounds(x)
        if lo <= vmin and vmax <= hi:
            return True
        return self.keep_bits(x, self.interval_mask(x, lo, hi))

    # -- trail

    def push(self) -> None:
        self._marks.append(len(self._trail))

    def pop(self) -> None:
        mark = self._marks.pop()
        while len(self._trail) > mark:
            x, bits = self._trail.pop()
            self.masks[x] |= bits
