"""Integer finite domains, the variable store, and trail-based backtracking.

A domain is an anchored bitmask: bit ``i`` of ``mask`` set means the value
``anchor + i`` is present, with the cached ``size``, ``min`` and ``max``.
Each shrink logs one trail entry of all four fields before it (Python
ints are immutable, so that is four references); restoring a level
reinstalls the saved fields in reverse order, which makes restoration
exact by construction and recomputes nothing.  The store keeps the one
stack of levels (each level's trail start and a copy of the propagator
states), the states themselves, and a mark per variable of the events
(min moved, max moved, fixed) since its watchers were last advised.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator, Sequence


class ChangeOutcome(enum.Enum):
    """Result of a domain-shrinking operation."""

    UNCHANGED = 0
    SHRUNK = 1
    WOULD_EMPTY = 2


UNCHANGED = ChangeOutcome.UNCHANGED
SHRUNK = ChangeOutcome.SHRUNK
WOULD_EMPTY = ChangeOutcome.WOULD_EMPTY

# the events a shrink operation ORs into ``DomainStore.moved[x]``
MIN_MOVED, MAX_MOVED, FIXED = 1, 2, 4

# ln(k) for domain sizes k; every store grows it to its largest domain
_LOG: list[float] = [0.0, 0.0]


def _grow_log(size: int) -> None:
    if size >= len(_LOG):
        _LOG.extend(math.log(k) for k in range(len(_LOG), size + 1))


class FiniteDomain:
    """Non-empty set of integers with cached ``min``, ``max`` and ``size``.

    Mutation goes through the owning :class:`DomainStore` so every change
    is trailed.
    """

    __slots__ = ("anchor", "mask", "size", "min", "max")

    def __init__(self, lo: int, hi: int):
        if hi < lo:
            raise ValueError(f"empty domain [{lo}, {hi}]")
        self.anchor = lo
        self._set_mask((1 << (hi - lo + 1)) - 1)

    @classmethod
    def from_mask(cls, anchor: int, mask: int) -> "FiniteDomain":
        """The values ``anchor + i`` for each bit ``i`` set in ``mask``."""
        d = cls(anchor, anchor)
        d._set_mask(mask)
        return d

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "FiniteDomain":
        vals = sorted(set(values))
        if not vals:
            raise ValueError("empty domain")
        return cls.from_mask(vals[0], sum(1 << (v - vals[0]) for v in vals))

    def _set_mask(self, mask: int) -> None:
        self.mask = mask
        self.size = mask.bit_count()
        self.min = self.anchor + ((mask & -mask).bit_length() - 1)
        self.max = self.anchor + (mask.bit_length() - 1)

    def __contains__(self, v: int) -> bool:
        i = v - self.anchor
        return i >= 0 and (self.mask >> i) & 1 == 1

    def values(self) -> Iterator[int]:
        """Iterate present values in ascending order."""
        m = self.mask
        a = self.anchor
        while m:
            low = m & -m
            yield a + low.bit_length() - 1
            m ^= low

    def __repr__(self) -> str:
        if self.size > 12:
            return f"FiniteDomain(min={self.min}, max={self.max}, size={self.size})"
        return f"FiniteDomain({{{', '.join(map(str, self.values()))}}})"


class Trail:
    """Chronological undo log of ``(var, mask, size, min, max)`` entries,
    one per shrink, each the fields of the variable's domain before it.
    A variable shrunk twice since a point is logged twice; replaying the
    entries in reverse reinstalls the oldest fields last.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple[int, int, int, int, int]] = []

    def record(self, x: int, d: FiniteDomain) -> None:
        self.entries.append((x, d.mask, d.size, d.min, d.max))

    def pop_to(self, start: int) -> list[tuple[int, int, int, int, int]]:
        """Cut the log at index ``start`` and return the cut entries (in
        the order they were logged)."""
        undo = self.entries[start:]
        del self.entries[start:]
        return undo


class DomainStore:
    """All variable domains, the propagator states and the trail; the
    single mutable solver state.

    ``states`` maps a propagator id to the summary of its scope that the
    propagator keeps between engine calls (see ``Engine.propagate``); a
    missing id means none.  Each level is one pair on a stack: the trail
    index where the level starts and a shallow copy of ``states``.
    ``push_level`` pushes it and ``restore_to`` cuts the trail there and
    reinstalls the copy, so a state is replaced by assignment to
    ``states[pid]``, never mutated in place, and nothing may hold on to
    ``states`` across a restore.

    ``moved[x]`` ORs the events of ``x`` since its watchers were last
    advised: ``MIN_MOVED`` when a shrink operation raised the min,
    ``MAX_MOVED`` when it lowered the max and ``FIXED`` when it left one
    value.  Each operation sets only what it changes, so an interior
    removal sets nothing.  The engine clears the mark when it advises the
    watchers of ``x``, and ``forget_states`` clears every mark, so every
    mark is 0 between engine calls unless the store was edited directly.
    """

    __slots__ = ("domains", "trail", "states", "moved", "_levels")

    def __init__(self, domains: Sequence[FiniteDomain]):
        self.domains: list[FiniteDomain] = list(domains)
        self.trail = Trail()
        self.states: dict[int, object] = {}
        self.moved = bytearray(len(self.domains))
        self._levels: list[tuple[int, dict[int, object]]] = []  # (trail start, states)
        _grow_log(max((d.size for d in self.domains), default=1))

    @property
    def level(self) -> int:
        return len(self._levels)

    def push_level(self) -> int:
        self._levels.append((len(self.trail.entries), self.states.copy()))
        return len(self._levels)

    def restore_to(self, k: int) -> None:
        """Rewind every domain and propagator state to what it was when
        ``push_level`` returned ``k``; leaves the store at level ``k - 1``.
        Changes made at level 0 (the root) are permanent."""
        levels = self._levels
        if not 1 <= k <= len(levels):
            raise ValueError(f"cannot restore to level {k} from level {len(levels)}")
        start, self.states = levels[k - 1]
        del levels[k - 1:]
        domains = self.domains
        for x, mask, size, lo, hi in reversed(self.trail.pop_to(start)):
            d = domains[x]
            d.mask = mask
            d.size = size
            d.min = lo
            d.max = hi

    def forget_states(self) -> None:
        """Drop every propagator state and clear every mark, so that each
        propagator's next engine call rescans."""
        self.states.clear()
        self.moved[:] = bytes(len(self.moved))

    # -- shrinking operations; WOULD_EMPTY always leaves the domain it would
    # have emptied untouched.  Each sets only the domain fields it changes,
    # and marks only its events.

    def remove_value(self, x: int, v: int) -> ChangeOutcome:
        d = self.domains[x]
        i = v - d.anchor
        if i < 0 or (d.mask >> i) & 1 == 0:
            return UNCHANGED
        size = d.size
        if size == 1:
            return WOULD_EMPTY
        self.trail.record(x, d)
        d.mask = mask = d.mask ^ (1 << i)
        d.size = size - 1
        if v == d.min:
            d.min = d.anchor + (mask & -mask).bit_length() - 1
            self.moved[x] |= MIN_MOVED | FIXED if size == 2 else MIN_MOVED
        elif v == d.max:
            d.max = d.anchor + mask.bit_length() - 1
            self.moved[x] |= MAX_MOVED | FIXED if size == 2 else MAX_MOVED
        return SHRUNK

    def remove_bits(
        self, xs: Sequence[int], bits: int, base: int, changed: list[int]
    ) -> ChangeOutcome:
        """Remove the values ``v`` whose bit ``v - base`` is set in ``bits``
        from each domain of ``xs`` that holds more than one value, in the
        order of ``xs``, appending each domain it shrinks to ``changed``;
        every anchor must be at least ``base``.  Returns SHRUNK if one
        shrank, else UNCHANGED, or WOULD_EMPTY at the first domain it would
        empty, which it leaves as it was: the domains shrunk before it stay
        shrunk and trailed, one entry each.  The same ops on one variable
        and one value at a time leave the same domains, marks and
        ``changed``, with one entry per removed value."""
        domains = self.domains
        moved = self.moved
        log = self.trail.entries.append
        count = len(changed)
        for x in xs:
            d = domains[x]
            size = d.size
            if size == 1:
                continue
            mask = d.mask
            gone = mask & bits >> (d.anchor - base)
            if not gone:
                continue
            if gone == mask:
                return WOULD_EMPTY
            log((x, mask, size, d.min, d.max))
            d.mask = new = mask ^ gone
            d.size = size = size - gone.bit_count()
            events = 0
            if gone & -mask:  # gone holds mask's lowest bit (-mask: it and bits not in mask)
                d.min = d.anchor + (new & -new).bit_length() - 1
                events = MIN_MOVED
            if gone > new:  # gone holds mask's highest bit (the two split mask's bits)
                d.max = d.anchor + new.bit_length() - 1
                events |= MAX_MOVED
            if events:
                moved[x] |= events | FIXED if size == 1 else events
            changed.append(x)
        return SHRUNK if len(changed) > count else UNCHANGED

    def assign(self, x: int, v: int) -> ChangeOutcome:
        d = self.domains[x]
        i = v - d.anchor
        if i < 0 or (d.mask >> i) & 1 == 0:
            return WOULD_EMPTY
        if d.size == 1:
            return UNCHANGED
        self.trail.record(x, d)
        self.moved[x] |= FIXED | (v != d.min) * MIN_MOVED | (v != d.max) * MAX_MOVED
        d.mask = 1 << i
        d.size = 1
        d.min = d.max = v
        return SHRUNK

    def tighten_min(self, x: int, lb: int) -> ChangeOutcome:
        d = self.domains[x]
        if lb <= d.min:
            return UNCHANGED
        if lb > d.max:
            return WOULD_EMPTY
        self.trail.record(x, d)
        d.mask = mask = d.mask >> (lb - d.anchor) << (lb - d.anchor)
        d.size = size = mask.bit_count()
        d.min = d.anchor + (mask & -mask).bit_length() - 1
        self.moved[x] |= MIN_MOVED | FIXED if size == 1 else MIN_MOVED
        return SHRUNK

    def tighten_max(self, x: int, ub: int) -> ChangeOutcome:
        d = self.domains[x]
        if ub >= d.max:
            return UNCHANGED
        if ub < d.min:
            return WOULD_EMPTY
        self.trail.record(x, d)
        d.mask = mask = d.mask & ((1 << (ub - d.anchor + 1)) - 1)
        d.size = size = mask.bit_count()
        d.max = d.anchor + mask.bit_length() - 1
        self.moved[x] |= MAX_MOVED | FIXED if size == 1 else MAX_MOVED
        return SHRUNK

    # -- queries --

    def search_space_log_size(self) -> float:
        """ln of the product of all domain sizes (log form avoids overflow)."""
        log = _LOG
        total = 0.0
        for d in self.domains:  # not ``sum``: from 3.12 it compensates float sums
            total += log[d.size]
        return total

    def assignment(self) -> list[int]:
        """Values of all variables; every domain must be a singleton."""
        vals = []
        for x, d in enumerate(self.domains):
            if d.size != 1:
                raise ValueError(f"variable {x} is not bound")
            vals.append(d.min)
        return vals
