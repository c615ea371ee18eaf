"""Integer finite domains, the variable store, and trail-based backtracking.

A domain is an anchored bitmask: bit ``i`` of ``mask`` set means the value
``anchor + i`` is present.  Python ints are immutable, so a trail snapshot
is just the old mask reference; restoring a level re-installs saved masks
in reverse order, which makes restoration exact by construction.  The
store also keeps the propagator states, a copy of them per level, and a
mark per variable whose bounds moved since its watchers were last advised.
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

# memoized ln(k) for domain sizes; grown on demand
_LOG: list[float] = [0.0, 0.0]


def _log_of(size: int) -> float:
    if size >= len(_LOG):
        _LOG.extend(math.log(k) for k in range(len(_LOG), size + 1))
    return _LOG[size]


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
    """Chronological undo log of (var, old mask) pairs.

    The log is cut into segments: a new one starts at each ``push``, each
    ``pop_to`` and each ``segment`` call.  A variable is logged at most once
    per segment, when it first shrinks there, so the entries of a segment
    list exactly the variables it shrank.  A level may span several
    segments and hold several entries for one variable; replaying them in
    reverse reinstalls the oldest mask last.
    """

    __slots__ = ("entries", "_marks", "_epoch", "_stamps")

    def __init__(self, nvars: int):
        self.entries: list[tuple[int, int]] = []
        self._marks: list[int] = []
        self._epoch = 0
        self._stamps = [-1] * nvars

    @property
    def level(self) -> int:
        return len(self._marks)

    def record(self, x: int, mask: int) -> None:
        if self._stamps[x] != self._epoch:
            self._stamps[x] = self._epoch
            self.entries.append((x, mask))

    def segment(self) -> int:
        """Start a new segment; returns the index of its first entry."""
        self._epoch += 1
        return len(self.entries)

    def push(self) -> int:
        self._marks.append(self.segment())
        return len(self._marks)

    def pop_to(self, k: int) -> list[tuple[int, int]]:
        """Drop levels ``k`` and deeper; return their entries (in push order)."""
        if not 1 <= k <= self.level:
            raise ValueError(f"cannot restore to level {k} from level {self.level}")
        target = self._marks[k - 1]
        undo = self.entries[target:]
        del self.entries[target:]
        del self._marks[k - 1:]
        self.segment()
        return undo


class DomainStore:
    """All variable domains, the propagator states and the trail; the
    single mutable solver state.

    ``states`` maps a propagator id to the summary of its scope that the
    propagator keeps between engine calls (see ``Engine.propagate``); a
    missing id means none.  ``push_level`` saves a shallow copy of the
    dict and ``restore_to`` reinstalls it, so a state is replaced by
    assignment to ``states[pid]``, never mutated in place, and nothing may
    hold on to ``states`` across a restore.

    ``moved[x]`` is set by the shrink operation that moves a bound of
    ``x``: ``tighten_min``, ``tighten_max`` and ``assign`` always, and
    ``remove_value`` and ``remove_bits`` only when they cut the min or the
    max.  The engine clears it when it advises the watchers of ``x``, and
    ``forget_states`` clears every mark, so every mark is 0 between engine
    calls unless the store was edited directly.
    """

    __slots__ = ("domains", "trail", "states", "moved", "_saved")

    def __init__(self, domains: Sequence[FiniteDomain]):
        self.domains: list[FiniteDomain] = list(domains)
        self.trail = Trail(len(self.domains))
        self.states: dict[int, object] = {}
        self.moved = bytearray(len(self.domains))
        self._saved: list[dict[int, object]] = []  # one states copy per level

    @property
    def level(self) -> int:
        return self.trail.level

    def push_level(self) -> int:
        self._saved.append(self.states.copy())
        return self.trail.push()

    def restore_to(self, k: int) -> None:
        """Rewind every domain and propagator state to what it was when
        ``push_level`` returned ``k``; leaves the store at level ``k - 1``.
        Changes made at level 0 (the root) are permanent."""
        undo = self.trail.pop_to(k)
        self.states = self._saved[k - 1]
        del self._saved[k - 1:]
        domains = self.domains
        for x, mask in reversed(undo):
            domains[x]._set_mask(mask)

    def forget_states(self) -> None:
        """Drop every propagator state and clear every mark, so that each
        propagator's next engine call rescans."""
        self.states.clear()
        self.moved[:] = bytes(len(self.moved))

    # -- shrinking operations; WOULD_EMPTY always leaves the store untouched --

    def remove_value(self, x: int, v: int) -> ChangeOutcome:
        d = self.domains[x]
        i = v - d.anchor
        if i < 0 or (d.mask >> i) & 1 == 0:
            return UNCHANGED
        if d.size == 1:
            return WOULD_EMPTY
        self.trail.record(x, d.mask)
        if v == d.min or v == d.max:
            self.moved[x] = 1
        d._set_mask(d.mask & ~(1 << i))
        return SHRUNK

    def remove_bits(self, x: int, bits: int) -> ChangeOutcome:
        """Remove every value whose anchored bit is set in ``bits``."""
        d = self.domains[x]
        new = d.mask & ~bits
        if new == d.mask:
            return UNCHANGED
        if new == 0:
            return WOULD_EMPTY
        self.trail.record(x, d.mask)
        lo, hi = d.min, d.max
        d._set_mask(new)
        if d.min != lo or d.max != hi:
            self.moved[x] = 1
        return SHRUNK

    def assign(self, x: int, v: int) -> ChangeOutcome:
        d = self.domains[x]
        i = v - d.anchor
        if i < 0 or (d.mask >> i) & 1 == 0:
            return WOULD_EMPTY
        if d.size == 1:
            return UNCHANGED
        self.trail.record(x, d.mask)
        self.moved[x] = 1
        d._set_mask(1 << i)
        return SHRUNK

    def tighten_min(self, x: int, lb: int) -> ChangeOutcome:
        d = self.domains[x]
        if lb <= d.min:
            return UNCHANGED
        if lb > d.max:
            return WOULD_EMPTY
        self.trail.record(x, d.mask)
        self.moved[x] = 1
        d._set_mask(d.mask & ~((1 << (lb - d.anchor)) - 1))
        return SHRUNK

    def tighten_max(self, x: int, ub: int) -> ChangeOutcome:
        d = self.domains[x]
        if ub >= d.max:
            return UNCHANGED
        if ub < d.min:
            return WOULD_EMPTY
        self.trail.record(x, d.mask)
        self.moved[x] = 1
        d._set_mask(d.mask & ((1 << (ub - d.anchor + 1)) - 1))
        return SHRUNK

    # -- queries --

    def search_space_log_size(self) -> float:
        """ln of the product of all domain sizes (log form avoids overflow)."""
        total = 0.0
        for d in self.domains:
            total += _log_of(d.size)
        return total

    def assignment(self) -> list[int]:
        """Values of all variables; every domain must be a singleton."""
        vals = []
        for x, d in enumerate(self.domains):
            if d.size != 1:
                raise ValueError(f"variable {x} is not bound")
            vals.append(d.min)
        return vals
