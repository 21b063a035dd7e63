"""Finite exact-valued sequences.

Three wrappers around a tuple of rationals keep the three roles apart:

* ``LatticeSeq`` -- samples z_0..z_L of a function on the integer lattice;
* ``FourierSeq`` -- coefficients with respect to the falling-factorial basis;
* ``TaylorCoeffs`` -- a prefix of ordinary power-series coefficients.

All are immutable. Indexing past the stored prefix raises instead of
zero-extending; the nonlocal recurrences downstream make silent extension
the main source of bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator

from .rational import as_rational


def _coerce(values) -> tuple[Fraction, ...]:
    """The entries as a tuple of rationals; one that holds only `Fraction` entries is not coerced again."""
    out = tuple(values)
    if not all(map(isinstance, out, repeat(Fraction))):
        out = tuple(map(as_rational, out))
    if not out:
        raise ValueError("sequence must have at least one entry")
    return out


class _Entries:
    """Shared container behaviour; subclasses set ``_slot`` to the field name."""

    _slot: str

    def __post_init__(self) -> None:
        object.__setattr__(self, self._slot, _coerce(self._items()))

    def _items(self) -> tuple[Fraction, ...]:
        return getattr(self, self._slot)

    def __len__(self) -> int:
        return len(self._items())

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._items())

    def __getitem__(self, index: int) -> Fraction:
        items = self._items()
        if not 0 <= index < len(items):
            raise IndexError(f"index {index} outside stored range 0..{len(items) - 1}")
        return items[index]

    @property
    def last_index(self) -> int:
        """L, the largest stored index."""
        return len(self._items()) - 1

    def truncate(self, length: int):
        """The first ``length`` entries, as the same kind of sequence."""
        items = self._items()
        if not 1 <= length <= len(items):
            raise ValueError(f"cannot truncate length {len(items)} to {length}")
        return type(self)(items[:length])


@dataclass(frozen=True)
class LatticeSeq(_Entries):
    values: tuple[Fraction, ...]
    _slot = "values"


@dataclass(frozen=True)
class FourierSeq(_Entries):
    coeffs: tuple[Fraction, ...]
    _slot = "coeffs"


@dataclass(frozen=True)
class TaylorCoeffs(_Entries):
    coeffs: tuple[Fraction, ...]
    _slot = "coeffs"
