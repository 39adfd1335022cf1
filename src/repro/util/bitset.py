"""A packed, fixed-size bitset over numpy ``uint64`` words.

The dense shadow structures (:mod:`repro.shadow.dense`) keep three bits per
array element per processor (Read, Write, Not-Privatizable).  Storing each
plane as a packed bitset keeps the per-processor shadow memory at
``3/8`` bytes per tested element -- the same order as the paper's two-bit
shadow arrays -- and makes the cross-processor analysis phase a handful of
vectorized word operations instead of a Python loop per element.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.kernels import get_kernels

_WORD_BITS = 64

#: ``_MASKS[k]`` is the ``uint64`` word with only bit ``k`` set: single-bit
#: ops index it instead of building two numpy scalars and a shift per call.
_MASKS = tuple(np.uint64(1) << np.uint64(k) for k in range(_WORD_BITS))
_CLEAR_MASKS = tuple(~mask for mask in _MASKS)


class BitSet:
    """Fixed-capacity set of small non-negative integers.

    Parameters
    ----------
    size:
        Number of addressable bits.  Bits outside ``[0, size)`` are rejected.
    words:
        Optional pre-existing packed word array (shared, not copied); used
        by :meth:`copy` and the bitwise operators.
    """

    __slots__ = ("_size", "_words")

    def __init__(self, size: int, words: np.ndarray | None = None) -> None:
        if size < 0:
            raise ValueError(f"BitSet size must be non-negative, got {size}")
        self._size = size
        n_words = (size + _WORD_BITS - 1) // _WORD_BITS
        if words is None:
            self._words = np.zeros(n_words, dtype=np.uint64)
        else:
            if words.shape != (n_words,):
                raise ValueError(
                    f"word array has shape {words.shape}, expected ({n_words},)"
                )
            self._words = words

    # -- basic protocol ----------------------------------------------------

    @property
    def size(self) -> int:
        """Capacity in bits (not the population count)."""
        return self._size

    @property
    def words(self) -> np.ndarray:
        """The packed ``uint64`` word array itself (shared, not a copy);
        lets callers place a plane in externally managed storage (the
        shared-memory execution backend) and re-wrap it with
        ``BitSet(size, words=...)``."""
        return self._words

    def __len__(self) -> int:
        """Population count: number of set bits."""
        return get_kernels().popcount(self._words)

    def __bool__(self) -> bool:
        return bool(self._words.any())

    def __contains__(self, index: int) -> bool:
        return self.test(index)

    def __iter__(self) -> Iterator[int]:
        yield from self.to_indices()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSet):
            return NotImplemented
        return self._size == other._size and bool(
            np.array_equal(self._words, other._words)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.to_indices()[:16]
        suffix = ", ..." if len(self) > 16 else ""
        return f"BitSet(size={self._size}, bits={list(shown)}{suffix})"

    # -- mutation ----------------------------------------------------------

    # The single-bit ops sit on the speculative access path (three per
    # dense-shadow read), so each one inlines its bounds check and mask.

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(f"bit {index} out of range [0, {self._size})")

    def set(self, index: int) -> None:
        """Set a single bit."""
        if not 0 <= index < self._size:
            raise self._out_of_range(index)
        self._words[index >> 6] |= _MASKS[index & 63]

    def clear(self, index: int) -> None:
        """Clear a single bit."""
        if not 0 <= index < self._size:
            raise self._out_of_range(index)
        self._words[index >> 6] &= _CLEAR_MASKS[index & 63]

    def test(self, index: int) -> bool:
        """Return whether a bit is set."""
        if not 0 <= index < self._size:
            raise self._out_of_range(index)
        return bool(self._words[index >> 6] & _MASKS[index & 63])

    def set_many(self, indices: np.ndarray) -> None:
        """Set all bits in ``indices`` (kernel batch op)."""
        get_kernels().set_bits(
            self._words, self._size, np.asarray(indices, dtype=np.int64)
        )

    def reset(self) -> None:
        """Clear every bit (shadow re-initialization between stages)."""
        self._words[:] = 0

    # -- set algebra (used by the analysis phase) ---------------------------

    def _binary(self, other: "BitSet", op) -> "BitSet":
        if self._size != other._size:
            raise ValueError(
                f"size mismatch: {self._size} vs {other._size}"
            )
        return BitSet(self._size, op(self._words, other._words))

    def __or__(self, other: "BitSet") -> "BitSet":
        return self._binary(other, np.bitwise_or)

    def __and__(self, other: "BitSet") -> "BitSet":
        return self._binary(other, np.bitwise_and)

    def __xor__(self, other: "BitSet") -> "BitSet":
        return self._binary(other, np.bitwise_xor)

    def __sub__(self, other: "BitSet") -> "BitSet":
        return self._binary(other, lambda a, b: a & ~b)

    def __ior__(self, other: "BitSet") -> "BitSet":
        if self._size != other._size:
            raise ValueError(f"size mismatch: {self._size} vs {other._size}")
        get_kernels().or_words(self._words, other._words)
        return self

    def intersects(self, other: "BitSet") -> bool:
        """True if any bit is set in both (cheaper than ``bool(a & b)``)."""
        if self._size != other._size:
            raise ValueError(f"size mismatch: {self._size} vs {other._size}")
        return get_kernels().words_intersect(self._words, other._words)

    # -- export --------------------------------------------------------------

    def to_indices(self) -> np.ndarray:
        """Return the sorted array of set bit positions."""
        return get_kernels().bits_to_indices(self._words, self._size)

    def copy(self) -> "BitSet":
        return BitSet(self._size, self._words.copy())
