"""Fixed-length dense bit-vectors with the set algebra used for capture computations.

Backed by a single Python integer, so the word size is an implementation
detail; only bit semantics are observable.  All operations keep bits at
positions >= length equal to zero, so popcounts never need masking.
"""

from __future__ import annotations

from typing import Iterable


class BitVector:
    """Immutable fixed-length bit-vector."""

    __slots__ = ("length", "_bits")

    def __init__(self, length: int, bits: int):
        if length < 0:
            raise ValueError("length must be nonnegative")
        if bits < 0 or bits >> length:
            raise ValueError("bits outside [0, 2**length)")
        self.length = length
        self._bits = bits

    @classmethod
    def make(cls, values: Iterable[object]) -> "BitVector":
        return cls.from_string("".join(["1" if v else "0" for v in values]))

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse a string of "0"/"1" characters, bit 0 first."""
        return cls(len(s), int(s[::-1], 2) if s else 0)

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        return cls(length, (1 << length) - 1)

    def get(self, i: int) -> bool:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return bool(self._bits >> i & 1)

    def _check(self, other: "BitVector") -> None:
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} != {other.length}")

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self._bits ^ other._bits)

    def and_not(self, other: "BitVector") -> "BitVector":
        """Bits set in self but not in other (set difference)."""
        self._check(other)
        return BitVector(self.length, self._bits & ~other._bits)

    def invert(self) -> "BitVector":
        return BitVector(self.length, ((1 << self.length) - 1) & ~self._bits)

    def count_ones(self) -> int:
        return self._bits.bit_count()

    def is_zero(self) -> bool:
        return self._bits == 0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitVector)
                and self.length == other.length
                and self._bits == other._bits)

    def __hash__(self) -> int:
        return hash((self.length, self._bits))

    def __len__(self) -> int:
        return self.length

    def to_string(self) -> str:
        """The bits as "0"/"1" characters, bit 0 first."""
        if not self.length:
            return ""
        return format(self._bits, f"0{self.length}b")[::-1]

    def to_list(self) -> list[int]:
        return list(map(int, self.to_string()))

    def __repr__(self) -> str:
        if self.length <= 64:
            body = self.to_string()
        else:
            body = f"len={self.length} ones={self.count_ones()}"
        return f"<BitVector {body}>"
