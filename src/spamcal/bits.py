"""Classical bitstrings over an n-qubit register.

Convention used everywhere in this package: the bit of qubit 1 is the most
significant bit of the integer index, so the string "x_1 x_2 ... x_n" reads
left to right and ``BitString.index`` is its value in base 2.

A filter that keeps only some qubits' bits is an integer mask over this
index (see :func:`support_mask`): the filtered form of a prepared state x
is ``x.index & mask``, and :func:`submasks` lists every filtered state of a
mask. The estimator records its masks in ``CalibrationTables.single_masks``
and ``pair_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class BitString:
    """An ordered tuple of n bits, qubit 1 first."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValidationError("empty bitstring")
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError(f"bits must be 0 or 1, got {self.bits}")

    @classmethod
    def from_index(cls, index: int, n: int) -> "BitString":
        if not 0 <= index < (1 << n):
            raise ValidationError(f"index {index} out of range for n={n}")
        return cls(tuple((index >> (n - i)) & 1 for i in range(1, n + 1)))

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        try:
            return cls(tuple(int(c) for c in s))
        except (TypeError, ValueError):
            raise ValidationError(f"not a bitstring: {s!r}") from None

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    def bit(self, i: int) -> int:
        """Bit of qubit i (1-based)."""
        return self.bits[i - 1]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def qubit_mask(i: int, n: int) -> int:
    """Integer mask selecting the bit of qubit i (1-based, MSB-first)."""
    if not 1 <= i <= n:
        raise ValidationError(f"qubit index {i} out of range 1..{n}")
    return 1 << (n - i)


def support_mask(qubits, n: int) -> int:
    """Mask selecting the bits of all listed qubits."""
    m = 0
    for q in qubits:
        m |= qubit_mask(q, n)
    return m


def check_width(x: BitString, n: int) -> None:
    """Reject a prepared state or outcome that is not n bits wide."""
    if x.n != n:
        raise ValidationError(f"bitstring {x} has {x.n} bits, the register has {n}")


def submasks(mask: int):
    """All submasks of an integer mask, in increasing order."""
    subs = [0]
    rest = mask
    while rest:
        low = rest & -rest
        subs = [s | b for s in subs for b in (0, low)]
        rest ^= low
    return sorted(subs)
