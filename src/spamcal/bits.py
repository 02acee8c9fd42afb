"""Basis states of an n-qubit register and the masks that filter them.

A basis state is its integer index everywhere in memory. The bit of qubit 1
is the most significant bit of the index, so the bitstring
"x_1 x_2 ... x_n" reads left to right and is the index in base 2.
Bitstrings appear only in files and messages: :func:`bitstring` writes one
and :func:`parse_bitstring` reads one.

A filter that keeps only some qubits' bits is an integer mask over the
index (see :func:`support_mask`): the filtered form of a prepared state x
is ``x & mask``, and :func:`submasks` lists every filtered state of a mask.
The estimator records its masks in ``CalibrationTables.single_masks`` and
``pair_masks``.
"""

from __future__ import annotations

from .errors import ValidationError


def bitstring(index: int, n: int) -> str:
    """The n-character bitstring of a basis-state index, qubit 1 first."""
    return format(index, f"0{n}b")


def parse_bitstring(s, n: int) -> int:
    """The index of an n-bit bitstring read from a file or the command line."""
    if not isinstance(s, str) or s.strip("01"):
        raise ValidationError(f"not a bitstring: {s!r}")
    if len(s) != n:
        raise ValidationError(f"bitstring {s} has {len(s)} bits, the register has {n}")
    return int(s, 2)


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


def submasks(mask: int):
    """All submasks of an integer mask, in increasing order."""
    subs = [0]
    rest = mask
    while rest:
        low = rest & -rest
        subs = [s | b for s in subs for b in (0, low)]
        rest ^= low
    return sorted(subs)
