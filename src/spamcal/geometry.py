"""Register geometry and the Chebyshev-ball masks of qubit neighborhoods.

Supported layouts are 1D chains and 2D square lattices with integer
coordinates; other arrays are rejected. A qubit's neighborhood of size k is
held as one integer mask over the basis-state index (see
:mod:`spamcal.bits`): :func:`chebyshev_mask` sets the bit of the qubit and
of every qubit within l Chebyshev layers of it. Admissible sizes are
k = (2*l + 1)**D - 1 for layer count l >= 0; near a register boundary the
ball is truncated and may hold fewer than k qubits besides the center.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import support_mask
from .errors import ValidationError


@dataclass(frozen=True)
class RegisterGeometry:
    """n qubit positions on a 1D or 2D integer lattice, indexed 1..n."""

    n: int
    dimension: int
    positions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"register size must be positive, got {self.n}")
        if self.dimension not in (1, 2):
            raise ValidationError(
                "only 1D chains and 2D square lattices are supported, "
                f"got dimension {self.dimension}"
            )
        if len(self.positions) != self.n:
            raise ValidationError(
                f"expected {self.n} positions, got {len(self.positions)}"
            )
        for p in self.positions:
            if len(p) != self.dimension:
                raise ValidationError(
                    f"position {p} does not have dimension {self.dimension}"
                )
            if any(type(c) is not int for c in p):
                raise ValidationError(f"position {p} has non-integer coordinates")
        if len(set(self.positions)) != self.n:
            raise ValidationError("positions must be pairwise distinct")

    @classmethod
    def chain(cls, n: int) -> "RegisterGeometry":
        return cls(n, 1, tuple((i,) for i in range(n)))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "RegisterGeometry":
        return cls(
            rows * cols,
            2,
            tuple((r, c) for r in range(rows) for c in range(cols)),
        )

    def chebyshev(self, i: int, j: int) -> int:
        """Chebyshev distance between qubits i and j (1-based)."""
        pi, pj = self.positions[i - 1], self.positions[j - 1]
        return max(abs(a - b) for a, b in zip(pi, pj))


def check_register(backend, geometry: RegisterGeometry):
    """Raise unless the geometry and the backend have the same register size."""
    if geometry.n != backend.n:
        raise ValidationError(f"geometry has {geometry.n} qubits, backend has {backend.n}")


def layers_for_size(k: int, dimension: int) -> int:
    """Layer count l with k = (2*l + 1)**D - 1, or raise for inadmissible k."""
    l = 0
    while (2 * l + 1) ** dimension - 1 < k:
        l += 1
    if (2 * l + 1) ** dimension - 1 != k:
        admissible = [(2 * m + 1) ** dimension - 1 for m in range(max(l, 4) + 1)]
        raise ValidationError(
            f"neighborhood size k={k} is not admissible in {dimension}D; "
            f"allowed sizes are {{(2l+1)^{dimension} - 1}} = {admissible}..."
        )
    return l


def chebyshev_mask(geometry: RegisterGeometry, i: int, k: int) -> int:
    """Mask over qubit i and every qubit within k's Chebyshev layers of it.

    Truncated at register boundaries, so the mask may hold fewer than k + 1
    qubits.
    """
    if not 1 <= i <= geometry.n:
        raise ValidationError(f"unknown qubit index {i} for n={geometry.n}")
    layers = layers_for_size(k, geometry.dimension)
    near = [j for j in range(1, geometry.n + 1) if geometry.chebyshev(i, j) <= layers]
    return support_mask(near, geometry.n)
