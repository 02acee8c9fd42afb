"""Register geometry and Chebyshev-ball qubit neighborhoods.

Supported layouts are 1D chains and 2D square lattices with integer
coordinates; other arrays are rejected. Admissible neighborhood sizes are
k = (2*l + 1)**D - 1 for layer count l >= 0; near a register boundary the
neighborhood is truncated and may hold fewer than k qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            if any(not isinstance(c, int) for c in p):
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


@dataclass(frozen=True)
class Neighborhood:
    """The qubits within a Chebyshev ball of a center qubit, center excluded."""

    center: int
    members: frozenset[int]
    k_bulk: int = field(default=0)

    def __post_init__(self):
        if self.center in self.members:
            raise ValidationError("neighborhood must not contain its center")
        if len(self.members) > self.k_bulk:
            raise ValidationError(
                f"neighborhood of {self.center} has {len(self.members)} members, "
                f"more than its bulk size {self.k_bulk}"
            )


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


def moore_neighborhood(geometry: RegisterGeometry, i: int, k: int) -> Neighborhood:
    """Qubits of the register within k's Chebyshev range of qubit i.

    Truncated at register boundaries, so the result may hold fewer than k
    members. Deterministic for fixed inputs.
    """
    if not 1 <= i <= geometry.n:
        raise ValidationError(f"unknown qubit index {i} for n={geometry.n}")
    layers = layers_for_size(k, geometry.dimension)
    members = frozenset(
        j
        for j in range(1, geometry.n + 1)
        if j != i and geometry.chebyshev(i, j) <= layers
    )
    return Neighborhood(center=i, members=members, k_bulk=k)


def all_neighborhoods(geometry: RegisterGeometry, k: int) -> dict[int, Neighborhood]:
    return {i: moore_neighborhood(geometry, i, k) for i in range(1, geometry.n + 1)}


def full_size(geometry: RegisterGeometry) -> int:
    """Smallest admissible k whose neighborhoods cover the whole register."""
    spread = max(
        geometry.chebyshev(i, j)
        for i in range(1, geometry.n + 1)
        for j in range(1, geometry.n + 1)
    )
    return (2 * spread + 1) ** geometry.dimension - 1
