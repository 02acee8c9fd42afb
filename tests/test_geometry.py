import re

import pytest
from hypothesis import given, strategies as st

from spamcal.bits import qubit_mask, support_mask
from spamcal.errors import ValidationError
from spamcal.geometry import RegisterGeometry, chebyshev_mask, layers_for_size


def members(geometry: RegisterGeometry, mask: int) -> set:
    """The qubits whose bits the mask sets."""
    return {j for j in range(1, geometry.n + 1) if mask & qubit_mask(j, geometry.n)}


def test_chain_neighborhood_interior():
    g = RegisterGeometry.chain(4)
    assert members(g, chebyshev_mask(g, 2, 2)) == {1, 2, 3}


def test_chain_neighborhood_boundary_truncated():
    g = RegisterGeometry.chain(4)
    mask = chebyshev_mask(g, 1, 2)
    assert members(g, mask) == {1, 2}
    assert mask.bit_count() < 2 + 1


def test_grid_center_k8():
    g = RegisterGeometry.grid(5, 5)
    center = 13  # row 2, col 2 (1-based index into row-major order)
    assert members(g, chebyshev_mask(g, center, 8)) == {7, 8, 9, 12, 13, 14, 17, 18, 19}


def test_invalid_k_names_admissible_set():
    g = RegisterGeometry.chain(4)
    with pytest.raises(ValidationError, match="admissible"):
        chebyshev_mask(g, 2, 3)
    g2 = RegisterGeometry.grid(3, 3)
    with pytest.raises(ValidationError, match="admissible"):
        chebyshev_mask(g2, 5, 4)


def test_unknown_qubit_rejected():
    g = RegisterGeometry.chain(4)
    with pytest.raises(ValidationError, match="unknown qubit index 5"):
        chebyshev_mask(g, 5, 2)
    with pytest.raises(ValidationError, match="unknown qubit index 0"):
        chebyshev_mask(g, 0, 2)


def test_bulk_size_exact():
    # far from the boundary the mask holds the center and exactly k others
    g = RegisterGeometry.chain(20)
    for k in (0, 2, 4, 6):
        assert chebyshev_mask(g, 10, k).bit_count() == k + 1
    g2 = RegisterGeometry.grid(9, 9)
    for k in (0, 8, 24):
        assert chebyshev_mask(g2, 41, k).bit_count() == k + 1  # center of the grid


def test_k0_everywhere_empty():
    g = RegisterGeometry.chain(5)
    for i in range(1, 6):
        assert chebyshev_mask(g, i, 0) == qubit_mask(i, 5)


def test_layers_for_size():
    assert layers_for_size(0, 1) == 0
    assert layers_for_size(6, 1) == 3
    assert layers_for_size(8, 2) == 1
    assert layers_for_size(24, 2) == 2
    # a closed form, so a size far past any register costs nothing
    assert layers_for_size(10**18, 1) == 5 * 10**17
    assert layers_for_size((2 * 10**9 + 1) ** 2 - 1, 2) == 10**9


@pytest.mark.parametrize(
    "k, dimension, first",
    [(10**18 + 1, 1, "[0, 2, 4, 6, 8]"), ((2 * 10**9 + 1) ** 2, 2, "[0, 8, 24, 48, 80]"),
     (-2, 1, "[0, 2, 4, 6, 8]"), (3, 2, "[0, 8, 24, 48, 80]"), (15, 2, "[0, 8, 24, 48, 80]")],
)
def test_inadmissible_size_lists_the_first_five_sizes(k, dimension, first):
    message = rf"admissible in {dimension}D; .* = {re.escape(first)}\.\.\.$"
    with pytest.raises(ValidationError, match=message):
        layers_for_size(k, dimension)


GEOMETRIES = st.one_of(
    st.builds(RegisterGeometry.chain, st.integers(1, 12)),
    st.builds(RegisterGeometry.grid, st.integers(1, 5), st.integers(1, 5)),
)


@given(GEOMETRIES, st.integers(0, 3), st.data())
def test_chebyshev_mask_is_the_truncated_ball(g, layers, data):
    k = (2 * layers + 1) ** g.dimension - 1
    i = data.draw(st.integers(1, g.n))
    mask = chebyshev_mask(g, i, k)
    ball = {j for j in range(1, g.n + 1) if g.chebyshev(i, j) <= layers}
    assert mask == support_mask(ball, g.n)
    assert mask & qubit_mask(i, g.n)
    pos = g.positions[i - 1]
    extent = [max(p[d] for p in g.positions) for d in range(g.dimension)]
    if all(layers <= c <= e - layers for c, e in zip(pos, extent)):
        assert mask.bit_count() == k + 1


def test_geometry_validation():
    with pytest.raises(ValidationError):
        RegisterGeometry(2, 1, ((0,), (0,)))  # duplicate positions
    with pytest.raises(ValidationError):
        RegisterGeometry(2, 3, ((0, 0, 0), (1, 1, 1)))  # only 1D/2D
    with pytest.raises(ValidationError):
        RegisterGeometry(2, 1, ((0, 1), (1, 0)))  # wrong coordinate length


@pytest.mark.parametrize(
    "n, dimension, positions, message",
    [
        (0, 1, (), "register size must be positive, got 0"),
        (1, 3, ((0, 0, 0),),
         "only 1D chains and 2D square lattices are supported, got dimension 3"),
        (2, 1, ((0,),), "expected 2 positions, got 1"),
    ],
    ids=["no-qubits", "dimension-3", "too-few-positions"],
)
def test_an_invalid_register_raises_its_message(n, dimension, positions, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        RegisterGeometry(n, dimension, positions)
