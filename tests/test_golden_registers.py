"""Byte identity of estimates on a wider chain and on a 2D register.

Hashes (SHA-256) the estimated matrix JSON and the tables JSON of
melbourne-c8 at k = 0, 2, 6 on the exact backend and on a seeded sampled
backend, the same pair for a seeded 3x3 grid model at k = 0, 8, and the
grid's Average(0) and Average(8) single-qubit matrices, and compares them
with ``data/wide_registers_sha256.json``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from spamcal.backends import ExactBackend, SampledBackend
from spamcal.characterize import Average, measure_single_qubit_T
from spamcal.estimate import estimate_transition_matrix
from spamcal.geometry import RegisterGeometry
from spamcal.model import NoiseModel, melbourne_c8

PINNED = Path(__file__).parent / "data" / "wide_registers_sha256.json"


def grid3x3_model() -> NoiseModel:
    """A 3x3 grid with asymmetric readout, nearest-neighbour shifts in both
    directions (diagonals included) and nearest-neighbour covariances."""
    g = RegisterGeometry.grid(3, 3)
    rng = np.random.default_rng(3)
    e0, e1 = rng.uniform(0.02, 0.05, 9), rng.uniform(0.04, 0.09, 9)
    base = np.array([[[1 - a, b], [a, 1 - b]] for a, b in zip(e0, e1)])
    near = [
        (i, j) for i in range(1, 10) for j in range(1, 10)
        if i != j and g.chebyshev(i, j) == 1
    ]
    shifts = {ij: float(v) for ij, v in zip(near, rng.uniform(-1e-3, 6e-3, len(near)))}
    pairs = [(i, j) for i, j in near if i < j]
    cov = {ij: rng.uniform(0.0, 2e-4, (2, 2)) for ij in pairs}
    return NoiseModel(g, base, shifts=shifts, shift_range=1, pair_cov=cov, cov_range=1)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs() -> dict:
    """SHA-256 of every pinned output, by name."""
    got = {}
    grid = grid3x3_model()
    for name, model, ks in (("c8", melbourne_c8(), (0, 2, 6)), ("grid3x3", grid, (0, 8))):
        backends = {
            "exact": ExactBackend(model),
            "sampled": SampledBackend(model, shots=4096, seed=1),
        }
        for kind, backend in backends.items():
            for k in ks:
                t, tables = estimate_transition_matrix(backend, model.geometry, k)
                got[f"{name}-{kind}-k{k}-T"] = sha(t.to_json())
                got[f"{name}-{kind}-k{k}-tables"] = sha(tables.to_json())
    backend = ExactBackend(grid)
    for k in (0, 8):
        mats = [
            measure_single_qubit_T(backend, i, Average(k), grid.geometry).matrix.tolist()
            for i in range(1, grid.n + 1)
        ]
        got[f"grid3x3-average-k{k}"] = sha(json.dumps(mats))
    return got


def test_wide_and_grid_outputs_match_pinned_hashes():
    assert outputs() == json.loads(PINNED.read_text())
