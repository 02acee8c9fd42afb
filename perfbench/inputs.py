"""Seeded input generator for the perfbench workloads.

For one workload and seed it writes, into an output directory:

- ``model.json``: a noise-model dict in the ``NoiseModel.to_dict`` format;
- ``hist-NN.json``: sampled distributions of random prepared basis states,
  in the ``spamcal correct --input`` format;
- ``reference.npy``: the model's exact transition matrix, computed here
  independently of spamcal, for the benchmark's oracle check;
- ``T.json`` (correction workloads only): the exact matrix in the
  ``spamcal correct --matrix`` format;
- ``inputs.json``: what was written, with the prepared state of each
  histogram.

The same (workload, seed) always gives byte-identical files. Run it alone
with ``python3 perfbench/inputs.py --workload chain10-exact --seed 1 --out DIR``.
With ``--repeats R`` it generates R times over the same directory and prints,
as its last line, ``{"seconds": [...]}``: the wall time of each generation,
from the model to the last file written. Interpreter start-up, imports and
the final fsync of the files are outside these times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EPS = (0.03, 0.06)  # range of the seeded single-qubit flip rates
HIST_SHOTS = 32768  # shots of each sampled histogram


@dataclass(frozen=True)
class Spec:
    """One workload's register, noise parameters and pipeline settings.

    Shifts and pair covariances act between every two qubits at Chebyshev
    distance 1. ``shift`` holds the shift of a qubit from its lower- and
    its higher-indexed neighbour.
    """

    rows: int
    cols: int
    k: int
    kind: str  # "calibrate" or "correct"
    backend: str = "exact"  # calibration backend: "exact" or "sampled"
    shots: int = 32768  # calibration shots of the sampled backend
    shift: tuple = (0.004, 0.005)
    pair_cov: float = 2e-4
    spectator_cov: float = 1e-4  # one seeded spectator covariance
    histograms: int = 4

    @property
    def n(self) -> int:
        return self.rows * self.cols


WORKLOADS = {
    "chain10-exact": Spec(1, 10, k=2, kind="calibrate"),
    "grid3x3-sampled": Spec(
        3, 3, k=8, kind="calibrate", backend="sampled",
        shift=(0.003, 0.003), pair_cov=1e-4, spectator_cov=0.0,
    ),
    "chain10-correct": Spec(1, 10, k=2, kind="correct", histograms=12),
    # seconds-long versions of the three code paths, for --smoke
    "smoke-exact": Spec(1, 4, k=2, kind="calibrate", histograms=2),
    "smoke-sampled": Spec(
        2, 2, k=8, kind="calibrate", backend="sampled", shots=4096,
        shift=(0.003, 0.003), pair_cov=1e-4, spectator_cov=0.0, histograms=2,
    ),
    "smoke-correct": Spec(1, 4, k=2, kind="correct", histograms=3),
}


def _positions(spec: Spec) -> list:
    if spec.rows == 1:
        return [[c] for c in range(spec.cols)]
    return [[r, c] for r in range(spec.rows) for c in range(spec.cols)]


def _neighbour_pairs(positions) -> list:
    """All (i, j), i < j, 1-based, at Chebyshev distance 1."""
    n = len(positions)
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if max(abs(a - b) for a, b in zip(positions[i], positions[j])) == 1
    ]


def make_model(spec: Spec, rng: np.random.Generator) -> dict:
    positions = _positions(spec)
    pairs = _neighbour_pairs(positions)
    e01 = rng.uniform(*EPS, spec.n)  # P(read 1 | prepared 0)
    e10 = rng.uniform(*EPS, spec.n)  # P(read 0 | prepared 1)
    base = [[[1 - a, b], [a, 1 - b]] for a, b in zip(e01, e10)]
    shifts = {}
    for i, j in pairs:
        shifts[f"{j},{i}"] = spec.shift[0]
        shifts[f"{i},{j}"] = spec.shift[1]
    cov = [[spec.pair_cov] * 2] * 2
    spectators = {}
    if spec.spectator_cov:
        # a spectator next to one member of a neighbouring pair, so that
        # the k-neighbourhoods cover it and the estimate stays exact
        i, j = pairs[rng.integers(len(pairs))]
        near = sorted({l for p in pairs for l in p if set(p) & {i, j}} - {i, j})
        spectators[f"{i},{j},{near[rng.integers(len(near))]}"] = spec.spectator_cov
    return {
        "n": spec.n,
        "dimension": 1 if spec.rows == 1 else 2,
        "positions": positions,
        "base": base,
        "shifts": shifts,
        "shift_range": 1,
        "pair_cov": {f"{i},{j}": cov for i, j in pairs},
        "spectator_cov": spectators,
        "cov_range": 1,
        "triples": {},
    }


def _kron_columns(factors) -> np.ndarray:
    """out[c, x] = prod_l factors[l][c, x_l] over (dim, 2) factors, x MSB-first."""
    out = np.ones((factors[0].shape[0], 1))
    for f in factors:
        out = (out[:, :, None] * f[:, None, :]).reshape(out.shape[0], -1)
    return out


def reference_matrix(model: dict) -> np.ndarray:
    """Exact T[x, c] of the model, vectorized over all prepared states c."""
    n = model["n"]
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> (n - 1 - np.arange(n))) & 1  # (dim, n)
    base = np.asarray(model["base"])
    shift = np.zeros((n, n))
    for key, v in model["shifts"].items():
        i, j = (int(x) for x in key.split(","))
        shift[i - 1, j - 1] = v
    read0 = np.where(bits == 1, base[:, 0, 1], base[:, 0, 0]) - bits @ shift.T
    means = np.stack([read0, 1.0 - read0], axis=-1)  # (dim, n, 2)
    cols = _kron_columns([means[:, l] for l in range(n)])
    sign = np.broadcast_to([1.0, -1.0], (dim, 2))
    weights = {}
    for key, cov in model["pair_cov"].items():
        i, j = (int(x) for x in key.split(","))
        weights[(i, j)] = np.asarray(cov)[bits[:, i - 1], bits[:, j - 1]]
    for key, v in model["spectator_cov"].items():
        i, j, l = (int(x) for x in key.split(","))
        weights[(i, j)] = weights.get((i, j), 0.0) + v * bits[:, l - 1]
    for (i, j), w in weights.items():
        factors = [sign if l in (i - 1, j - 1) else means[:, l] for l in range(n)]
        cols += w[:, None] * _kron_columns(factors)
    return cols.T


def _program():
    """The spamcal functions that write the files, imported from ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    from spamcal.backends import save_distribution
    from spamcal.tmatrix import TransitionMatrix

    return save_distribution, TransitionMatrix


def generate(name: str, seed: int, out: Path) -> dict:
    save_distribution, TransitionMatrix = _program()
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, 0x5EED])
    model = make_model(spec, rng)
    t = reference_matrix(model)
    # same tolerance as NoiseModel's own check: entries near 1e-15 may round below 0
    if t.min() < -1e-12 or np.abs(t.sum(axis=0) - 1).max() > 1e-12:
        raise SystemExit(f"generated {name} model for seed {seed} is not stochastic")
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(json.dumps(model, indent=2, sort_keys=True))
    np.save(out / "reference.npy", t)
    prepared = rng.choice(t.shape[0], size=spec.histograms, replace=False)
    hists = []
    for h, c in enumerate(prepared):
        p = np.clip(t[:, c], 0.0, None)
        counts = rng.multinomial(HIST_SHOTS, p / p.sum())
        path = f"hist-{h:02d}.json"
        save_distribution(counts / HIST_SHOTS, spec.n, out / path)
        hists.append({"prepared": int(c), "path": path})
    matrix = None
    if spec.kind == "correct":
        matrix = "T.json"
        TransitionMatrix(spec.n, t).to_json(out / matrix)
    manifest = {
        "workload": name,
        "seed": seed,
        "backend_seed": int(rng.integers(2**31)),
        "histograms": hists,
        "matrix": matrix,
    }
    (out / "inputs.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def flush(out: Path):
    """Write the files to disk now, not during the timed passes that follow."""
    for f in out.iterdir():
        fd = os.open(f, os.O_RDONLY)
        os.fsync(fd)
        os.close(fd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    _program()  # import before the first generation is timed
    seconds = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        generate(args.workload, args.seed, args.out)
        seconds.append(time.perf_counter() - t0)
    flush(args.out)
    print(json.dumps({"seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
