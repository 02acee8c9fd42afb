"""Acceptance gate: one test per advertised guarantee.

Each test prints a single machine-readable pass/fail line so the gate can
be audited from the pytest -s output alone.
"""

import time

import numpy as np
import pytest

from spamcal.backends import ExactBackend, SampledBackend, record_dataset
from spamcal.characterize import Uniform, single_qubit_matrices, t_prod, total_spam_error
from spamcal.cli import main as cli_main
from spamcal.correct import correct_constrained, correct_direct_inverse, project_simplex
from spamcal.estimate import circuit_budget, estimate_transition_matrix
from spamcal.geometry import RegisterGeometry
from spamcal.model import NoiseModel, melbourne_c4, melbourne_c4_product, melbourne_c8
from spamcal.norms import (
    MatrixNorm,
    asymptotic_frobenius_error,
    norm_distance,
    symmetric_single_qubit,
)
from spamcal.tmatrix import TransitionMatrix


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def kron_power(m, n):
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, m)
    return out


def correlated_chain6(triples=None, base_eps=None):
    g = RegisterGeometry.chain(6)
    eps = base_eps or [0.03, 0.05, 0.04, 0.06, 0.02, 0.05]
    base = np.array([symmetric_single_qubit(e) for e in eps])
    shifts = {(i, i + 1): 0.005 for i in range(1, 6)}
    shifts.update({(i + 1, i): 0.004 for i in range(1, 6)})
    cov = {(i, i + 1): 2e-4 * np.ones((2, 2)) for i in range(1, 6)}
    return NoiseModel(
        g, base, shifts=shifts, shift_range=1, pair_cov=cov,
        spectator_cov={(1, 2, 3): 5e-5}, cov_range=1, triples=triples or {},
    )


def test_criterion_1_frobenius_closed_form():
    eps = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 4, 8):
        t = kron_power(symmetric_single_qubit(eps), n)
        numeric = np.linalg.norm(t - np.eye(1 << n), "fro")
        closed, _ = asymptotic_frobenius_error(n, eps)
        worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 1.0,
        f"max rel err {worst:.2e} (tol 1e-4), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_scaled_norm_linear_scaling():
    eps = 1e-6
    worst = 0.0
    ratios = []
    for n in (2, 4, 8):
        t = kron_power(symmetric_single_qubit(eps), n)
        numeric = norm_distance(t, np.eye(1 << n), MatrixNorm.SCALED_FROBENIUS)
        _, scaled = asymptotic_frobenius_error(n, eps)
        worst = max(worst, abs(numeric - scaled) / scaled)
        ratios.append(numeric / (n * eps))
    ratios_ok = np.allclose(ratios, [1.2247, 1.1180, 1.0607], atol=1e-4)
    decreasing = ratios[0] > ratios[1] > ratios[2] > 1.0
    report(
        2,
        worst < 1e-4 and ratios_ok and decreasing,
        f"max rel err {worst:.2e}, ratios to n*eps {np.round(ratios, 4).tolist()}",
    )


def test_criterion_3_oracle_equivalence():
    m = correlated_chain6()
    t0 = time.perf_counter()
    t_est, _ = estimate_transition_matrix(ExactBackend(m), m.geometry, 2)
    err = float(np.max(np.abs(t_est.data - m.full_matrix().data)))
    elapsed = time.perf_counter() - t0
    report(
        3,
        err <= 1e-12 and elapsed < 10.0,
        f"max deviation {err:.2e} (tol 1e-12), runtime {elapsed:.2f}s (< 10s)",
    )


class _CountingBackend:
    """Wraps a backend and records the distinct preparations issued."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.issued = set()

    def distributions(self, states):
        self.issued.update(states)
        return self.inner.distributions(states)

    def descriptor(self):
        return self.inner.descriptor()


def test_criterion_4_budget_compliance():
    m = melbourne_c8()
    counting = _CountingBackend(ExactBackend(m))
    _t, tables = estimate_transition_matrix(counting, m.geometry, 6)
    b1, b2 = circuit_budget(8, 6)
    issued = len(counting.issued)
    report(
        4,
        issued <= b1 + b2
        and tables.circuits_used == issued
        and tables.circuits_used < b1 + b2,
        f"{issued} distinct preparations issued, bound {b1} + {b2}, "
        f"dedup count {tables.circuits_used} strictly smaller",
    )


def test_criterion_5_truncation_sensitivity():
    base_eps = [0.2] * 6
    m = correlated_chain6(triples={(2, 3, 4): 5e-3}, base_eps=base_eps)
    t_true = m.full_matrix().data
    errs = []
    for k in (0, 2, 4, 10):
        t_est, _ = estimate_transition_matrix(ExactBackend(m), m.geometry, k)
        errs.append(float(np.max(np.abs(t_est.data - t_true))))
    floor = min(errs)
    report(
        5,
        floor >= 1e-3,
        f"triple term leaves error >= {floor:.2e} for every k (floor 1e-3)",
    )


def test_criterion_6_correction_round_trip():
    m = melbourne_c4_product()
    t = m.full_matrix()
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p_true = project_simplex(rng.dirichlet(np.ones(16)))
        p_raw = t.data @ p_true
        res = correct_constrained(t, p_raw, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(res.p_corr - p_true))))
    elapsed = time.perf_counter() - t0
    report(
        6,
        worst <= 1e-8 and elapsed < 30.0,
        f"worst recovery error {worst:.2e} over 100 vectors (tol 1e-8), "
        f"runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_7_direct_inverse_witness():
    t = symmetric_single_qubit(0.1)
    p_raw = np.array([1.0, 0.0])
    res = correct_direct_inverse(t, p_raw)
    neg_ok = res.p_corr[1] == pytest.approx(-0.125, abs=1e-14)
    res_c = correct_constrained(t, p_raw)
    valid = (
        np.min(res_c.p_corr) >= 0.0
        and abs(res_c.p_corr.sum() - 1.0) < 1e-9
    )
    report(
        7,
        neg_ok and valid,
        f"inverse gives component {res.p_corr[1]:+.6f} (expected -0.125); "
        f"constrained stays a distribution",
    )


def test_criterion_8_shot_noise_convergence():
    m = melbourne_c4()
    x = 0b0000
    col = m.column(x)
    med = {}
    for shots in (8192, 32768):
        errs = [
            float(
                np.max(
                    np.abs(
                        SampledBackend(m, shots=shots, seed=s).distribution(x) - col
                    )
                )
            )
            for s in range(20)
        ]
        med[shots] = float(np.median(errs))
    ratio = med[8192] / med[32768]
    report(
        8,
        1.6 <= ratio <= 2.6,
        f"median linf error ratio 8192/32768 shots = {ratio:.3f} (band [1.6, 2.6])",
    )


def test_criterion_9_synthetic_hardware_scale(tmp_path):
    # deterministic norm table from an ingested dataset
    m = melbourne_c4()
    backend = SampledBackend(m, shots=32768, seed=7)
    preps = range(16)
    ds = tmp_path / "ds.json"
    record_dataset(backend, preps, 32768).to_json(ds)
    t_full = tmp_path / "t.json"
    assert (
        cli_main(
            ["calibrate-full", "--backend", "replay", "--dataset", str(ds),
             "--out", str(t_full)]
        )
        == 0
    )
    ref = tmp_path / "ref.json"
    TransitionMatrix.identity(4).to_json(ref)
    outs = []
    for name in ("cmp1.csv", "cmp2.csv"):
        out = tmp_path / name
        assert (
            cli_main(
                ["compare", "--reference", str(ref), "--candidate",
                 f"measured={t_full}", "--out", str(out)]
            )
            == 0
        )
        outs.append(out.read_bytes())
    deterministic = outs[0] == outs[1]

    # totals land within a factor 3 of the published hardware numbers
    t_meas = TransitionMatrix.from_json(t_full)
    total_d = total_spam_error(t_meas, MatrixNorm.SCALED_FROBENIUS)
    total_m = total_spam_error(t_meas, MatrixNorm.MAX)
    rb = ExactBackend(m)
    tp = t_prod(single_qubit_matrices(rb, Uniform(0)))
    prod_d = norm_distance(tp.data, t_meas.data, MatrixNorm.SCALED_FROBENIUS)
    prod_m = norm_distance(tp.data, t_meas.data, MatrixNorm.MAX)
    bands = (
        (total_d, 0.259),
        (total_m, 0.347),
        (prod_d, 0.044),
        (prod_m, 0.055),
    )
    in_band = all(ref_v / 3 <= got <= ref_v * 3 for got, ref_v in bands)
    report(
        9,
        deterministic and in_band,
        f"compare deterministic; totals {total_d:.3f}/{total_m:.3f} "
        f"vs 0.259/0.347, product error {prod_d:.3f}/{prod_m:.3f} "
        f"vs 0.044/0.055 (factor-3 band)",
    )
