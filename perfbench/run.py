"""Calibrate-and-correct benchmark for spamcal.

Usage::

    python3 perfbench/run.py --workload chain10-exact --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Workloads (inputs from ``inputs.py``, seeded by ``--seed``):

- ``chain10-exact``: 10-qubit chain, k=2, exact backend. A pass builds the
  model from its dict (with validation), estimates T, runs the exhaustive
  oracle and corrects 4 sampled histograms with the estimate. Assembly- and
  model-bound.
- ``chain10-correct``: a pass runs ``spamcal correct`` in-process once per
  histogram file, 12 files, each against the exact 10-qubit T written as
  matrix JSON. No model, backend or assembly work.
- ``grid3x3-sampled``: 3x3 grid, k=8, 32768-shot sampled backend, same
  pass as ``chain10-exact``: dense pair tables over all 512 states, and
  collection samples. Runnable, but not in ``BENCHMARK.json``: a third
  workload does not fit the run budget at a run length that keeps the
  other two steady.

A run repeats passes for about ``--seconds``: at least one, and another
only while the time left is at least half the previous pass. Set-up
generates the inputs three times over in one child process, which times
each generation itself; the median is ``setup_s``. Being in a child,
set-up does not count towards ``peak_rss_mb`` of this process.

``--trace 0`` prints the end-to-end metrics: ``run_s``, the median pass
time; ``correct_per_s``, corrections completed per second spent in them
(``correct_constrained`` for the calibration workloads, the whole CLI call
for ``chain10-correct``); ``peak_rss_mb``; and ``setup_s``. ``--trace 1``
repeats pairs of passes for about ``--seconds``: an untraced pass, then a
traced one with the program's functions wrapped (see ``spans.py``), and the
wrappers removed again after it. It prints the per-layer metrics, each the
median over traced passes of its value in one pass, and
``trace_overhead_s``, the median over pairs of traced minus untraced pass
time. A per-layer metric whose function the program no longer has is left
out and named on the ``absent`` line.

Every operation is checked: the model build, the estimate (columns sum to
1 within 1e-9, circuits within ``circuit_budget``, and on the exact backend
within 1e-12 of the oracle), the oracle (within 1e-12 of the generator's
independent matrix), each correction (on the simplex) and each CLI call
(exit code 0). A failed check or an escaped exception counts the operation
in ``failed``; the run carries on. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from inputs import WORKLOADS
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
ORACLE_TOL = 1e-12
COLUMN_SUM_TOL = 1e-9
SIMPLEX_TOL = 1e-9

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "correct_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, spans it needs)
PER_LAYER = {
    "model_s": ("s", ()),
    "calibrate_s": ("s", ()),
    "oracle_s": ("s", ()),
    "circuits": ("count", ()),
    "t_err_fro": ("1", ()),
    "p_err_tvd": ("1", ()),
    "trace_overhead_s": ("s", ()),
    "assembly.mean_column_calls": ("count", ("assembly.mean_column",)),
    "assembly.mean_column_s": ("s", ("assembly.mean_column",)),
    "assembly.pair_column_calls": ("count", ("assembly.pair_column",)),
    "assembly.pair_column_s": ("s", ("assembly.pair_column",)),
    "assembly.lookup_s": ("s", ("estimate.assemble_pair", "assembly.pair_column")),
    "estimate.assemble_mean_s": ("s", ("estimate.assemble_mean",)),
    "estimate.assemble_pair_s": ("s", ("estimate.assemble_pair",)),
    "estimate.self_s": ("s", ("estimate.calibrate",)),
    "estimate.preps_requested": ("count", ()),
    "estimate.dedup_ratio": ("1", ()),
    "estimate.budget_ratio": ("1", ()),
    "model.validate_s": ("s", ("model.validate",)),
    "model.column_calls": ("count", ("model.column",)),
    "model.column_s": ("s", ("model.column",)),
    "backends.queries": ("count", ("backends.distribution",)),
    "backends.distribution_s": ("s", ("backends.distribution",)),
    "backends.self_s": ("s", ("backends.distribution",)),
    "characterize.marginal_calls": ("count", ("characterize.marginal",)),
    "characterize.marginal_s": ("s", ("characterize.marginal",)),
    "correct.solve_s": ("s", ("correct.solve",)),
    "correct.iters": ("count", ("correct.solve",)),
    "correct.project_calls": ("count", ("correct.project",)),
    "tmatrix.load_s": ("s", ("tmatrix.load",)),
    "serialize.hash_s": ("s", ("serialize.hash",)),
    "cli.self_s": ("s", ("cli.main",)),
}


class Program:
    """The spamcal modules the benchmark calls, imported from ``src/``."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        try:
            import spamcal
        except ImportError as exc:
            raise SystemExit(f"perfbench: cannot import spamcal from {src}: {exc}")
        if not Path(spamcal.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"perfbench: spamcal imported from {spamcal.__file__}, not {src}")
        for name in ("backends", "cli", "correct", "estimate", "model", "norms", "tmatrix"):
            setattr(self, name, importlib.import_module(f"spamcal.{name}"))


class Tally:
    """Operations attempted and failed in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def error(self, what: str, ops: int = 1):
        self.failed += ops
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc()


def on_simplex(p: np.ndarray) -> bool:
    return bool(p.min() >= -SIMPLEX_TOL and abs(p.sum() - 1.0) <= SIMPLEX_TOL)


def tvd_to_basis(p: np.ndarray, prepared: int) -> float:
    q = p.copy()
    q[prepared] -= 1.0
    return 0.5 * float(np.abs(q).sum())


# -- set-up ----------------------------------------------------------------


def set_up(workload: str, seed: int, work: Path) -> tuple[float, dict]:
    """Generate the inputs SETUP_REPEATS times; median generation time and inputs."""
    child = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work), "--repeats", str(SETUP_REPEATS)],
        check=True, timeout=150, stdout=subprocess.PIPE, text=True,
    )
    times = json.loads(child.stdout.splitlines()[-1])["seconds"]
    return statistics.median(times), json.loads((work / "inputs.json").read_text())


def load_inputs(prog: Program, manifest: dict, work: Path) -> dict:
    hists = []
    for h in manifest["histograms"]:
        p, _n = prog.backends.load_distribution(work / h["path"])
        hists.append((h["prepared"], work / h["path"], p))
    return {
        "model": json.loads((work / "model.json").read_text()),
        "reference": np.load(work / "reference.npy"),
        "hists": hists,
        "matrix": work / manifest["matrix"] if manifest["matrix"] else None,
        "backend_seed": manifest["backend_seed"],
    }


# -- passes ----------------------------------------------------------------


def calibration_pass(prog: Program, spec, inp: dict, tally: Tally) -> dict:
    """Model build, estimate, oracle and corrections, each timed and checked."""
    hists = inp["hists"]
    tally.attempted += 3 + len(hists)
    stats = {"correct_s": [], "tvd": []}
    stage = "model build"
    try:
        t0 = time.perf_counter()
        model = prog.model.NoiseModel.from_dict(inp["model"])
        t1 = time.perf_counter()
        if spec.backend == "sampled":
            backend = prog.backends.SampledBackend(model, spec.shots, inp["backend_seed"])
        else:
            backend = prog.backends.ExactBackend(model, inp["backend_seed"])
        stage = "estimate"
        t_est, tables = prog.estimate.estimate_transition_matrix(
            backend, model.geometry, spec.k
        )
        t2 = time.perf_counter()
        stage = "oracle"
        oracle = model.full_matrix()
        t3 = time.perf_counter()
    except Exception:
        done = ["model build", "estimate", "oracle"].index(stage)
        tally.error(stage, 3 + len(hists) - done)
        return stats
    stats.update(model_s=t1 - t0, calibrate_s=t2 - t1, oracle_s=t3 - t2)

    try:
        check_estimate(prog, spec, inp, tables, t_est.data, oracle.data, stats, tally)
    except Exception:
        tally.error("estimate checks")

    for prepared, _path, p in hists:
        try:
            t0 = time.perf_counter()
            result = prog.correct.correct_constrained(t_est, p)
            stats["correct_s"].append(time.perf_counter() - t0)
        except Exception:
            tally.error("correction")
            continue
        if tally.check(on_simplex(result.p_corr), "corrected vector is off the simplex"):
            stats["tvd"].append(tvd_to_basis(result.p_corr, prepared))
    return stats


def check_estimate(prog, spec, inp, tables, est, oracle, stats, tally: Tally):
    """Counts and accuracy of one estimate, and the checks on it and the oracle."""
    circuits = tables.circuits_used
    budget = sum(prog.estimate.circuit_budget(tables.n, spec.k))
    masks = [getattr(tables, name, None) for name in ("single_masks", "pair_masks")]
    if None not in masks:  # the preparations the protocol asks for, before sharing
        requested = sum(1 << bin(m).count("1") for t in masks for m in t.values())
        stats["preps_requested"] = requested
    stats.update(circuits=circuits, budget=budget)
    stats["t_err_fro"] = prog.norms.norm_distance(
        est, oracle, prog.norms.MatrixNorm.SCALED_FROBENIUS
    )
    ok = tally.check(
        np.abs(est.sum(axis=0) - 1.0).max() <= COLUMN_SUM_TOL,
        "estimated T has a column that does not sum to 1",
    )
    if ok:
        ok = tally.check(circuits <= budget, f"{circuits} circuits exceed budget {budget}")
    if ok and spec.backend == "exact":
        dev = np.abs(est - oracle).max()
        tally.check(dev <= ORACLE_TOL, f"estimate deviates from the oracle by {dev:.3e}")
    dev = np.abs(oracle - inp["reference"]).max()
    tally.check(dev <= ORACLE_TOL, f"oracle deviates from the reference by {dev:.3e}")


def correction_pass(prog: Program, inp: dict, tally: Tally, work: Path) -> dict:
    """``spamcal correct`` on every histogram file, in-process."""
    stats = {"correct_s": [], "tvd": []}
    for prepared, path, _p in inp["hists"]:
        tally.attempted += 1
        out = work / f"corrected-{path.name}"
        argv = ["correct", "--matrix", str(inp["matrix"]), "--input", str(path),
                "--out", str(out)]
        log = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = prog.cli.main(argv)
            stats["correct_s"].append(time.perf_counter() - t0)
            if not tally.check(code == 0, f"spamcal {' '.join(argv)} exited {code}: {log.getvalue()}"):
                continue
            p, _n = prog.backends.load_distribution(out)
        except (Exception, SystemExit):
            tally.error(f"spamcal {' '.join(argv)}")
            continue
        if tally.check(on_simplex(p), f"{out.name} is off the simplex"):
            stats["tvd"].append(tvd_to_basis(p, prepared))
    return stats


def timed(one_pass) -> dict:
    t0 = time.perf_counter()
    stats = one_pass()
    stats["run_s"] = time.perf_counter() - t0
    return stats


def repeat(one_pass, seconds: float) -> list[dict]:
    """Passes for about ``seconds``: at least one, and another only while
    the time left is at least half the previous pass."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["run_s"] / 2 <= seconds:
        passes.append(timed(one_pass))
    return passes


# -- metrics ---------------------------------------------------------------


def install_spans(prog: Program) -> Tracer:
    tr = Tracer()
    est, model_cls = prog.estimate, prog.model.NoiseModel

    def iterations(tracer, result):
        tracer.count("correct.iters", getattr(result, "iterations", 0))

    tr.install(est, "mean_column", "assembly.mean_column")
    tr.install(est, "pair_column", "assembly.pair_column")
    tr.install(est, "assemble_t_mean", "estimate.assemble_mean")
    tr.install(est, "assemble_t_pair", "estimate.assemble_pair")
    tr.install(est, "estimate_transition_matrix", "estimate.calibrate")
    tr.install(est, "prob_zero", "characterize.marginal")
    tr.install(est, "prob_joint_zero", "characterize.marginal")
    tr.install(model_cls, "__post_init__", "model.validate")
    tr.install(model_cls, "column", "model.column")
    tr.install(prog.backends.ExactBackend, "distribution", "backends.distribution")
    tr.install(prog.backends.SampledBackend, "distribution", "backends.distribution")
    tr.install(prog.correct, "correct_constrained", "correct.solve", iterations)
    tr.install(prog.cli, "correct_constrained", "correct.solve", iterations)
    tr.install(prog.correct, "project_simplex", "correct.project")
    tr.install(prog.tmatrix.TransitionMatrix, "from_json", "tmatrix.load")
    tr.install(prog.cli, "sha256_file", "serialize.hash")
    tr.install(prog.cli, "main", "cli.main")
    return tr


def layer_values(tr: Tracer, stats: dict) -> dict:
    """Per-layer values of one traced pass; 0 for layers it did not use."""
    circuits = stats.get("circuits", 0)
    budget = stats.get("budget", 0)
    # None (absent) when the estimate's tables no longer expose their masks
    requested = stats.get("preps_requested") if "circuits" in stats else 0

    def ratio(a, b):
        return None if b is None else a / b if b else 0.0

    return {
        "model_s": stats.get("model_s", 0.0),
        "calibrate_s": stats.get("calibrate_s", 0.0),
        "oracle_s": stats.get("oracle_s", 0.0),
        "circuits": circuits,
        "t_err_fro": stats.get("t_err_fro", 0.0),
        "assembly.mean_column_calls": tr.calls["assembly.mean_column"],
        "assembly.mean_column_s": tr.total["assembly.mean_column"],
        "assembly.pair_column_calls": tr.calls["assembly.pair_column"],
        "assembly.pair_column_s": tr.total["assembly.pair_column"],
        "assembly.lookup_s": tr.total["estimate.assemble_pair"]
        - tr.total["assembly.pair_column"],
        "estimate.assemble_mean_s": tr.total["estimate.assemble_mean"],
        "estimate.assemble_pair_s": tr.total["estimate.assemble_pair"],
        "estimate.self_s": tr.self_time("estimate.calibrate"),
        "estimate.preps_requested": requested,
        "estimate.dedup_ratio": ratio(circuits, requested),
        "estimate.budget_ratio": ratio(circuits, budget),
        "model.validate_s": tr.total["model.validate"],
        "model.column_calls": tr.calls["model.column"],
        "model.column_s": tr.total["model.column"],
        "backends.queries": tr.calls["backends.distribution"],
        "backends.distribution_s": tr.total["backends.distribution"],
        "backends.self_s": tr.self_time("backends.distribution"),
        "characterize.marginal_calls": tr.calls["characterize.marginal"],
        "characterize.marginal_s": tr.total["characterize.marginal"],
        "correct.solve_s": tr.total["correct.solve"],
        "correct.iters": tr.counters["correct.iters"],
        "correct.project_calls": tr.calls["correct.project"],
        "tmatrix.load_s": tr.total["tmatrix.load"],
        "serialize.hash_s": tr.total["serialize.hash"],
        "cli.self_s": tr.self_time("cli.main"),
    }


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def mean_tvd(passes: list[dict]) -> float:
    tvds = [t for p in passes for t in p["tvd"]]
    return statistics.fmean(tvds) if tvds else 0.0


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    correct_s = [t for p in passes for t in p["correct_s"]]
    return {
        "run_s": median_of(passes, "run_s"),
        "setup_s": setup_s,
        "correct_per_s": len(correct_s) / sum(correct_s) if correct_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(prog: Program, one_pass, seconds: float) -> tuple[dict, list]:
    installed = set()

    def pair():
        untraced = timed(one_pass)
        tr = install_spans(prog)
        try:
            traced = timed(one_pass)
        finally:
            tr.uninstall()
        installed.update(tr.installed)
        traced["layers"] = layer_values(tr, traced)
        return {"traced": traced, "overhead_s": traced["run_s"] - untraced["run_s"]}

    pairs = repeat(pair, seconds)
    traced = [p["traced"] for p in pairs]
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, v in traced[0]["layers"].items()
        if v is not None
    }
    values["p_err_tvd"] = mean_tvd(traced)
    values["trace_overhead_s"] = median_of(pairs, "overhead_s")
    absent = [
        name for name, (_u, spans) in PER_LAYER.items()
        if name not in values or not set(spans) <= installed
    ]
    return {k: v for k, v in values.items() if k not in absent}, absent


# -- machine ---------------------------------------------------------------


def blas_threads():
    """OpenBLAS thread count, from the library NumPy bundles, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        kernel = getattr(importlib.import_module("spamcal.assembly"), "KERNEL_BACKEND", None)
    except ImportError:
        kernel = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": kernel,
    }


# -- entry points ----------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prog = Program()
    spec = WORKLOADS[workload]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        setup_s, manifest = set_up(workload, seed, work)
        inp = load_inputs(prog, manifest, work)
        tally = Tally()
        if spec.kind == "correct":
            def one_pass():
                return correction_pass(prog, inp, tally, work)
        else:
            def one_pass():
                return calibration_pass(prog, spec, inp, tally)
        if trace:
            values, absent = per_layer(prog, one_pass, seconds)
            units = {name: unit for name, (unit, _s) in PER_LAYER.items()}
        else:
            values, absent = end_to_end(repeat(one_pass, seconds), setup_s), []
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"machine": machine(), "workload": workload, "absent": absent}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def smoke() -> int:
    """Run the three code paths at n=4, traced and untraced, and check that
    every named metric is reported with its unit and every check passed."""
    problems = []
    for workload in ("smoke-exact", "smoke-sampled", "smoke-correct"):
        for trace, wanted in ((False, END_TO_END), (True, PER_LAYER)):
            result = run(workload, seed=1, seconds=0.0, trace=trace)
            got = result["metrics"]
            for name, unit in wanted.items():
                unit = unit if isinstance(unit, str) else unit[0]
                if got.get(name, {}).get("unit") != unit:
                    problems.append(f"{workload} trace={int(trace)}: no {name} [{unit}]")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
    for p in problems:
        print(f"perfbench smoke: {p}", file=sys.stderr)
    print("perfbench smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long self-test")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
