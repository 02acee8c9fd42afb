"""Command-line driver for reproducible calibration runs.

Every command that writes files also writes ``<out>.manifest.json`` echoing
the resolved configuration, tool version, seed derivation scheme, and
SHA-256 hashes of inputs and outputs. Re-running a command with the same
configuration produces byte-identical primary outputs.

Each command computes its result and hands its files to :func:`_emit`,
the one output step: it hashes the inputs as they were read, before
anything is written (so an output may rewrite an input in place), then
writes the outputs and the manifest all or none: each beside its path
first, renamed into place once every one is written. Two outputs at one
path, the manifest's included, are a validation error before any write.

Exit codes, carried by the error classes as ``exit_code``: 0 success,
2 validation error, 3 missing replay data, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__
from .backends import (
    DEFAULT_SHOTS,
    SAMPLER_ID,
    ExactBackend,
    SampledBackend,
    ingest_dataset,
    load_distribution,
    save_distribution,
)
from .bits import parse_bitstring
from .characterize import (Uniform, correlator_report, measure_full_matrix,
                           single_qubit_matrices, t_prod)
from .correct import (
    KKT_TOL_DEFAULT,
    compare_matrices,
    correct_constrained,
    correct_direct_inverse,
)
from .errors import SpamcalError, ValidationError
from .estimate import circuit_budget, estimate_transition_matrix
from .geometry import RegisterGeometry
from .model import ORACLE_LIMIT_DEFAULT, NoiseModel, PRESETS, identity_model
from .serialize import commit, discard, dump_json, sha256_file, stage
from .tmatrix import TransitionMatrix


def _add_backend_args(p):
    p.add_argument("--model", help="noise model JSON file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="built-in noise model")
    p.add_argument(
        "--backend", choices=["exact", "sampled", "replay"], default="exact"
    )
    p.add_argument("--dataset", help="counts dataset JSON (replay backend)")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=0)


def _load_model(args) -> NoiseModel:
    if args.model:
        return NoiseModel.from_json(args.model)
    if args.preset:
        return PRESETS[args.preset]()
    raise ValidationError("need --model or --preset")


def _make_backend(args):
    """The backend, its register geometry and the input files it read."""
    if args.backend == "replay":
        if not args.dataset:
            raise ValidationError("replay backend needs --dataset")
        backend = ingest_dataset(args.dataset)
        return backend, RegisterGeometry.chain(backend.n), [args.dataset]
    model = _load_model(args)
    if args.backend == "sampled":
        backend = SampledBackend(model, shots=args.shots, seed=args.seed)
    else:
        backend = ExactBackend(model, seed=args.seed)
    return backend, model.geometry, [args.model] if args.model else []


def _emit(args, files, inputs, **config):
    """Write a command's files: hash the inputs, then ``<args.out>`` and its
    other outputs and ``<args.out>.manifest.json``, all or none.

    ``files`` holds (path, writer) pairs; a None path is an optional output
    that was not asked for, and a writer given no path returns its text. Two
    outputs at one path, the manifest's included, are a ValidationError
    before anything is written. The manifest's config is every argument but
    ``func``, in name order, then ``config``. Every file, the manifest last,
    is staged beside its path (``serialize.stage``), and only when all are
    written are they renamed into place; if a write fails, the staged files
    are removed and the error is re-raised, so the files of an earlier run
    stay as they were."""
    files = [(str(path), write) for path, write in files if path is not None]
    manifest_path = f"{args.out}.manifest.json"
    paths = [p for p, _ in files] + [manifest_path]
    real = [os.path.realpath(p) for p in paths]
    for i, path in enumerate(paths):
        if real[i] in real[:i]:
            raise ValidationError(f"two outputs at one path: {path}")
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"} | config,
        "version": __version__,
        "seed_derivation": f"{SAMPLER_ID}; per-query seed = (seed, prepared index, ordinal)",
        "input_hashes": {str(p): sha256_file(p) for p in inputs},
    }
    staged = []
    try:
        for path, write in files:
            staged.append(stage(write(None), path))
        manifest["output_hashes"] = {p: sha256_file(tmp or p) for tmp, p in staged}
        staged.append(stage(dump_json(manifest), manifest_path))
        commit(staged)
    finally:
        discard(staged)


# -- commands --------------------------------------------------------------


def cmd_gen_model(args):
    if args.preset == "identity":
        model = identity_model(args.n)
    elif args.preset:
        model = PRESETS[args.preset]()
    elif args.spec:
        model = NoiseModel.from_json(args.spec)  # re-validates
    else:
        raise ValidationError("need --preset or --spec")
    _emit(args, [(args.out, model.to_json)], [args.spec] if args.spec else [])
    print(f"wrote {args.out}")


def cmd_calibrate_full(args):
    backend, _geometry, inputs = _make_backend(args)
    t = measure_full_matrix(backend, limit=args.oracle_limit)
    _emit(args, [(args.out, t.to_json), (args.csv, t.to_csv)], inputs, circuits=t.dim)
    print(f"wrote {args.out} ({t.dim} circuits)")


def cmd_estimate(args):
    backend, geometry, inputs = _make_backend(args)
    t_est, tables = estimate_transition_matrix(backend, geometry, args.k)
    budget = tables.metadata["budget"]
    files = [(args.out, t_est.to_json), (args.tables, tables.to_json)]
    _emit(args, files, inputs, circuits_used=tables.circuits_used, circuit_budget=budget)
    print(
        f"wrote {args.out}; circuits used {tables.circuits_used} "
        f"(budget {budget['step1']} + {budget['step2']})"
    )


def cmd_correlators(args):
    backend, _geometry, inputs = _make_backend(args)
    xprime = parse_bitstring(args.xprime, backend.n) if args.xprime else 0
    report = correlator_report(backend, xprime)
    files = [(args.out, report.to_json), (args.csv, report.single_shift_csv)]
    _emit(args, files, inputs)
    print(f"wrote {args.out} ({report.circuits_used} circuits)")


def cmd_compare(args):
    reference = TransitionMatrix.from_json(args.reference)
    candidates = {}
    inputs = [args.reference]
    for spec in args.candidate:
        if "=" not in spec:
            raise ValidationError(f"candidate must be name=path, got {spec!r}")
        name, path = spec.split("=", 1)
        if name in candidates:
            raise ValidationError(f"candidate name {name!r} given twice")
        candidates[name] = TransitionMatrix.from_json(path)
        inputs.append(path)
    report = compare_matrices(candidates, reference)
    _emit(args, [(args.out, report.to_csv)], inputs)
    print(report.to_text(), end="")


def cmd_correct(args):
    t = TransitionMatrix.from_json(args.matrix)
    p_raw, n = load_distribution(args.input, t.n)
    if args.method == "constrained":
        result = correct_constrained(t, p_raw, tol=args.tol)
    else:
        result = correct_direct_inverse(t, p_raw)
    _emit(
        args,
        [(args.out, partial(save_distribution, result.p_corr, n))],
        [args.matrix, args.input],
        residual=result.residual,
        iterations=result.iterations,
        negative_mass_removed=result.negative_mass_removed,
    )
    print(
        f"wrote {args.out} (residual {result.residual:.3e}, "
        f"negative mass {result.negative_mass_removed:.3e})"
    )


def cmd_budget(args):
    bound1, bound2 = circuit_budget(args.n, args.k)
    print(f"{bound1}, {bound2}")


def cmd_tprod(args):
    backend, _geometry, inputs = _make_backend(args)
    matrices = single_qubit_matrices(backend, Uniform(args.spectators))
    _emit(args, [(args.out, t_prod(matrices).to_json)], inputs)
    print(f"wrote {args.out}")


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spamcal",
        description="Correlated multiqubit readout-error calibration and correction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="write a validated noise-model file")
    p.add_argument("--preset", choices=sorted(PRESETS) + ["identity"])
    p.add_argument("--n", type=int, default=4, help="register size for identity")
    p.add_argument("--spec", help="model JSON to validate and rewrite")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("calibrate-full", help="measure all 2^n columns")
    _add_backend_args(p)
    p.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT_DEFAULT)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_calibrate_full)

    p = sub.add_parser("estimate", help="scalable estimation with neighborhoods")
    _add_backend_args(p)
    p.add_argument("--k", type=int, required=True, help="neighborhood size")
    p.add_argument("--out", required=True)
    p.add_argument("--tables", help="also write the calibration tables")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("correlators", help="measure pairwise correlators")
    _add_backend_args(p)
    p.add_argument("--xprime", help="prepared state for covariances (default 0^n)")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="heat-map CSV of the shift matrix")
    p.set_defaults(func=cmd_correlators)

    p = sub.add_parser("tprod", help="tensor product of single-qubit matrices")
    _add_backend_args(p)
    p.add_argument("--spectators", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tprod)

    p = sub.add_parser("compare", help="norm table of candidates vs a reference")
    p.add_argument("--reference", required=True)
    p.add_argument(
        "--candidate", action="append", required=True, metavar="NAME=PATH"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("correct", help="correct a measured distribution")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True)
    p.add_argument(
        "--method", choices=["constrained", "inverse"], default="constrained"
    )
    p.add_argument("--tol", type=float, default=KKT_TOL_DEFAULT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("budget", help="circuit-count bounds for (n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_budget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except SpamcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
