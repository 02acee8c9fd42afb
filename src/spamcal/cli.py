"""Command-line driver for reproducible calibration runs.

Every command that writes files also writes ``<out>.manifest.json`` echoing
the resolved configuration, tool version, seed derivation scheme, and
SHA-256 hashes of inputs and outputs. Re-running a command with the same
configuration produces byte-identical primary outputs.

Exit codes: 0 success, 2 validation error, 3 missing replay data,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .backends import (
    DEFAULT_SHOTS,
    SAMPLER_ID,
    ExactBackend,
    SampledBackend,
    ingest_dataset,
    load_distribution,
    measure_full_matrix,
    save_distribution,
)
from .bits import parse_bitstring
from .characterize import Uniform, correlator_report, measure_single_qubit_T, t_prod
from .correct import (
    KKT_TOL_DEFAULT,
    compare_matrices,
    correct_constrained,
    correct_direct_inverse,
)
from .errors import (
    ConvergenceError,
    MissingDataError,
    NumericalError,
    SpamcalError,
    ValidationError,
)
from .estimate import circuit_budget, estimate_transition_matrix
from .geometry import RegisterGeometry
from .model import ORACLE_LIMIT_DEFAULT, NoiseModel, PRESETS, identity_model
from .norms import MatrixNorm
from .serialize import dump_json, sha256_file
from .tmatrix import TransitionMatrix


def _write_manifest(out_path, command, config, inputs, outputs):
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "seed_derivation": f"{SAMPLER_ID}; per-query seed = (seed, prepared index, ordinal)",
        "input_hashes": {str(p): sha256_file(p) for p in inputs},
        "output_hashes": {str(p): sha256_file(p) for p in outputs},
    }
    dump_json(manifest, str(out_path) + ".manifest.json")


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
    inputs = []
    if args.backend == "replay":
        if not args.dataset:
            raise ValidationError("replay backend needs --dataset")
        inputs.append(args.dataset)
        backend = ingest_dataset(args.dataset)
        geometry = RegisterGeometry.chain(backend.n)
        return backend, geometry, inputs
    model = _load_model(args)
    if args.model:
        inputs.append(args.model)
    if args.backend == "sampled":
        backend = SampledBackend(model, shots=args.shots, seed=args.seed)
    else:
        backend = ExactBackend(model, seed=args.seed)
    return backend, model.geometry, inputs


def _config_dict(args, skip=("func",)):
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


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
    model.to_json(args.out)
    _write_manifest(
        args.out,
        "gen-model",
        _config_dict(args),
        [args.spec] if args.spec else [],
        [args.out],
    )
    print(f"wrote {args.out}")
    return 0


def cmd_calibrate_full(args):
    backend, _geometry, inputs = _make_backend(args)
    t = measure_full_matrix(backend, limit=args.oracle_limit)
    outputs = [args.out]
    t.to_json(args.out)
    if args.csv:
        t.to_csv(args.csv)
        outputs.append(args.csv)
    config = _config_dict(args)
    config["circuits"] = t.dim
    _write_manifest(args.out, "calibrate-full", config, inputs, outputs)
    print(f"wrote {args.out} ({t.dim} circuits)")
    return 0


def cmd_estimate(args):
    backend, geometry, inputs = _make_backend(args)
    t_est, tables = estimate_transition_matrix(backend, geometry, args.k)
    outputs = [args.out]
    t_est.to_json(args.out)
    if args.tables:
        tables.to_json(args.tables)
        outputs.append(args.tables)
    budget = tables.metadata["budget"]
    config = _config_dict(args)
    config["circuits_used"] = tables.circuits_used
    config["circuit_budget"] = budget
    _write_manifest(args.out, "estimate", config, inputs, outputs)
    print(
        f"wrote {args.out}; circuits used {tables.circuits_used} "
        f"(budget {budget['step1']} + {budget['step2']})"
    )
    return 0


def cmd_correlators(args):
    backend, _geometry, inputs = _make_backend(args)
    xprime = parse_bitstring(args.xprime, backend.n) if args.xprime else 0
    report = correlator_report(backend, xprime)
    outputs = [args.out]
    report.to_json(args.out)
    if args.csv:
        report.single_shift_csv(args.csv)
        outputs.append(args.csv)
    _write_manifest(args.out, "correlators", _config_dict(args), inputs, outputs)
    print(f"wrote {args.out} ({report.circuits_used} circuits)")
    return 0


def cmd_compare(args):
    reference = TransitionMatrix.from_json(args.reference)
    candidates = {}
    inputs = [args.reference]
    for spec in args.candidate:
        if "=" not in spec:
            raise ValidationError(f"candidate must be name=path, got {spec!r}")
        name, path = spec.split("=", 1)
        candidates[name] = TransitionMatrix.from_json(path)
        inputs.append(path)
    report = compare_matrices(candidates, reference)
    report.to_csv(args.out)
    _write_manifest(args.out, "compare", _config_dict(args), inputs, [args.out])
    print(report.to_text(), end="")
    return 0


def cmd_correct(args):
    t = TransitionMatrix.from_json(args.matrix)
    p_raw, n = load_distribution(args.input, t.n)
    if args.method == "constrained":
        result = correct_constrained(t, p_raw, tol=args.tol)
    else:
        result = correct_direct_inverse(t, p_raw)
    save_distribution(result.p_corr, n, args.out)
    config = _config_dict(args)
    config["residual"] = result.residual
    config["iterations"] = result.iterations
    config["negative_mass_removed"] = result.negative_mass_removed
    _write_manifest(
        args.out, "correct", config, [args.matrix, args.input], [args.out]
    )
    print(
        f"wrote {args.out} (residual {result.residual:.3e}, "
        f"negative mass {result.negative_mass_removed:.3e})"
    )
    return 0


def cmd_budget(args):
    bound1, bound2 = circuit_budget(args.n, args.k)
    print(f"{bound1}, {bound2}")
    return 0


def cmd_tprod(args):
    backend, geometry, inputs = _make_backend(args)
    singles = [
        measure_single_qubit_T(backend, i, Uniform(args.spectators), geometry)
        for i in range(1, geometry.n + 1)
    ]
    t = t_prod(singles)
    t.to_json(args.out)
    _write_manifest(args.out, "tprod", _config_dict(args), inputs, [args.out])
    print(f"wrote {args.out}")
    return 0


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
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SpamcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
