"""Batch front-end: load representation JSON, run a job, emit a JSON report.

Subcommands: eval | certify | params | convert | transform | moments | report.
Exit codes: 0 = pass, 2 = certified failure (negative certificate or class
mismatch), 1 = error (malformed input, unsupported operation, usage error,
...).  Each subcommand takes --input and --out, plus only the flags it reads.

Reports are deterministic: identical inputs and seeds produce byte-identical
output.  Seeds and tolerances are always echoed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .classifier import CLASSES, GridConfig, certify_class, extract_params
from .errors import ClassMismatch, InvalidArgument, StieltjesKitError
from .limits import MODES, LimitEstimate, limit_at_infinity
from .matmeasure import TOL_CERT, MatrixMeasure, _herm, matrix_to_json, moments as measure_moments
from .representations import (
    KINDS,
    Evaluator,
    convert,
    endpoint_side,
    evaluator,
    measure_of,
    repr_from_json,
    repr_to_json,
    sample_points,
    sampled_values,
)
from .transforms import dual_map, neg_pinv_map, pinv_map, transpose_map


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:  # missing, a directory, no read permission, ...
        raise StieltjesKitError(f"cannot read input file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise StieltjesKitError(f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise StieltjesKitError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _dump_grid(F: Evaluator, r, seed: int) -> list:
    """F at the 20 sample points of ``seed`` off the excluded ray of the representation r, with the points."""
    pts = sample_points(*endpoint_side(r), n=20, seed=seed)
    return [{"z": [z.real, z.imag], "F": matrix_to_json(V)} for z, V in zip(pts, sampled_values(F, pts))]


def _limit_json(est: LimitEstimate) -> dict:
    return {
        "value": matrix_to_json(est.value),
        "error_bound": est.error_bound,
        "ladder_depth": est.ladder_depth,
        "increments": list(est.increments),  # the rungs past est.first_rung up to 2^ladder_depth
    }


def _moments_json(mu: MatrixMeasure, m: int) -> dict:
    """The power moments s_0 .. s_m and lambda_min of the Hankel block of s_0 .. s_{2n-2}, n = m // 2 + 1."""
    s = measure_moments(mu, m)
    n = m // 2 + 1
    H = np.block([[s[j + k] for k in range(n)] for j in range(n)])
    lam = float(np.linalg.eigvalsh(_herm(H))[0])
    if not math.isfinite(lam):
        raise StieltjesKitError(f"the Hankel block's lambda_min is not finite: {lam}")
    return {"moments": [matrix_to_json(M) for M in s], "hankel_min_eigenvalue": lam}


def _cmd_eval(args, r) -> tuple[int, dict]:
    return 0, {
        "command": "eval",
        "kind": r.KIND,
        "grid_seed": args.grid_seed,
        "grid": _dump_grid(evaluator(r), r, args.grid_seed),
    }


def _certificate(args, r, endpoint: float):
    """Certificate for --kind, by default the class of the representation's kind."""
    kind = args.kind or KINDS[r.KIND].default_class
    tol = args.tol if args.tol is not None else TOL_CERT
    return certify_class(evaluator(r), endpoint, kind, GridConfig(seed=args.grid_seed), tol)


def _cmd_certify(args, r) -> tuple[int, dict]:
    endpoint, _ = endpoint_side(r)
    if args.alpha is not None:
        endpoint = args.alpha
    if args.beta is not None:
        endpoint = args.beta
    cert = _certificate(args, r, endpoint)
    return (0 if cert.verdict else 2), {"command": "certify", "certificate": cert.to_json()}


def _cmd_params(args, r) -> tuple[int, dict]:
    endpoint, _ = endpoint_side(r)
    F = evaluator(r)
    claimed = args.kind or KINDS[r.KIND].default_class
    if args.mode:
        phi = CLASSES[claimed].phi if args.phi is None else args.phi  # by default along the real gap
        est = limit_at_infinity(F, args.mode, alpha=endpoint, phi=phi)
        return 0, {"command": "params", "mode": args.mode, "phi": phi, "limit": _limit_json(est)}
    try:
        record = extract_params(F, endpoint, claimed)
    except ClassMismatch as exc:
        return 2, {"command": "params", "claimed": claimed, "verdict": "fail", "reason": str(exc)}
    out = {"command": "params", "claimed": claimed, "verdict": "pass"}
    for key in ("gamma", "gamma_radial", "mass"):
        if key in record:
            out[key] = _limit_json(record[key])
    return 0, out


def _cmd_convert(args, r) -> tuple[int, dict]:
    out = convert(r, args.kind, alpha=args.alpha)
    return 0, {"command": "convert", "target": args.kind, "representation": repr_to_json(out)}


def _cmd_transform(args, r) -> tuple[int, dict]:
    _, side = endpoint_side(r)
    op = args.op
    if op == "dual":
        target = args.beta if side == "right" else args.alpha
        if target is None:
            raise StieltjesKitError("dual transform requires the target endpoint (--beta or --alpha)")
        out = dual_map(r, target)
        return 0, {"command": "transform", "op": op, "representation": repr_to_json(out)}
    if op == "transpose":
        out = transpose_map(r)
        return 0, {"command": "transform", "op": op, "representation": repr_to_json(out)}
    G = pinv_map(r) if op == "pinv_map" else neg_pinv_map(r)
    return 0, {
        "command": "transform",
        "op": op,
        "grid_seed": args.grid_seed,
        "grid": _dump_grid(G, r, args.grid_seed),
    }


def _cmd_moments(args, r) -> tuple[int, dict]:
    mu = r if isinstance(r, MatrixMeasure) else measure_of(r)
    return 0, {"command": "moments", "m": args.m, **_moments_json(mu, args.m)}


def _cmd_report(args, r) -> tuple[int, dict]:
    cert = _certificate(args, r, endpoint_side(r)[0])
    return (0 if cert.verdict else 2), {
        "command": "report",
        "kind": r.KIND,
        "grid_seed": args.grid_seed,
        "certificate": cert.to_json(),
        **_moments_json(measure_of(r), args.m),  # before the samples: an error in the moments is the one reported
        "samples": _dump_grid(evaluator(r), r, args.grid_seed),
    }


def finite(text: str) -> float:
    """The type of --alpha, --beta and --phi: float() takes inf, nan and 1e400; this refuses them."""
    if not math.isfinite(value := float(text)):
        raise InvalidArgument(text)  # a ValueError: argparse reports "invalid finite value"
    return value


# Command -> (handler, the flags it reads besides --input and --out).
_COMMANDS = {
    "eval": (_cmd_eval, ("--grid-seed",)),
    "certify": (_cmd_certify, ("--kind", "--alpha", "--beta", "--grid-seed", "--tol")),
    "params": (_cmd_params, ("--kind", "--mode", "--phi")),
    "convert": (_cmd_convert, ("--kind", "--alpha")),
    "transform": (_cmd_transform, ("--op", "--alpha", "--beta", "--grid-seed")),
    "moments": (_cmd_moments, ("--m",)),
    "report": (_cmd_report, ("--kind", "--grid-seed", "--tol", "--m")),
}
_FLAGS = {
    "--kind": {"choices": CLASSES, "help": "class (default: the class of the input's kind)"},
    "--alpha": {"type": finite},
    "--beta": {"type": finite},
    "--grid-seed": {"type": int, "default": 42},
    "--tol": {"type": float},
    "--mode": {"choices": MODES},
    "--phi": {"type": finite, "help": "radial direction (default: along the real gap)"},
    "--m": {"type": int, "default": 2},
    "--op": {"choices": ("pinv_map", "neg_pinv", "dual", "transpose"), "required": True},
}
_TARGET_KIND = {"choices": KINDS, "required": True, "help": "target representation kind"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an error like any other: a JSON error and exit code 1, not argparse's 2."""
        raise StieltjesKitError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stieltjeskit", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)  # no prefixes: params --m is not --mode
        sp.add_argument("--input", required=True, help="representation (or measure) JSON path")
        sp.add_argument("--out", help="write the report here instead of stdout")
        for flag in flags:
            sp.add_argument(flag, **(_TARGET_KIND if (name, flag) == ("convert", "--kind") else _FLAGS[flag]))
    return p


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        tol = getattr(args, "tol", None)  # echoed by every command, null where it takes no --tol
        if tol is not None and not (1e-15 <= tol <= 1e-2):
            raise StieltjesKitError("tolerance override outside [1e-15, 1e-2]")
        obj = _load_json(args.input)
        bare = args.command == "moments" and "kind" not in obj  # moments also takes a bare measure
        code, report = _COMMANDS[args.command][0](args, MatrixMeasure.from_json(obj) if bare else repr_from_json(obj))
    except (StieltjesKitError, ValueError, MemoryError) as exc:  # numpy's LinAlgError is a ValueError
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    report["tol"] = tol
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
