"""Batch front-end: load representation JSON, run a job, emit a JSON report.

Subcommands: eval | certify | params | convert | transform | moments | report.
Exit codes: 0 = pass, 2 = certified failure (negative certificate or class
mismatch), 1 = error (malformed input, unsupported operation, ...).

Reports are deterministic: identical inputs and seeds produce byte-identical
output.  Seeds and tolerances are always echoed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .classifier import CLASSES, GridConfig, certify_class, extract_params
from .errors import ClassMismatch, StieltjesKitError
from .limits import MODES, LimitEstimate, limit_at_infinity
from .matmeasure import TOL_CERT, MatrixMeasure, matrix_to_json, moments as measure_moments
from .representations import (
    KINDS,
    Evaluator,
    convert,
    endpoint_side,
    evaluator,
    measure_of,
    repr_from_json,
    repr_to_json,
)
from .transforms import dual_map, neg_pinv_map, pinv_map, transpose_map


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise StieltjesKitError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise StieltjesKitError(f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_repr(path: str):
    obj = _load_json(path)
    if "kind" not in obj:
        raise StieltjesKitError(f"{path}: missing 'kind' field")
    try:
        return repr_from_json(obj)
    except KeyError as exc:
        raise StieltjesKitError(f"{path}: missing field {exc}")


def _eval_grid(endpoint: float, side: str, seed: int):
    rng = np.random.default_rng(seed)
    sign = -1.0 if side == "right" else 1.0
    pts = []
    for j in range(16):
        off = rng.uniform(-4.0, 4.0)
        im = rng.uniform(0.2, 5.0) * (1 if j % 2 == 0 else -1)
        pts.append(complex(endpoint + off, im))
    for j in range(4):
        pts.append(complex(endpoint + sign * rng.uniform(0.5, 4.0), 0.0))
    return pts


def _dump_grid(F: Evaluator, pts) -> list:
    return [{"z": [z.real, z.imag], "F": matrix_to_json(V)} for z, V in zip(pts, F.batch(pts))]


def _limit_json(est: LimitEstimate) -> dict:
    return {
        "value": matrix_to_json(est.value),
        "error_bound": est.error_bound,
        "ladder_depth": est.ladder_depth,
    }


def _hankel_margin(s_list) -> float:
    n = (len(s_list) - 1) // 2 + 1
    H = np.block([[s_list[j + k] for k in range(n)] for j in range(n)])
    return float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0])


def _cmd_eval(args) -> tuple[int, dict]:
    r = _load_repr(args.input)
    endpoint, side = endpoint_side(r)
    pts = _eval_grid(endpoint, side, args.grid_seed)
    report = {
        "command": "eval",
        "kind": r.KIND,
        "grid_seed": args.grid_seed,
        "grid": _dump_grid(evaluator(r), pts),
    }
    return 0, report


def _certificate(args, r, endpoint: float):
    """Certificate for --kind, by default the class of the representation's kind."""
    kind = args.kind or KINDS[r.KIND].default_class
    tol = args.tol if args.tol is not None else TOL_CERT
    return certify_class(evaluator(r), endpoint, kind, GridConfig(seed=args.grid_seed), tol)


def _cmd_certify(args) -> tuple[int, dict]:
    r = _load_repr(args.input)
    endpoint, _ = endpoint_side(r)
    if args.alpha is not None:
        endpoint = args.alpha
    if args.beta is not None:
        endpoint = args.beta
    cert = _certificate(args, r, endpoint)
    report = {"command": "certify", "certificate": cert.to_json()}
    return (0 if cert.verdict else 2), report


def _cmd_params(args) -> tuple[int, dict]:
    r = _load_repr(args.input)
    endpoint, _ = endpoint_side(r)
    F = evaluator(r)
    if args.mode:
        est = limit_at_infinity(F, args.mode, alpha=endpoint, phi=args.phi)
        return 0, {"command": "params", "mode": args.mode, "phi": args.phi, "limit": _limit_json(est)}
    claimed = args.kind or KINDS[r.KIND].default_class
    try:
        record = extract_params(F, endpoint, claimed)
    except ClassMismatch as exc:
        return 2, {"command": "params", "claimed": claimed, "verdict": "fail", "reason": str(exc)}
    out = {"command": "params", "claimed": claimed, "verdict": "pass"}
    for key in ("gamma", "gamma_radial", "mass"):
        if key in record:
            out[key] = _limit_json(record[key])
    return 0, out


def _cmd_convert(args) -> tuple[int, dict]:
    r = _load_repr(args.input)
    if not args.kind:
        raise StieltjesKitError("convert requires --kind TARGET")
    out = convert(r, args.kind, alpha=args.alpha)
    return 0, {"command": "convert", "target": args.kind, "representation": repr_to_json(out)}


def _cmd_transform(args) -> tuple[int, dict]:
    r = _load_repr(args.input)
    endpoint, side = endpoint_side(r)
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
    if op in ("pinv_map", "neg_pinv"):
        G = pinv_map(r) if op == "pinv_map" else neg_pinv_map(r)
        pts = _eval_grid(endpoint, side, args.grid_seed)
        return 0, {
            "command": "transform",
            "op": op,
            "grid_seed": args.grid_seed,
            "grid": _dump_grid(G, pts),
        }
    raise StieltjesKitError(f"unknown transform op {op!r}")


def _cmd_moments(args) -> tuple[int, dict]:
    obj = _load_json(args.input)
    if "kind" in obj:
        mu = measure_of(repr_from_json(obj))
    else:
        mu = MatrixMeasure.from_json(obj)
    s_list = measure_moments(mu, args.m)
    return 0, {
        "command": "moments",
        "m": args.m,
        "moments": [matrix_to_json(s) for s in s_list],
        "hankel_min_eigenvalue": _hankel_margin(s_list),
    }


def _cmd_report(args) -> tuple[int, dict]:
    r = _load_repr(args.input)
    endpoint, side = endpoint_side(r)
    cert = _certificate(args, r, endpoint)
    pts = _eval_grid(endpoint, side, args.grid_seed)
    mu = measure_of(r)
    s_list = measure_moments(mu, args.m)
    report = {
        "command": "report",
        "kind": r.KIND,
        "grid_seed": args.grid_seed,
        "certificate": cert.to_json(),
        "samples": _dump_grid(evaluator(r), pts),
        "moments": [matrix_to_json(s) for s in s_list],
        "hankel_min_eigenvalue": _hankel_margin(s_list),
    }
    return (0 if cert.verdict else 2), report


_COMMANDS = {
    "eval": _cmd_eval,
    "certify": _cmd_certify,
    "params": _cmd_params,
    "convert": _cmd_convert,
    "transform": _cmd_transform,
    "moments": _cmd_moments,
    "report": _cmd_report,
}

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stieltjeskit", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True, help="representation (or measure) JSON path")
        sp.add_argument("--kind", choices=dict.fromkeys([*CLASSES, *KINDS]), default=None,
                        help="class kind (certify/params) or target kind (convert)")
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--grid-seed", type=int, default=42)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument("--mode", choices=MODES, default=None)
        sp.add_argument("--phi", type=float, default=float(np.pi))
        sp.add_argument("--m", type=int, default=2)
        if name == "transform":
            sp.add_argument("--op", required=True,
                            choices=("pinv_map", "neg_pinv", "dual", "transpose"))
    return p


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.tol is not None and not (1e-15 <= args.tol <= 1e-2):
        print(json.dumps({"error": "tolerance override outside [1e-15, 1e-2]"}), file=sys.stderr)
        return 1
    try:
        code, report = _COMMANDS[args.command](args)
    except (StieltjesKitError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    report["tol"] = args.tol
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
