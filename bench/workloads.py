"""Seeded inputs and checked operations for each benchmark workload.

Inputs come from the generators in ``tests/genutil.py``.  An op is one
certificate, one transform item or one CLI invocation; ``Op.run(tr)``
calls the library directly when ``tr`` is None and, when tracing, hands
the library evaluators wrapped by the tracer.  ``Op.check`` returns None
when the outcome is correct and the reason otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import genutil as g
import stieltjeskit as sk
from stieltjeskit.classifier import GridConfig
from stieltjeskit.matmeasure import matrix_from_json

from spans import PINV_EVAL

GRID = GridConfig()  # the default 160-point grid, seed 42
MEMBER_MARGIN = -1e-10  # criterion 01
PINV_MARGIN = -1e-9  # criterion 06
NEGATIVE_MARGIN = -1e-6  # criterion 10
LADDER_RTOL = 1e-6  # criterion 06
VALUE_RTOL = 1e-12  # criterion 08
CLI_ENTRY = "from stieltjeskit.cli import main; main()"  # what the console script runs
KIND_CLASS = {
    "stieltjes_pair": "s",
    "s0": "s0",
    "sinf_triple": "sinf",
    "t_pair": "t",
    "t0": "t0",
    "tinf_triple": "tinf",
}


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    reprs: list  # every generated input, in generation order
    ops: list  # one cycle, interleaved so that any prefix has the cycle's mix
    fixtures: dict  # tag -> (StieltjesPair, JSON path)
    reaches: frozenset  # layers the ops themselves call: eval, pinv, ladder
    subprocess_ops: bool = False


def endpoint_side(r):
    a = getattr(r, "alpha", None)
    return (a, "right") if a is not None else (r.beta, "left")


def measure_of(r) -> sk.MatrixMeasure:
    for f in dataclasses.fields(r):
        v = getattr(r, f.name)
        if isinstance(v, sk.MatrixMeasure):
            return v
    raise TypeError(f"no measure on {r.KIND}")


def kernel_bytes(q: int, n: int) -> float:
    """Computed bytes one atomic-kernel evaluation touches: weights and nodes."""
    return 16.0 * n * q * q + 8.0 * n


def digest(reprs) -> str:
    """SHA-256 of kinds, endpoints, matrix fields, nodes and weights.

    Values are hashed at single precision so that a last-bit difference
    between BLAS builds does not read as a changed input.
    """
    h = hashlib.sha256()
    for r in reprs:
        h.update(r.KIND.encode())
        for f in dataclasses.fields(r):
            v = getattr(r, f.name)
            arrays = (v.nodes, v.weights) if isinstance(v, sk.MatrixMeasure) else (v,)
            for a in arrays:
                h.update(np.asarray(a, dtype=complex).reshape(-1).view(float).astype(np.float32).tobytes())
    return h.hexdigest()


def interleave(groups):
    """Merge groups so each is spread evenly over the cycle."""
    keyed = [((i + 0.5) / len(grp), k, op) for k, grp in enumerate(groups) for i, op in enumerate(grp)]
    keyed.sort(key=lambda e: (e[0], e[1]))
    return [op for _, _, op in keyed]


def _fixtures(pairs, fixture_dir):
    """Write each pair as JSON when ``fixture_dir`` is given; tag -> (pair, path)."""
    out = {}
    for tag, p in pairs.items():
        path = None
        if fixture_dir is not None:
            path = os.path.join(fixture_dir, f"{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sk.repr_to_json(p), fh)
        out[tag] = (p, path)
    return out


# --- library calls, traced or not -------------------------------------------


def evaluator_of(tr, r):
    F = sk.evaluator(r)
    if tr is None:
        return F
    return tr.wrap(F, nbytes=kernel_bytes(r.q, len(measure_of(r).atoms)))


def certify(tr, F, endpoint, cls):
    if tr is None:
        return sk.certify_class(F, endpoint, cls, GRID)
    with tr.span("classifier.certify"):
        return sk.certify_class(F, endpoint, cls, GRID)


def pinv_of(tr, r, neg=False):
    mapper = sk.neg_pinv_map if neg else sk.pinv_map
    if tr is None:
        return mapper(r)
    endpoint, side = endpoint_side(r)
    inner = evaluator_of(tr, r)
    with tr.span("transforms.map_build"):
        G = mapper(inner, endpoint, side)
    return tr.wrap(G, PINV_EVAL)


def ladder(tr, F, mode):
    if tr is None:
        return sk.limit_at_infinity(F, mode)
    with tr.span("limits.ladder"):
        est = sk.limit_at_infinity(F, mode)
    tr.ladder_depths.append(est.ladder_depth)
    return est


# --- checks -----------------------------------------------------------------


def _worst(cert):
    return min(cert.conditions, key=lambda c: c["margin"])


def check_member(bound):
    def check(cert):
        worst = _worst(cert)
        if not cert.verdict or worst["margin"] < bound:
            return f"member rejected: {worst['name']} margin {worst['margin']:.3e} < {bound:g}"
        return None

    return check


def check_negative(cert):
    worst = _worst(cert)
    if cert.verdict or worst["margin"] >= NEGATIVE_MARGIN or worst["witness"] is None:
        return f"negative control not rejected with a witness: {worst['name']} margin {worst['margin']:.3e}"
    return None


def check_passes(cert):
    return None if cert.verdict else f"certificate failed: {_worst(cert)['name']} margin {_worst(cert)['margin']:.3e}"


def check_fails(cert):
    return "certificate passed but must fail" if cert.verdict else None


def _close(A, B) -> bool:
    return float(np.linalg.norm(A - B)) <= VALUE_RTOL * (1.0 + float(np.linalg.norm(B)))


# --- certify_small / certify_large -----------------------------------------


def cert_op(label, r, cls, check):
    endpoint, _ = endpoint_side(r)
    return Op(label, lambda tr: certify(tr, evaluator_of(tr, r), endpoint, cls), check)


def opaque_op(label, q, alpha, fn, n_atoms):
    """Certificate of an opaque right-ray evaluator that must fail (criterion 10)."""

    def run(tr):
        F = sk.Evaluator(q, sk.right_ray(alpha), fn)
        if tr is not None:
            F = tr.wrap(F, nbytes=kernel_bytes(q, n_atoms))
        return certify(tr, F, alpha, "s")

    return Op(label, run, check_negative)


def negative_controls(rng, count):
    ops, pairs = [], []
    for _ in range(count):
        p = g.random_pair(rng, q=2)
        pairs.append(p)
        bad_gamma = p.gamma - (np.linalg.norm(p.gamma, 2) + 0.5) * np.outer([1.0, 0], [1.0, 0])
        coeff = 1.0 + p.mu.nodes - p.alpha

        def bad_fn(z, bad_gamma=bad_gamma, atoms=p.mu.atoms, coeff=coeff):
            out = np.array(bad_gamma, dtype=complex)
            for (t, W), c in zip(atoms, coeff):
                out = out + (c / (t - z)) * W
            return out

        t_bad = p.alpha - rng.uniform(0.25, 0.55)
        W_bad = g.psd(rng, 2) + 2.0 * np.eye(2)

        def crossed(z, base=sk.evaluator(p).fn, t_bad=t_bad, W_bad=W_bad, alpha=p.alpha):
            return base(z) + ((1.0 + t_bad - alpha) / (t_bad - z)) * W_bad

        n = len(p.mu.atoms)
        ops.append(opaque_op("negative_gamma", 2, p.alpha, bad_fn, n))
        ops.append(opaque_op("negative_crossed", 2, p.alpha, crossed, n + 1))
    return ops, pairs


def certify_small(seed, tiny, fixture_dir, env, root):
    """Criterion-01 mix at genutil defaults plus the criterion-10 controls."""
    per_kind, n_controls = (3, 1) if tiny else (50, 5)
    rng = np.random.default_rng([seed, 1])
    groups, reprs = [], []
    for kind, make in g.RANDOM_KINDS.items():
        rs = [make(rng) for _ in range(per_kind)]
        reprs += rs
        groups.append([cert_op(kind, r, KIND_CLASS[kind], check_member(MEMBER_MARGIN)) for r in rs])
    controls, pairs = negative_controls(np.random.default_rng([seed, 10]), n_controls)
    groups.append(controls)
    reprs += pairs
    fixtures = _fixtures({"pair": reprs[0]}, fixture_dir)
    return Workload(reprs, interleave(groups), fixtures, frozenset({"eval"}))


def certify_large(seed, tiny, fixture_dir, env, root):
    """Six kinds at (q, n) = (4, 50) and (8, 500).

    Two (4, 50) inputs per (8, 500) one, so the median op falls inside the
    (4, 50) cluster rather than on the gap between the two sizes.
    """
    sizes = ((2, 5, 1), (3, 12, 1)) if tiny else ((4, 50, 2), (8, 500, 1))
    rng = np.random.default_rng([seed, 2])
    groups, reprs = [], []
    for q, n, copies in sizes:
        for kind, make in g.RANDOM_KINDS.items():
            rs = [make(rng, q=q, n_atoms=n) for _ in range(copies)]
            reprs += rs
            groups.append([cert_op(f"{kind}_{q}x{n}", r, KIND_CLASS[kind], check_member(MEMBER_MARGIN)) for r in rs])
    pairs = [r for r in reprs if r.KIND == "stieltjes_pair"]
    fixtures = _fixtures({"pair_small": pairs[0], "pair_large": pairs[-1]}, fixture_dir)
    return Workload(reprs, interleave(groups), fixtures, frozenset({"eval"}))


# --- pinv_closure -----------------------------------------------------------


def pinv_cert_op(label, r, neg, cls, check):
    endpoint, _ = endpoint_side(r)
    return Op(label, lambda tr: certify(tr, pinv_of(tr, r, neg), endpoint, cls), check)


def ladder_op(s):
    expected = sk.pinv(sk.total_mass(s.sigma)).pinv

    def check(est):
        err = float(np.linalg.norm(est.value - expected))
        if err > LADDER_RTOL * (1.0 + float(np.linalg.norm(expected))):
            return f"ladder limit differs from pinv(total mass) by {err:.3e}"
        return None

    return Op("pinv_s0_ladder", lambda tr: ladder(tr, pinv_of(tr, s), "plain_iy"), check)


def pinv_closure(seed, tiny, fixture_dir, env, root):
    """Criterion-06 mix: pinv maps certified in the exchanged class."""
    n_a, n_b = (2, 2) if tiny else (50, 20)
    rng = np.random.default_rng([seed, 6])
    pairs = [g.random_pair(rng) for _ in range(n_a)]
    s0s = [g.random_s0(rng, q=2) for _ in range(n_b)]
    sinfs, tinfs = zip(*[(g.random_sinf(rng, q=2), g.random_tinf(rng, q=2)) for _ in range(n_b)])
    pairs2, tpairs = zip(*[(g.random_pair(rng, q=2), g.random_tpair(rng, q=2)) for _ in range(n_b)])
    ok_s, ok = check_member(PINV_MARGIN), check_passes
    groups = [
        [pinv_cert_op("pinv_pair_s", r, False, "s", ok_s) for r in pairs],
        [ladder_op(s) for s in s0s],
        [pinv_cert_op("pinv_s0_not_s0", s, False, "s0", check_fails) for s in s0s],
        [pinv_cert_op("negpinv_sinf_s", r, True, "s", ok) for r in sinfs],
        [pinv_cert_op("negpinv_tinf_t", r, True, "t", ok) for r in tinfs],
        [pinv_cert_op("negpinv_pair_sinf", r, True, "sinf", ok) for r in pairs2],
        [pinv_cert_op("negpinv_tpair_tinf", r, True, "tinf", ok) for r in tpairs],
    ]
    reprs = pairs + list(s0s) + list(sinfs) + list(tinfs) + list(pairs2) + list(tpairs)
    fixtures = _fixtures({"pair": pairs[0]}, fixture_dir)
    return Workload(reprs, interleave(groups), fixtures, frozenset({"eval", "pinv", "ladder"}))


# --- cli_files --------------------------------------------------------------


def run_cli(argv, env, cwd):
    res = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env, cwd=cwd, capture_output=True)
    return res.returncode, res.stdout


def _grid_check(grid, pair):
    if len(grid) != 20:
        return f"grid has {len(grid)} points, expected 20"
    F = sk.evaluator(pair)
    for rec in grid:
        z = complex(*rec["z"])
        if not _close(matrix_from_json(rec["F"]), F(z)):
            return f"value at z = {z} differs from in-process evaluation"
    return None


def _report_check(pair, key):
    def check(outcome):
        code, stdout = outcome
        if code != 0:
            return f"exit code {code}, expected 0"
        report = json.loads(stdout)
        if "certificate" in report and report["certificate"]["verdict"] != "pass":
            return "certificate verdict is not pass"
        return _grid_check(report[key], pair) if key else None

    return check


def _convert_check(pair, out_path):
    pts = g.off_ray_points(np.random.default_rng(8), pair.alpha, "right", 3)

    def check(outcome):
        code, _ = outcome
        if code != 0:
            return f"exit code {code}, expected 0"
        with open(out_path, encoding="utf-8") as fh:
            kk = sk.repr_from_json(json.load(fh)["representation"])
        if kk.KIND != "kk_pair":
            return f"converted kind {kk.KIND}, expected kk_pair"
        for z in pts:
            if not _close(sk.evaluate(kk, z), sk.evaluate(pair, z)):
                return f"converted value at z = {z} differs from the input's"
        return None

    return check


def cli_ops(tag, pair, path, env, cwd):
    out_path = os.path.join(os.path.dirname(path), f"{tag}.kk.json")

    def convert(tr):
        if os.path.exists(out_path):
            os.remove(out_path)
        return run_cli(["convert", "--kind", "kk_pair", "--input", path, "--out", out_path], env, cwd)

    def command(name):
        return lambda tr: run_cli([name, "--input", path], env, cwd)

    return [
        Op(f"report_{tag}", command("report"), _report_check(pair, "samples")),
        Op(f"certify_{tag}", command("certify"), _report_check(pair, None)),
        Op(f"eval_{tag}", command("eval"), _report_check(pair, "grid")),
        Op(f"convert_{tag}", convert, _convert_check(pair, out_path)),
    ]


def cli_files(seed, tiny, fixture_dir, env, root):
    """CLI subprocesses on a (2, 5) and an (8, 500) pair fixture.

    Each command runs three times on the small fixture for every two runs
    on the large one, so the median op falls inside the small cluster
    rather than on the gap between the two sizes.
    """
    sizes = ((2, 5, 3), (3, 12, 2)) if tiny else ((2, 5, 3), (8, 500, 2))
    rng = np.random.default_rng([seed, 8])
    pairs = {f"pair_{q}x{n}": g.random_pair(rng, q=q, n_atoms=n) for q, n, _ in sizes}
    fixtures = _fixtures(pairs, fixture_dir)
    groups = []
    if fixture_dir is not None:
        for (tag, (pair, path)), (_, _, copies) in zip(fixtures.items(), sizes):
            for op in cli_ops(tag, pair, path, env, root):
                groups.append([op] * copies)
    return Workload(list(pairs.values()), interleave(groups), fixtures, frozenset(), subprocess_ops=True)


BUILDERS = {
    "certify_small": certify_small,
    "certify_large": certify_large,
    "pinv_closure": pinv_closure,
    "cli_files": cli_files,
}
