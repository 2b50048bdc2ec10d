"""Limits at infinity of black-box evaluators, by a Richardson ladder.

The representations are analytic in 1/y at infinity along vertical and
radial rays, so a geometric ladder y_k = 2^k combined with Richardson
extrapolation in 1/y converges fast, from a first rung past the farthest
pole, and carries an explicit increment-based error estimate.

The ladder reads its rungs in blocks of ``LADDER_BLOCK`` through
``F.batch`` (the pole guard, then the gate ``sampled_values``), as every
public read of F, and builds the Neville tableau of a block column by
column, but runs the stopping test rung by rung: the depth, value and error
bound are those of a one-rung-at-a-time ladder on the same samples.  A rung
the gate names (it raised, warned or was not finite) cuts its block there;
its ``EvaluationFailed`` is raised only if the rungs before it do not stop
the ladder.  A non-finite extrapolant raises ``NoConvergence`` at its rung.

Supported modes:

* ``plain_iy``:      lim F(iy)            (gamma of a pair, -gamma of a left-ray pair)
* ``y_scaled``:      -i lim y F(iy)       (total mass of a resolvent measure, on either ray)
* ``radial``:        lim F(alpha + r e^{i phi}) along the real gap: phi in
  (pi/2, 3pi/2) off a right ray, in (-pi/2, pi/2) off a left ray
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationFailed, InvalidArgument, NoConvergence
from .matmeasure import EPS_LIM, EPS_NEAR, RUNG_CEILING, fro
from .representations import Evaluator

K_MAX = 48  # rungs past the first
# Rungs per read through the gate.  A block costs one tableau column per rung
# evaluated so far, so larger blocks need fewer columns in all, at the price of
# up to LADDER_BLOCK - 1 rungs past the stopping rung.  Against 8 (one CPU,
# in-process medians per ladder): converged q <= 3 ladders 0.31 -> 0.19 ms,
# 48-rung q = 2 ladders 2.45 -> 1.82 ms; only (8, 500) atoms lose, 1.13 -> 1.44 ms.
LADDER_BLOCK = 16

MODES = ("plain_iy", "y_scaled", "radial")


@dataclass(frozen=True, eq=False)
class LimitEstimate:
    """The extrapolated limit, its error bound and how the ladder got there.

    ``increments`` holds the norm of the change of the diagonal extrapolant at
    rungs j+1..ladder_depth (the first rung is 2^j, the stopping rung y =
    2^ladder_depth); the last one is ``error_bound``.
    """

    value: np.ndarray
    error_bound: float
    ladder_depth: int
    increments: tuple = ()

    def __eq__(self, other) -> bool:
        """Exact equality: equal values, bounds, depths and increments."""
        if type(other) is not type(self):
            return NotImplemented
        fields = lambda e: (e.error_bound, e.ladder_depth, e.increments)  # noqa: E731
        return fields(self) == fields(other) and np.array_equal(self.value, other.value)


def _read(F: Evaluator, zs: np.ndarray) -> tuple[np.ndarray, EvaluationFailed | None]:
    """(F.batch at zs, None), or F before the first point the gate names and its error, raised if that is zs[0]."""
    try:
        return F.batch(zs), None
    except EvaluationFailed as exc:
        cut = int(np.argmax(zs == exc.witness))  # 0 without a witness: the batch raised and no single point does
        if not cut:
            raise
        V, earlier = _read(F, zs[:cut])  # read again up to the failing point, which may fail earlier
        return V, earlier or exc


def _tableau(last: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Neville rows of the rungs k0..k0+b-1 from their samples S (b, q, q), column by column.

    ``last`` holds the k0 entries of the row of rung k0 - 1.  Row k has
    k + 1 entries, row[j] = (2^j row[j-1] - prev_row[j-1]) / (2^j - 1),
    eliminating successive powers of 1/y (ratio 2).  Returns T of shape
    (k0 + b, b + 1, q, q) with entry j of row k0 + i at T[j, i + 1] and
    ``last`` in slot 0 (entries past a row's end are unset).  Column j
    depends only on column j - 1, so each is one array expression over
    the block.
    """
    k0, b = len(last), len(S)
    T = np.empty((k0 + b, b + 1) + S.shape[1:], dtype=np.result_type(last, S))
    T[:k0, 0] = last
    T[0, 1:] = S
    for j in range(1, k0 + b):
        factor = 2.0**j
        i0 = max(0, j - k0)  # rows of rungs below j have no entry j
        prev = T[j - 1]
        T[j, 1 + i0 :] = (factor * prev[1 + i0 :] - prev[i0:-1]) / (factor - 1.0)
    return T


def limit_at_infinity(F: Evaluator, mode: str = "plain_iy", alpha: float = 0.0, phi: float = math.pi) -> LimitEstimate:
    """Richardson-extrapolated limit along the geometric ladder y = 2^j, ..., 2^(j + K_MAX).

    2^j is the least power of two past the reach max |t - c| over the
    nodes of an atomic F (one with ``_nodes``), c = alpha in radial mode,
    else 0; j = 0 for an opaque F or a reach below 1.  A radial reach is at
    least 2 EPS_NEAR (1 + |alpha|): every rung passes the pole guard.  Stops when
    successive diagonal extrapolants differ by less than
    EPS_LIM * (1 + ||value||); raises ``NoConvergence`` at the last rung, or
    without last_estimates at the first rung whose extrapolant is not finite.
    A reach at or past 2^RUNG_CEILING raises NoConvergence naming the farthest
    node before any evaluation, without last_estimates or last_rung.
    """
    if mode not in MODES:
        raise InvalidArgument(f"mode must be one of {MODES}")
    if mode == "radial":
        # The sector whose rays run along the real gap, away from the excluded ray.
        left = F.excluded is not None and F.excluded.side == "left"
        lo, hi = (-math.pi / 2, math.pi / 2) if left else (math.pi / 2, 3 * math.pi / 2)
        if not lo < phi < hi:
            raise InvalidArgument("phi must lie in (-pi/2, pi/2)" if left else "phi must lie in (pi/2, 3*pi/2)")
    dist = np.abs((np.empty(0) if F._nodes is None else F._nodes) - (alpha if mode == "radial" else 0.0))
    guard = 2.0 * EPS_NEAR * (1.0 + abs(alpha)) if mode == "radial" else 0.0  # a radial rung at y lies y off the ray
    j = max(0, math.frexp(float(dist.max(initial=guard)))[1])  # the least 2^j past the reach
    if j > RUNG_CEILING:
        raise NoConvergence(f"node {float(F._nodes[dist.argmax()])} lies past the first-rung ceiling 2^{RUNG_CEILING}")

    last, increments, prev_diag = np.empty((0, F.q, F.q), dtype=complex), [], None  # last: the previous rung's row
    k, top, direction = j, j + K_MAX, complex(math.cos(phi), math.sin(phi))
    while k <= top:
        ys = [2.0**i for i in range(k, min(k + LADDER_BLOCK, top + 1))]  # per-rung scalar points and factors
        S, failed = _read(F, np.array([alpha + y * direction if mode == "radial" else 1j * y for y in ys]))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # a non-finite extrapolant is typed below
            if mode == "y_scaled":
                S = np.array([-1j * y for y in ys[: len(S)]])[:, None, None] * S
            T = _tableau(last, S)
            b = len(S)  # the rungs tested: those before the first non-finite diagonal, after which none is finite
            if not np.isfinite(T[-1, -1]).all():
                b = int(np.argmin(np.isfinite(T[k - j + np.arange(b), 1 + np.arange(b)]).all(axis=(1, 2))))
                failed = NoConvergence(f"the extrapolant at rung y = 2^{k + b} is not finite", last_rung=2.0 ** (k + b))
            for i in range(1, b + 1):
                diag = T[k - j, i]
                if prev_diag is not None:
                    inc = float(fro(diag - prev_diag))
                    increments.append(inc)
                    if inc < EPS_LIM * (1.0 + float(fro(diag))):
                        return LimitEstimate(diag.copy(), inc, k, tuple(increments))
                prev_diag = diag
                k += 1
        if failed is not None:
            raise failed
        last = T[:, -1]
    raise NoConvergence(
        f"ladder reached its last rung y = 2^{top} without meeting the stopping criterion",
        # the diagonals of the last two rungs (slot 0 holds the row before the block)
        last_estimates=(T[-2, -2].copy(), T[-1, -1].copy()),
        last_rung=2.0**top,
    )
