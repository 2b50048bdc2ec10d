"""Limits at infinity of black-box evaluators, by a Richardson ladder.

The representations are analytic in 1/y at infinity along vertical and
radial rays, so a geometric ladder y_k = 2^k combined with Richardson
extrapolation in 1/y converges fast, from a first rung past the farthest
pole, and carries an explicit increment-based error estimate.  Plain and
radial ladders of an atomic F whose kind has a constant g (gamma, C or 0:
``KindSpec.constant``) also start past its rounding horizon
h = sum |c(t)| ||W||_F eps / (EPS_LIM max(1, ||g||)), inside which a sample's
rounding, about eps sum |c(t)| ||W||_F / y, exceeds the stop.

The ladder reads its rungs in blocks of ``LADDER_BLOCK`` through
``F.batch`` (the pole guard, then the gate ``sampled_values``), as every
public read of F, and keeps the samples of every rung read as one stack.
After each block it runs the plain Neville recurrence over the whole stack,
column r = (2^r col[1:] - col[:-1]) / (2^r - 1), whose first entry is rung
r's diagonal, and tests the rungs of the block in turn: the depth, value and
error bound are those of a one-rung-at-a-time ladder on the same samples.
A rung the gate names (it raised, warned or was not finite) cuts its block
there; its ``EvaluationFailed`` is raised only if the rungs before it do not
stop the ladder.  A non-finite extrapolant raises ``NoConvergence`` at its rung.

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


def limit_at_infinity(F: Evaluator, mode: str = "plain_iy", alpha: float = 0.0, phi: float = math.pi) -> LimitEstimate:
    """Richardson-extrapolated limit along the geometric ladder y = 2^j, ..., 2^(j + K_MAX).

    2^j is the least power of two past the reach max |t - c| over the nodes t
    of an atomic F (``_kernel``), c = alpha in radial mode, else 0, and outside
    y_scaled mode past the rounding horizon h above; j = 0 for an opaque F or
    both below 1.  A radial reach is at least 2 EPS_NEAR (1 + |alpha|): every
    rung passes the pole guard.  Stops when successive diagonal extrapolants
    differ by less than EPS_LIM * (1 + ||value||); raises ``NoConvergence`` at
    the last rung, or without last_estimates at the first rung whose
    extrapolant is not finite.  A reach or a horizon at or past 2^RUNG_CEILING
    raises NoConvergence naming the farthest node or the horizon before any
    evaluation, without last_estimates or last_rung.
    """
    if mode not in MODES:
        raise InvalidArgument(f"mode must be one of {MODES}")
    if mode == "radial":
        # The sector whose rays run along the real gap, away from the excluded ray.
        left = F.excluded is not None and F.excluded.side == "left"
        lo, hi = (-math.pi / 2, math.pi / 2) if left else (math.pi / 2, 3 * math.pi / 2)
        if not lo < phi < hi:
            raise InvalidArgument("phi must lie in (-pi/2, pi/2)" if left else "phi must lie in (pi/2, 3*pi/2)")
    nodes, c, W, constant = (np.empty(0), None, None, None) if F._kernel is None else F._kernel
    dist = np.abs(nodes - (alpha if mode == "radial" else 0.0))
    guard = 2.0 * EPS_NEAR * (1.0 + abs(alpha)) if mode == "radial" else 0.0  # a radial rung at y lies y off the ray
    j = max(0, math.frexp(float(dist.max(initial=guard)))[1])  # the least 2^j past the reach
    if j > RUNG_CEILING:
        raise NoConvergence(f"node {float(nodes[dist.argmax()])} lies past the first-rung ceiling 2^{RUNG_CEILING}")
    if mode != "y_scaled" and constant is not None:  # y_scaled samples are relative to the mass: no horizon
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite (or nan) horizon lies past the ceiling too
            rounding = float((np.abs(c) * fro(W, axis=1)).sum()) * np.finfo(float).eps
            h = rounding / (EPS_LIM * max(1.0, float(fro(constant))))  # the stop's scale, within a factor 2
        if not h < 2.0**RUNG_CEILING:
            raise NoConvergence(f"the rounding horizon {h:.3g} lies past the first-rung ceiling 2^{RUNG_CEILING}")
        j = max(j, math.frexp(h)[1])  # the least 2^j past max(reach, h)

    S, increments, direction = np.empty((0, F.q, F.q), dtype=complex), [], complex(math.cos(phi), math.sin(phi))
    while len(S) <= K_MAX:  # S: the samples of every rung read, rung i at y = 2^(j + i)
        ys = [2.0 ** (j + i) for i in range(len(S), min(len(S) + LADDER_BLOCK, K_MAX + 1))]
        block, failed = _read(F, np.array([alpha + y * direction if mode == "radial" else 1j * y for y in ys]))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # a non-finite extrapolant is typed below
            if mode == "y_scaled":
                block = np.array([-1j * y for y in ys[: len(block)]])[:, None, None] * block
            k0, S = len(S), np.concatenate((S, block))
            col, diags = S, [S[0]]  # column r of the Neville tableau; its first entry is rung r's diagonal
            for r in range(1, len(S)):
                col = (2.0**r * col[1:] - col[:-1]) / (2.0**r - 1.0)
                diags.append(col[0])
            for i in range(k0, len(S)):
                if not np.isfinite(diags[i]).all():
                    raise NoConvergence(f"the extrapolant at rung y = 2^{j + i} is not finite", last_rung=2.0 ** (j + i))
                if i:
                    increments.append(inc := float(fro(diags[i] - diags[i - 1])))
                    if inc < EPS_LIM * (1.0 + float(fro(diags[i]))):
                        return LimitEstimate(diags[i].copy(), inc, j + i, tuple(increments))
        if failed is not None:
            raise failed
    raise NoConvergence(
        f"ladder reached its last rung y = 2^{j + K_MAX} without meeting the stopping criterion",
        last_estimates=(diags[-2].copy(), diags[-1].copy()),
        last_rung=2.0 ** (j + K_MAX),
    )
