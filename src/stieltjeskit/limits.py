"""Limits at infinity of black-box evaluators, by a Richardson ladder.

The representations are analytic in 1/y at infinity along vertical and
radial rays, so a geometric ladder y_k = 2^k combined with Richardson
extrapolation in 1/y converges fast, from a first rung past the farthest
pole, and carries an explicit increment-based error estimate.  Plain and
radial ladders of an atomic F whose kind has a constant g (gamma, C or 0:
``KindSpec.constant``) also start past its rounding horizon
h = sum |c(t)| ||W||_F eps / (EPS_LIM max(1, ||g||)), inside which a sample's
rounding, about eps sum |c(t)| ||W||_F / y, exceeds the stop.

The ladder reads its K_MAX + 1 rungs in one batch through ``F.batch`` (the
pole guard, then the gate ``sampled_values``), as every public read of F.
It then runs the plain Neville recurrence one column at a time, column
i = (2^i col[1:] - col[:-1]) / (2^i - 1), whose first entry is rung i's
diagonal, and tests that diagonal at once: the depth, value and error bound
are those of a one-rung-at-a-time ladder on the same samples.  A rung the
gate names (it raised, warned or was not finite) cuts the read there; its
``EvaluationFailed`` is raised only if the rungs before it do not stop the
ladder.  A non-finite extrapolant raises ``NoConvergence`` at its rung.

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
from .matmeasure import EPS_LIM, EPS_NEAR, RUNG_CEILING, as_endpoint, fro
from .representations import Evaluator

K_MAX = 48  # rungs past the first
_CEILING = f"the first-rung ceiling 2^{RUNG_CEILING}"  # named when a reach or a rounding horizon lies past it

MODES = ("plain_iy", "y_scaled", "radial")


@dataclass(frozen=True, eq=False)
class LimitEstimate:
    """The extrapolated limit, its error bound and how the ladder got there.

    ``increments`` holds the norm of the change of the diagonal extrapolant at
    rungs j+1..ladder_depth (the first rung is y = ``first_rung`` =
    2^(ladder_depth - len(increments)) = 2^j, the stopping rung y =
    2^ladder_depth); the last one is ``error_bound``.
    """

    value: np.ndarray
    error_bound: float
    ladder_depth: int
    increments: tuple = ()

    @property
    def first_rung(self) -> float:
        return 2.0 ** (self.ladder_depth - len(self.increments))

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


def limit_at_infinity(
    F: Evaluator, mode: str = "plain_iy", alpha: float = 0.0, phi: float | None = None
) -> LimitEstimate:
    """Richardson-extrapolated limit along the geometric ladder y = 2^j, ..., 2^(j + K_MAX).

    2^j is the least power of two past the reach max |t - c| over the nodes t
    of an atomic F (``_kernel``), c = alpha in radial mode, else 0, and outside
    y_scaled mode past the rounding horizon h above; j = 0 for an opaque F or
    both below 1.  A radial reach is at least 2 EPS_NEAR (1 + |alpha|): every
    rung passes the pole guard.  Stops when successive diagonal extrapolants
    differ by less than EPS_LIM * (1 + ||value||).  ``NoConvergence`` records
    how it ended: ``last_rung`` is the first rung whose extrapolant is not
    finite, or the last rung, where ``estimate`` holds the ladder's extrapolant;
    a reach or a horizon at or past 2^RUNG_CEILING raises before any
    evaluation, naming the farthest node or the horizon, at 2^RUNG_CEILING.
    A radial ``phi`` defaults to the gap away from F's ray, 0 off a left ray and else pi; with no ray side, any phi.
    """
    if mode not in MODES:
        raise InvalidArgument(f"mode must be one of {MODES}")
    if mode == "radial":
        alpha = as_endpoint(alpha)
        # The sector whose rays run along the real gap, away from the excluded ray; phi = None is its middle.
        side = None if F.excluded is None else F.excluded.side
        lo = -math.pi / 2 if side == "left" else math.pi / 2
        phi = lo + math.pi / 2 if phi is None else phi
        if side is not None and not lo < phi < lo + math.pi:
            raise InvalidArgument("phi must lie in (-pi/2, pi/2)" if lo < 0 else "phi must lie in (pi/2, 3*pi/2)")
    nodes, c, W, constant = (np.empty(0), None, None, None) if F._kernel is None else F._kernel
    dist = np.abs(nodes - (alpha if mode == "radial" else 0.0))
    guard = 2.0 * EPS_NEAR * (1.0 + abs(alpha)) if mode == "radial" else 0.0  # a radial rung at y lies y off the ray
    j = max(0, math.frexp(float(dist.max(initial=guard)))[1])  # the least 2^j past the reach
    if j > RUNG_CEILING:
        raise NoConvergence(f"node {float(nodes[dist.argmax()])} lies past {_CEILING}", 2.0**RUNG_CEILING)
    if mode != "y_scaled" and constant is not None:  # y_scaled samples are relative to the mass: no horizon
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite (or nan) horizon lies past the ceiling too
            rounding = float((np.abs(c) * fro(W, axis=1)).sum()) * np.finfo(float).eps
            h = rounding / (EPS_LIM * max(1.0, float(fro(constant))))  # the stop's scale, within a factor 2
        if not h < 2.0**RUNG_CEILING:
            raise NoConvergence(f"the rounding horizon {h:.3g} lies past {_CEILING}", 2.0**RUNG_CEILING)
        j = max(j, math.frexp(h)[1])  # the least 2^j past max(reach, h)

    direction = complex(math.cos(phi), math.sin(phi)) if mode == "radial" else None
    ys = [2.0 ** (j + i) for i in range(K_MAX + 1)]
    S, failed = _read(F, np.array([alpha + y * direction if mode == "radial" else 1j * y for y in ys]))
    increments = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # a non-finite extrapolant is typed below
        col = np.array([-1j * y for y in ys[: len(S)]])[:, None, None] * S if mode == "y_scaled" else S
        for i in range(len(S)):  # col: column i of the Neville tableau; its first entry is rung i's diagonal
            if i:
                col, prev = (2.0**i * col[1:] - col[:-1]) / (2.0**i - 1.0), col[0]
            if not np.isfinite(col[0]).all():
                raise NoConvergence(f"the extrapolant at rung y = 2^{j + i} is not finite", ys[i])
            if i:
                increments.append(inc := float(fro(col[0] - prev)))
                if inc < EPS_LIM * (1.0 + float(fro(col[0]))):
                    return LimitEstimate(col[0].copy(), inc, j + i, tuple(increments))
    if failed is not None:
        raise failed
    raise NoConvergence(
        f"ladder reached its last rung y = 2^{j + K_MAX} without meeting the stopping criterion",
        ys[-1],
        LimitEstimate(col[0].copy(), inc, j + K_MAX, tuple(increments)),
    )
