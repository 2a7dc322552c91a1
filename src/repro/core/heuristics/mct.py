"""MCT-family heuristics (paper Section 6.3.1).

* **MCT** — assign each task to the processor minimising the estimated
  completion time ``CT(P_q, n_q + 1)`` of Equation 1.  MCT is the optimal
  policy for the contention-free offline problem (Proposition 2), applied
  online with the stay-UP/no-contention simplifications.
* **MCT\\*** — same, with Equation 2's contention correction: ``T_data`` is
  inflated by ``ceil(n_active / n_com)``, a coarse model of the master's
  channel budget being shared among active workers.
* **EMCT / EMCT\\*** — replace the raw ``CT`` by Theorem 2's conditional
  expectation :math:`E^{(q)}(CT)`, accounting for the slots the processor
  will likely spend RECLAIMED while executing the workload.  This is the
  paper's headline heuristic: ~10% better makespans than MCT overall.
"""

from __future__ import annotations

import numpy as np

from ..expectation import expected_next_up
from .base import (
    GreedyScheduler,
    ProcessorView,
    RoundState,
    SchedulingContext,
    completion_time_batch,
    completion_time_estimate,
)

__all__ = ["MctScheduler", "EmctScheduler"]


class MctScheduler(GreedyScheduler):
    """``MCT`` / ``MCT*``: minimum estimated completion time.

    Args:
        contention: enables Equation 2's correcting factor (the ``*``).
    """

    maximize = False
    batch_scoring = True

    def __init__(self, *, contention: bool = False):
        self.use_contention_factor = contention
        self.name = "mct*" if contention else "mct"

    def score(
        self,
        ctx: SchedulingContext,
        view: ProcessorView,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        return completion_time_estimate(
            view, nq_plus_one, ctx.t_data, contention_factor=contention_factor
        )

    def score_batch(
        self,
        rs: RoundState,
        indices: np.ndarray,
        nq_plus_one: np.ndarray,
        contention_factor,
    ) -> np.ndarray:
        ct = completion_time_batch(rs, indices, nq_plus_one, contention_factor)
        return ct.astype(np.float64)

    def score_one(
        self, rs: RoundState, q: int, nq_plus_one: int, contention_factor: int
    ) -> float:
        eff = contention_factor * rs.t_data
        speed = int(rs.speed_w[q])
        return float(
            int(rs.delay[q]) + eff + max(nq_plus_one - 1, 0) * max(eff, speed) + speed
        )

    def _score_ct_row(self, rs: RoundState, cache: dict, ct_row: list) -> list:
        return [float(ct) for ct in ct_row]

    def _score_ct_one(self, rs: RoundState, cache: dict, ct: int, i: int) -> float:
        return float(ct)


class EmctScheduler(GreedyScheduler):
    """``EMCT`` / ``EMCT*``: expected completion time under Theorem 2.

    The workload fed to Theorem 2 is the (possibly contention-corrected)
    ``CT`` estimate, rounded up to a whole number of UP slots.  The
    expectation inflates the estimate by the RECLAIMED excursions the
    processor's chain predicts: for chains that rarely leave UP the two
    heuristics coincide; for flaky chains EMCT systematically deprioritises
    processors whose nominal speed hides poor availability.

    Implementation note: :math:`E(W) = 1 + (W-1) E(up)` is linear in ``W``,
    so we cache :math:`E(up)` per processor rather than recomputing the
    closed form for every candidate workload (the array path reads the same
    quantity from the round state's cached ``e_up`` belief column).
    """

    maximize = False
    batch_scoring = True
    _belief_needs = "EMCT needs one"

    def __init__(self, *, contention: bool = False):
        self.use_contention_factor = contention
        self.name = "emct*" if contention else "emct"
        self._e_up_cache: dict[int, float] = {}

    def _expected_slots(self, view: ProcessorView, workload: float) -> float:
        if view.belief is None:
            raise ValueError(
                f"processor {view.index} has no Markov belief; EMCT needs one"
            )
        e_up = self._e_up_cache.get(view.index)
        if e_up is None:
            e_up = expected_next_up(view.belief)
            self._e_up_cache[view.index] = e_up
        # Theorem 2 with a (real-valued) workload estimate: E = 1 + (W-1)·E(up).
        return 1.0 + max(workload - 1.0, 0.0) * e_up

    def score(
        self,
        ctx: SchedulingContext,
        view: ProcessorView,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        ct = completion_time_estimate(
            view, nq_plus_one, ctx.t_data, contention_factor=contention_factor
        )
        return self._expected_slots(view, ct)

    def score_batch(
        self,
        rs: RoundState,
        indices: np.ndarray,
        nq_plus_one: np.ndarray,
        contention_factor,
    ) -> np.ndarray:
        ct = completion_time_batch(rs, indices, nq_plus_one, contention_factor)
        e_up = rs.gather_belief("e_up", indices, "EMCT needs one")
        # Theorem 2: E = 1 + (W-1)·E(up), the scalar expression elementwise.
        return 1.0 + np.maximum(ct - 1.0, 0.0) * e_up

    def score_one(
        self, rs: RoundState, q: int, nq_plus_one: int, contention_factor: int
    ) -> float:
        if rs.beliefs[q] is None:
            raise ValueError(f"processor {q} has no Markov belief; EMCT needs one")
        eff = contention_factor * rs.t_data
        speed = int(rs.speed_w[q])
        ct = int(rs.delay[q]) + eff + max(nq_plus_one - 1, 0) * max(eff, speed) + speed
        return 1.0 + max(ct - 1.0, 0.0) * float(rs.belief_column("e_up")[q])

    def _score_ct_row(self, rs: RoundState, cache: dict, ct_row: list) -> list:
        e_up = self._gather_belief(rs, cache, "e_up", "EMCT needs one")
        return [
            1.0 + max(ct - 1.0, 0.0) * e for ct, e in zip(ct_row, e_up)
        ]

    def _score_ct_one(self, rs: RoundState, cache: dict, ct: int, i: int) -> float:
        e_up = self._gather_belief(rs, cache, "e_up", "EMCT needs one")
        return 1.0 + max(ct - 1.0, 0.0) * e_up[i]
