"""The random heuristic family (paper Section 6.2).

``Random`` picks uniformly among UP processors.  ``Random1``–``Random4``
weight the pick by a reliability signal derived from the processor's Markov
belief:

1. **Random1 — Long time UP**: weight :math:`P^{(q)}_{u,u}` — favours
   processors that stay UP for long stretches.
2. **Random2 — Likely to work more**: weight :math:`P^{(q)}_+` (Lemma 1) —
   favours processors likely to be UP again before crashing.
3. **Random3 — Often UP**: weight :math:`\\pi^{(q)}_u` — favours processors
   with a large steady-state UP fraction.
4. **Random4 — Rarely DOWN**: weight :math:`1 - \\pi^{(q)}_d` — penalises
   processors that are often DOWN.

Each variant also exists with the weight divided by :math:`w_q`
(suffix ``w``: ``Random1w`` … ``Random4w``), folding speed into the
reliability signal.  The paper finds the ``w`` variants uniformly better
(Table 2), which our reproduction confirms.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..expectation import p_plus
from ..markov import MarkovAvailabilityModel
from .base import ProcessorView, RoundState, Scheduler, SchedulingContext

__all__ = [
    "RandomScheduler",
    "WeightedRandomScheduler",
    "inverse_cdf_pick",
    "make_random_variant",
    "RANDOM_WEIGHTS",
    "RANDOM_WEIGHT_COLUMNS",
]


def _require_belief(view: ProcessorView) -> MarkovAvailabilityModel:
    if view.belief is None:
        raise ValueError(
            f"processor {view.index} has no Markov belief; the weighted random "
            "heuristics need one (use Processor.from_markov or pass belief=...)"
        )
    return view.belief


#: The paper's four reliability weights, keyed by variant number.
RANDOM_WEIGHTS: Dict[int, Callable[[ProcessorView], float]] = {
    1: lambda view: _require_belief(view).p_uu,
    2: lambda view: p_plus(_require_belief(view)),
    3: lambda view: _require_belief(view).pi_u,
    4: lambda view: 1.0 - _require_belief(view).pi_d,
}

#: The same four weights as (column name, post-gather transform) pairs
#: against the :class:`RoundState` cached belief columns.
RANDOM_WEIGHT_COLUMNS: Dict[int, tuple] = {
    1: ("p_uu", False),
    2: ("p_plus", False),
    3: ("pi_u", False),
    4: ("pi_d", True),  # weight is 1 - pi_d
}

_MISSING_BELIEF = (
    "the weighted random heuristics need one (use Processor.from_markov or "
    "pass belief=...)"
)


def inverse_cdf_pick(cumulative: List[float], u: float) -> int:
    """Index drawn by ``u`` from the running sums ``cumulative``.

    ``bisect_right`` over ``itertools.accumulate(w / total)`` is the list
    twin of ``np.searchsorted(np.cumsum(w / total), u, side="right")``:
    both add sequentially in float64 and break ties to the right, so the
    pick is the same — clamped to the last index against fp rounding.
    """
    pick = bisect_right(cumulative, u)
    last = len(cumulative) - 1
    return pick if pick < last else last


class RandomScheduler(Scheduler):
    """``Random``: uniform choice among UP processors."""

    name = "random"

    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        if not candidates:
            return None
        pick = int(ctx.rng.integers(len(candidates)))
        return candidates[pick].index

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Array path: same per-task uniform draws over the UP index array."""
        cand_list = rs.up_candidates(allowed).tolist()
        if not cand_list:
            return [None] * n_tasks
        rng = rs.rng
        return [cand_list[int(rng.integers(len(cand_list)))] for _ in range(n_tasks)]


class WeightedRandomScheduler(Scheduler):
    """``RandomX``/``RandomXw``: reliability-weighted random choice.

    Args:
        weight_fn: maps a processor view to a non-negative weight.
        divide_by_speed: the ``w`` suffix — divide the weight by
            :math:`w_q` to also favour fast processors.
        name: registry name.
        variant: the paper's variant number (1–4) when ``weight_fn`` is one
            of :data:`RANDOM_WEIGHTS`; enables the vectorised array path
            (weights gathered from the round state's cached belief
            columns).  ``None`` — e.g. a custom weight function — routes
            :meth:`place_array` through the legacy-path shim instead.
    """

    def __init__(
        self,
        weight_fn: Callable[[ProcessorView], float],
        *,
        divide_by_speed: bool = False,
        name: str = "random-weighted",
        variant: Optional[int] = None,
    ):
        self._weight_fn = weight_fn
        self._divide_by_speed = divide_by_speed
        self.name = name
        if variant is not None and variant not in RANDOM_WEIGHT_COLUMNS:
            raise ValueError(f"variant must be 1..4 or None, got {variant}")
        self._variant = variant

    def weight(self, view: ProcessorView) -> float:
        """The (possibly speed-normalised) sampling weight for ``view``."""
        value = float(self._weight_fn(view))
        if value < 0:
            raise ValueError(
                f"weight function returned negative weight {value} for "
                f"processor {view.index}"
            )
        if self._divide_by_speed:
            value /= view.speed_w
        return value

    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        if not candidates:
            return None
        weights = np.array([self.weight(view) for view in candidates], dtype=float)
        total = weights.sum()
        if total <= 0.0:
            # All weights vanished (e.g. every candidate believed hopeless);
            # degrade gracefully to a uniform pick rather than stalling.
            pick = int(ctx.rng.integers(len(candidates)))
            return candidates[pick].index
        probabilities = weights / total
        pick = int(
            np.searchsorted(np.cumsum(probabilities), ctx.rng.random(), side="right")
        )
        pick = min(pick, len(candidates) - 1)  # guard against fp rounding
        return candidates[pick].index

    def weight_list(self, rs: RoundState, cand: List[int]) -> List[float]:
        """Sampling weights for ``cand``, gathered from belief columns.

        The cached columns hold the same floats the per-view weight
        functions return, and ``1 - w`` and the speed normalisation are
        the same IEEE operations on Python floats as on numpy float64, so
        the weights are bit-identical to the ones the scalar ``select``
        builds per call.
        """
        column, complement = RANDOM_WEIGHT_COLUMNS[self._variant]
        values = rs.belief_column_list(column)
        weights = [values[q] for q in cand]
        if any(w != w for w in weights):  # NaN: a candidate lacks a belief
            rs.require_beliefs(cand, _MISSING_BELIEF)
        if complement:
            weights = [1.0 - w for w in weights]
        if self._divide_by_speed:
            speed = rs.speed_list()
            weights = [w / speed[q] for w, q in zip(weights, cand)]
        return weights

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Array path: one weight gather, then per-task draws.

        The legacy loop recomputes the (unchanging) weight vector on every
        placement; here the weights and the cumulative distribution are
        built once, as Python lists, and each task costs one
        :func:`inverse_cdf_pick` — with the identical RNG draw sequence
        (one ``rng.random()`` per task, or ``rng.integers`` in the
        all-weights-vanished fallback).  The total stays a numpy ``sum``:
        numpy sums pairwise, and the scalar path's CDF divides by that
        pairwise total.
        """
        if self._variant is None:
            return self.place(rs.as_context(), n_tasks, allowed)
        cand_list = rs.up_candidates(allowed).tolist()
        if not cand_list:
            return [None] * n_tasks
        rng = rs.rng
        weights = self.weight_list(rs, cand_list)
        total = float(np.array(weights).sum())
        if total <= 0.0:
            # All weights vanished: degrade to uniform, as the scalar path.
            return [
                cand_list[int(rng.integers(len(cand_list)))] for _ in range(n_tasks)
            ]
        cumulative = list(accumulate([w / total for w in weights]))
        return [
            cand_list[inverse_cdf_pick(cumulative, rng.random())]
            for _ in range(n_tasks)
        ]


def make_random_variant(variant: int, weighted_by_speed: bool) -> Scheduler:
    """Factory for ``Random1``..``Random4`` and their ``w`` variants.

    Args:
        variant: 1–4, selecting the paper's weight definition.
        weighted_by_speed: True for the ``w`` suffix.
    """
    if variant not in RANDOM_WEIGHTS:
        raise ValueError(f"variant must be 1..4, got {variant}")
    suffix = "w" if weighted_by_speed else ""
    return WeightedRandomScheduler(
        RANDOM_WEIGHTS[variant],
        divide_by_speed=weighted_by_speed,
        name=f"random{variant}{suffix}",
        variant=variant,
    )
