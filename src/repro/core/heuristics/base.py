"""Scheduler interface: the contract between the simulator and heuristics.

At each scheduling round the master builds a :class:`SchedulingContext`
containing, for every processor, a :class:`ProcessorView` snapshot: its
current state, its believed Markov chain, its speed, whether it holds the
program, and the paper's ``Delay(q)`` estimate.  The scheduler then *places*
a batch of task instances — the ``m - m'`` remaining (unpinned) tasks of the
current iteration, or a batch of replicas — onto UP processors.

All of the paper's heuristics share the same outer structure (Section 6.1:
"All heuristics assign tasks to processors one-by-one, until m tasks are
assigned"), so :class:`GreedyScheduler` and the random schedulers only
implement a per-task *selection rule*; the one-by-one loop, the per-round
``n_q`` bookkeeping and the ``n_active`` counter used by the
contention-corrected variants live here.

Two entry points realise that protocol:

* :meth:`Scheduler.place` — the legacy scalar path over an eagerly built
  :class:`SchedulingContext` of :class:`ProcessorView` snapshots;
* :meth:`Scheduler.place_array` — the array-backed path over a
  :class:`~repro.core.heuristics.round_state.RoundState`, scored in batch
  via :meth:`GreedyScheduler.score_batch`.  The two paths are **bit
  identical** — same scores (the batch implementations use the exact same
  IEEE-754 operations, falling back to scalar ``math.pow`` where numpy's
  SIMD ``np.power`` differs from libm by an ulp), same one-by-one greedy
  order, same lowest-index tie-break, same RNG draw sequence — which the
  equivalence suite asserts per registry heuristic.  Schedulers that do
  not opt into batch scoring transparently run the legacy path over the
  lazy compatibility shim (:meth:`RoundState.as_context`).
"""

from __future__ import annotations

import abc
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...rng import default_scheduler_rng
from ...types import ProcState
from ..markov import MarkovAvailabilityModel
from .round_state import RoundState

#: Processor count from which the array-path round caches (and the
#: master's replication idle set) are assembled with numpy gathers and
#: masks instead of Python list comprehensions.  Both assemblies produce
#: element-for-element identical values (exact int64 arithmetic / pure
#: copies), so the threshold is a pure speed knob: below it the fixed
#: per-ufunc overhead loses to list ops, above it the numpy path is the
#: difference between O(p) Python and O(p) C per round.
VECTOR_MIN_P = 128


def _is_bool_mask(allowed) -> bool:
    """True when ``allowed`` is a boolean eligibility mask over all p
    processors (the replication loop's native form at large p) rather
    than a sequence of processor indices."""
    return isinstance(allowed, np.ndarray) and allowed.dtype == np.bool_


def _allowed_as_mask(allowed, p: int) -> np.ndarray:
    """``allowed`` as a length-``p`` boolean mask (no copy if it is one)."""
    if _is_bool_mask(allowed):
        return allowed
    mask = np.zeros(p, dtype=bool)
    idx = np.asarray(allowed, dtype=np.intp)
    if idx.size:
        mask[idx] = True
    return mask


def _allowed_as_set(allowed) -> set:
    """``allowed`` as a set of processor indices (scalar-path form)."""
    if _is_bool_mask(allowed):
        return set(np.nonzero(allowed)[0].tolist())
    return {int(q) for q in allowed}

__all__ = [
    "ProcessorView",
    "SchedulingContext",
    "RoundState",
    "Scheduler",
    "GreedyScheduler",
    "completion_time_estimate",
    "completion_time_batch",
    "pow_batch",
]


@dataclass
class ProcessorView:
    """Immutable-by-convention snapshot of one processor for one round.

    Attributes:
        index: processor index.
        speed_w: :math:`w_q`, UP slots per task.
        state: current ground-truth state (the master knows states via the
            heartbeat assumption, Section 3.2).
        belief: the Markov chain the scheduler believes governs this
            processor (``None`` only in contexts where no Markov-informed
            heuristic is in use).
        has_program: True when the worker currently holds the full program.
        delay: the paper's ``Delay(q)`` — slots before the worker finishes
            its already-pinned activities, under the stay-UP/no-contention
            simplification (Section 6.3.1).  Includes remaining program
            transfer time for workers that still need (part of) the program.
        pinned_count: number of task instances already pinned to the worker
            (used to seed the ``n_active`` counter).
        prog_remaining: program transfer slots still needed (0 when the
            worker holds the program).
        pinned_pipeline: per pinned instance, in service order, a tuple
            ``(data_remaining, compute_remaining, computing)``.  The paper's
            heuristics only consume the aggregate ``delay``; the detailed
            pipeline feeds extensions such as the clairvoyant baseline.
    """

    index: int
    speed_w: int
    state: ProcState
    belief: Optional[MarkovAvailabilityModel]
    has_program: bool
    delay: int
    pinned_count: int
    prog_remaining: int = 0
    pinned_pipeline: tuple = ()

    @property
    def is_up(self) -> bool:
        """True when the processor can currently be assigned work."""
        return self.state == ProcState.UP


@dataclass
class SchedulingContext:
    """Everything a heuristic may look at during one scheduling round.

    Attributes:
        slot: current time slot.
        t_prog: program transfer length (slots).
        t_data: task input transfer length (slots).
        ncom: master channel budget (``None`` = unbounded).
        processors: snapshot of all processors (indexable by processor
            index — the list is ordered).
        remaining_tasks: ``m - m'`` — tasks of the current iteration whose
            work has not begun anywhere.
        rng: RNG stream reserved for scheduler randomness (the random
            heuristic family), distinct from availability sampling streams.
            Pass an explicit stream whenever two contexts must not share
            randomness; when omitted, the default is the *seeded*
            :func:`~repro.rng.default_scheduler_rng` stream — an unseeded
            ``default_rng()`` here would silently fall back to OS entropy
            and make randomised heuristics unreproducible run-to-run.
    """

    slot: int
    t_prog: int
    t_data: int
    ncom: Optional[int]
    processors: List[ProcessorView]
    remaining_tasks: int
    rng: np.random.Generator = field(default_factory=default_scheduler_rng)

    def up_processors(self) -> List[ProcessorView]:
        """Views of the processors currently UP, ascending index."""
        return [view for view in self.processors if view.is_up]


def completion_time_estimate(
    view: ProcessorView,
    nq: int,
    t_data: int,
    *,
    contention_factor: int = 1,
) -> float:
    """The paper's ``CT(P_q, n_q)`` estimate (Equations 1 and 2).

    Equation 1 (``contention_factor == 1``):

    .. math::
       CT(P_q, n_q) = Delay(q) + T_{data}
                      + \\max(n_q - 1, 0)\\,\\max(T_{data}, w_q) + w_q

    Equation 2 replaces :math:`T_{data}` by
    :math:`\\lceil n_{active} / n_{com} \\rceil T_{data}` — the caller passes
    that ceiling as ``contention_factor``.

    Args:
        view: the processor snapshot (provides ``Delay(q)`` and ``w_q``).
        nq: number of tasks assigned to this processor *in this round*,
            including the candidate one (the paper evaluates
            ``CT(P_q, n_q + 1)``; callers pass the incremented value).
        t_data: the uncorrected data transfer time.
        contention_factor: ``ceil(n_active / n_com)`` for Equation 2.

    Returns:
        The estimated completion-time in slots (float to allow its use as
        the workload of Theorem 2's expectation).
    """
    if nq < 1:
        raise ValueError(f"nq must be >= 1 when estimating a placement, got {nq}")
    eff_t_data = contention_factor * t_data
    return (
        view.delay
        + eff_t_data
        + max(nq - 1, 0) * max(eff_t_data, view.speed_w)
        + view.speed_w
    )


def completion_time_batch(
    rs: RoundState,
    indices: np.ndarray,
    nq_plus_one,
    contention_factor,
) -> np.ndarray:
    """Vectorised ``CT(P_q, n_q)`` over a candidate set (Equations 1 / 2).

    The batch companion of :func:`completion_time_estimate`: pure int64
    arithmetic on the :class:`RoundState` columns, so every element is
    *exactly* the integer the scalar estimate computes (the later cast to
    float64 is lossless for any delay within the simulator's slot bound).

    Args:
        rs: the array-backed round state.
        indices: candidate processor indices (int array).
        nq_plus_one: per-candidate ``n_q + 1`` (int array or scalar).
        contention_factor: per-candidate ``ceil(n_active / n_com)`` (int
            array or scalar; 1 for Equation 1).
    """
    eff_t_data = contention_factor * rs.t_data
    speed = rs.speed_w[indices]
    return (
        rs.delay[indices]
        + eff_t_data
        + np.maximum(nq_plus_one - 1, 0) * np.maximum(eff_t_data, speed)
        + speed
    )


def pow_batch(base, exponent) -> np.ndarray:
    """Elementwise ``base ** exponent`` via scalar libm ``pow``.

    numpy's vectorised ``np.power`` dispatches to a SIMD implementation
    that differs from the C library ``pow`` by an ulp on a few percent of
    inputs, which would break bit-identity between the batch path and the
    legacy scalar path (Python's ``**`` *is* libm ``pow``).  The LW/UD
    probability scores therefore apply the exponentiation through
    ``math.pow`` per element — the candidate arrays are tiny (≤ p), so
    this costs nothing next to the vectorised CT arithmetic.
    """
    return np.array(
        [
            math.pow(b, e)
            for b, e in zip(np.asarray(base).tolist(), np.asarray(exponent).tolist())
        ],
        dtype=np.float64,
    )


class Scheduler(abc.ABC):
    """Base class for all scheduling heuristics.

    Subclasses implement :meth:`select`, choosing one processor for one
    task given the per-round load picture.  The shared :meth:`place` loop
    then realises the paper's one-by-one assignment protocol.

    Schedulers may be stateful across rounds (the passive baseline is), but
    all paper heuristics are round-stateless.
    """

    #: Registry name; subclasses set this (e.g. ``"emct*"``).
    name: str = "scheduler"

    def place(
        self,
        ctx: SchedulingContext,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Assign ``n_tasks`` task instances to processors, one by one.

        Args:
            ctx: the scheduling context.
            n_tasks: how many instances to place.
            allowed: optional subset of processor indices that may be used
                (the master restricts replica placement to idle workers).
                Defaults to all UP processors.

        Returns:
            A list of length ``n_tasks`` with the chosen processor index
            per instance, or ``None`` for instances that could not be
            placed (no eligible processor).
        """
        candidates = self._candidates(ctx, allowed)
        placements: List[Optional[int]] = []
        nq: Dict[int, int] = {view.index: 0 for view in candidates}
        n_active = sum(1 for view in candidates if view.pinned_count > 0)
        for _ in range(n_tasks):
            if not candidates:
                placements.append(None)
                continue
            choice = self.select(ctx, candidates, nq, n_active)
            if choice is None:
                placements.append(None)
                continue
            if nq[choice] == 0:
                view = next(v for v in candidates if v.index == choice)
                if view.pinned_count == 0:
                    n_active += 1
            nq[choice] += 1
            placements.append(choice)
        return placements

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Assign ``n_tasks`` instances from an array-backed round state.

        The array-path twin of :meth:`place`; the master calls this with
        its incrementally maintained :class:`RoundState`.  The base
        implementation is the compatibility shim: it materialises the lazy
        legacy context (:meth:`RoundState.as_context`) and runs the scalar
        path, so any external :class:`Scheduler` subclass keeps working —
        and keeps producing bit-identical placements — without changes.
        Batch-capable subclasses override this.
        """
        return self.place(rs.as_context(), n_tasks, allowed)

    def _candidates(
        self, ctx: SchedulingContext, allowed: Optional[Sequence[int]]
    ) -> List[ProcessorView]:
        ups = ctx.up_processors()
        if allowed is None:
            return ups
        allowed_set = _allowed_as_set(allowed)
        return [view for view in ups if view.index in allowed_set]

    @abc.abstractmethod
    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        """Choose the processor for the next task.

        Args:
            ctx: the scheduling context.
            candidates: UP processors eligible for this placement batch.
            nq: tasks assigned per processor so far *in this round* (keyed
                by processor index; counts exclude pinned work, which is
                captured by ``Delay``).
            n_active: the paper's ``n_active`` counter — processors that
                have (or just received) work, used by the Equation 2
                contention correction.

        Returns:
            The chosen processor index, or ``None`` to leave the task
            unassigned this round.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GreedyScheduler(Scheduler):
    """Shared skeleton for score-based greedy heuristics (MCT/LW/UD family).

    Subclasses implement :meth:`score`; the candidate minimising (or
    maximising, per :attr:`maximize`) the score wins.  Ties break toward
    the lower processor index, matching the deterministic tie-break used
    throughout the package.

    **Batch contract.**  Subclasses that additionally implement
    :meth:`score_batch` (and set :attr:`batch_scoring`) get the array-path
    :meth:`place_array`: one vectorised scoring pass seeds the lazy heap,
    and the per-placement re-scores go through the scalar :meth:`score_one`
    twin.  Both must satisfy the same monotonicity requirement the lazy
    heap already relies on — scores monotone (non-decreasing for minimised
    scores, non-increasing for maximised ones) in both ``n_q`` and
    ``n_active`` — and must be bit-identical to each other and to
    :meth:`score` for every ``(q, n_q, factor)``: use exactly the same
    IEEE-754 operation sequence, and route exponentiation through
    :func:`pow_batch` / ``math.pow`` rather than ``np.power``.
    """

    #: Whether higher scores are better (LW/UD maximise probabilities).
    maximize: bool = False

    #: Whether Equation 2's contention factor replaces ``t_data``.
    use_contention_factor: bool = False

    #: True when the instance implements :meth:`score_batch` /
    #: :meth:`score_one`; False routes :meth:`place_array` through the
    #: legacy-path compatibility shim (external heuristics, trace walkers).
    batch_scoring: bool = False

    #: The missing-belief error suffix for heuristics whose score needs a
    #: Markov belief (``None`` for belief-free scores).  The array path's
    #: score rows span the whole UP set, so belief checks happen against
    #: the *candidates* of each placement call — matching the legacy
    #: scalar loop, which only ever scores candidates.
    _belief_needs: Optional[str] = None

    def contention_factor(self, ctx: SchedulingContext, n_active: int) -> int:
        """``ceil(n_active / ncom)`` when enabled and bounded, else 1."""
        if not self.use_contention_factor or ctx.ncom is None:
            return 1
        return max(1, -(-n_active // ctx.ncom))

    @abc.abstractmethod
    def score(
        self,
        ctx: SchedulingContext,
        view: ProcessorView,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        """Score of placing the next task on ``view``."""

    def score_batch(
        self,
        rs: RoundState,
        indices: np.ndarray,
        nq_plus_one: np.ndarray,
        contention_factor,
    ) -> np.ndarray:
        """Scores for all candidates at once (float64, aligned with
        ``indices``).  Subclasses setting :attr:`batch_scoring` implement
        this against the :class:`RoundState` columns."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batch scoring"
        )

    def score_one(
        self,
        rs: RoundState,
        q: int,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        """Scalar twin of :meth:`score_batch` for heap re-validation.

        The default funnels through :meth:`score_batch` with length-1
        arrays, which is always bit-consistent; the built-in heuristics
        override it with plain-scalar arithmetic for speed.
        """
        return float(
            self.score_batch(
                rs,
                np.array([q], dtype=np.intp),
                np.array([nq_plus_one], dtype=np.int64),
                np.array([contention_factor], dtype=np.int64),
            )[0]
        )

    def _factor_for(self, rs: RoundState, n_active: int) -> int:
        """Scalar ``ceil(n_active / ncom)`` against a round state."""
        if not self.use_contention_factor or rs.ncom is None:
            return 1
        return max(1, -(-n_active // rs.ncom))

    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        # n_active counts this candidate placement as active, matching the
        # paper's "incremented when a task is assigned to a newly enrolled
        # processor": the transfer we are costing will itself be active.
        best_index: Optional[int] = None
        best_score = 0.0
        for view in candidates:
            value = self._speculative_score(ctx, view, nq[view.index], n_active)
            if best_index is None:
                best_index, best_score = view.index, value
            elif self.maximize and value > best_score:
                best_index, best_score = view.index, value
            elif not self.maximize and value < best_score:
                best_index, best_score = view.index, value
        return best_index

    def _speculative_score(
        self, ctx: SchedulingContext, view: ProcessorView, nq_view: int, n_active: int
    ) -> float:
        speculative_active = n_active
        if nq_view == 0 and view.pinned_count == 0:
            speculative_active += 1
        factor = self.contention_factor(ctx, speculative_active)
        return self.score(ctx, view, nq_view + 1, factor)

    def place(
        self,
        ctx: SchedulingContext,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Greedy placement via a lazy-revalidation heap.

        Produces exactly the same assignments as the generic one-by-one
        loop (same scores, same lowest-index tie-break) but evaluates the
        score function ~``p + n_tasks`` times per round instead of
        ``p × n_tasks``.  Correctness of the lazy heap relies on scores
        being monotone in both ``n_q`` and ``n_active`` (``CT`` grows with
        both, so minimised scores only grow stale-upward and maximised
        probabilities only grow stale-downward); a popped entry is
        re-scored and re-pushed if it no longer matches.
        """
        candidates = self._candidates(ctx, allowed)
        placements: List[Optional[int]] = []
        if not candidates:
            return [None] * n_tasks
        nq: Dict[int, int] = {view.index: 0 for view in candidates}
        n_active = sum(1 for view in candidates if view.pinned_count > 0)
        sign = -1.0 if self.maximize else 1.0
        heap = [
            (
                sign * self._speculative_score(ctx, view, 0, n_active),
                view.index,
                view,
            )
            for view in candidates
        ]
        heapq.heapify(heap)
        for _ in range(n_tasks):
            while True:
                key, index, view = heap[0]
                current = sign * self._speculative_score(
                    ctx, view, nq[index], n_active
                )
                if current == key:
                    break
                heapq.heapreplace(heap, (current, index, view))
            placements.append(index)
            if nq[index] == 0 and view.pinned_count == 0:
                n_active += 1
            nq[index] += 1
            heapq.heapreplace(
                heap,
                (
                    sign * self._speculative_score(ctx, view, nq[index], n_active),
                    index,
                    view,
                ),
            )
        return placements

    # -- per-round cache for the array path -------------------------------
    _round_version = None
    _round_cache: Optional[dict] = None
    # -- cross-round persistent score rows (large p, DESIGN.md §12) -------
    _row_store: Optional[dict] = None
    _row_store_rs = None
    #: Scoring instrumentation (DESIGN.md §12): score evaluations actually
    #: run vs. stamped rows reused verbatim from the large-p persistent
    #: store.  There, ``rows_scored`` after warm-up is the candidate-set
    #: size — it scales with the workers whose columns moved since their
    #: score was last computed, not with p.  Below ``VECTOR_MIN_P``
    #: every row is scored afresh each round, so ``rows_reused`` stays 0.
    rows_scored = 0
    rows_reused = 0

    def _round_setup(self, rs: RoundState) -> dict:
        """Per-round candidate/score cache, keyed on ``rs.version``.

        A scheduling round issues several ``place_array`` calls against an
        unchanged round state (the main placement batch plus one call per
        replica), and within a round a score depends only on
        ``(q, n_q + 1, factor)``.  The cache holds the UP candidate list,
        the per-factor CT coefficients and nq-zero score rows, and belief
        gathers.  At the paper's p ≈ 20 everything is assembled as plain
        Python lists (the fixed per-ufunc numpy overhead dwarfs
        per-element Python arithmetic there); from ``VECTOR_MIN_P``
        processors up, the assembly runs as numpy gathers over the column
        arrays instead — exact integer/copy operations, so the resulting
        lists are element-for-element identical — and the UP index array
        is kept (``up_arr``) for the vectorised single-placement path.
        Every replication placement and heap re-validation then runs on
        list lookups and scalar ops.
        """
        if self._round_version != rs.version:
            up_state = int(ProcState.UP)
            if len(rs) >= VECTOR_MIN_P:
                up_arr = np.nonzero(rs.state == up_state)[0]
                up_list = up_arr.tolist()
                pinned_zero_arr = rs.pinned_count[up_arr] == 0
                pinned_zero = pinned_zero_arr.tolist()
            else:
                up_arr = None
                pinned_zero_arr = None
                state_list = rs.state.tolist()
                up_list = [q for q, s in enumerate(state_list) if s == up_state]
                pinned_list = rs.pinned_count.tolist()
                pinned_zero = [pinned_list[q] == 0 for q in up_list]
            self._round_cache = {
                "up_list": up_list,
                "up_arr": up_arr,
                "pinned_zero": pinned_zero,
                "pinned_zero_arr": pinned_zero_arr,
                "row0": {},
                "row0_arr": {},
                "row0_nan": {},
                "row0_keys": {},
                "ct": {},
                "gathers": None,
                "belief": {},
            }
            self._round_version = rs.version
        return self._round_cache

    def _gather_belief(self, rs: RoundState, cache: dict, name: str,
                       needs: str) -> list:
        """Belief column over the round's UP set as a Python float list.

        Memoised per round (the full-column list is static and cached on
        the round state).  NaN entries (missing beliefs) pass through:
        score rows cover the whole UP set while a placement call may be
        restricted to a subset, and the legacy contract only raises when
        a belief-less processor is an actual *candidate* — which
        ``place_array`` enforces against its candidate keys.
        """
        gathered = cache["belief"].get(name)
        if gathered is None:
            up_arr = cache["up_arr"]
            if up_arr is not None:
                gathered = rs.belief_column(name)[up_arr].tolist()
            else:
                up_list = cache["up_list"]
                column = rs.belief_column_list(name)
                gathered = [column[q] for q in up_list]
            cache["belief"][name] = gathered
        return gathered

    def _ct_bases(self, rs: RoundState, cache: dict, factor: int) -> tuple:
        """Per-factor CT coefficients over the UP set, memoised per round.

        ``CT(P_q, nq + 1) = base_q + nq · step_q`` with
        ``base_q = Delay(q) + eff + w_q`` and ``step_q = max(eff, w_q)``
        where ``eff = factor · t_data`` — integer arithmetic, hence
        exactly associative and bit-identical to the scalar
        :func:`completion_time_estimate` at every ``(q, nq, factor)``,
        whether assembled element-wise or as int64 numpy expressions
        (the large-p branch).
        """
        ct_bases = cache["ct"].get(factor)
        if ct_bases is None:
            gathers = cache["gathers"]
            if gathers is None:
                up_arr = cache["up_arr"]
                if up_arr is not None:
                    gathers = cache["gathers"] = (
                        rs.delay[up_arr],
                        rs.speed_w[up_arr],
                    )
                else:
                    up_list = cache["up_list"]
                    delay_list = rs.delay.tolist()
                    speed_list = rs.speed_list()
                    gathers = cache["gathers"] = (
                        [delay_list[q] for q in up_list],
                        [speed_list[q] for q in up_list],
                    )
            delay, speed = gathers
            eff = factor * rs.t_data
            if isinstance(delay, np.ndarray):
                ct_bases = cache["ct"][factor] = (
                    (delay + (eff + speed)).tolist(),
                    np.maximum(eff, speed).tolist(),
                )
            else:
                ct_bases = cache["ct"][factor] = (
                    [d + eff + w for d, w in zip(delay, speed)],
                    [eff if eff > w else w for w in speed],
                )
        return ct_bases

    #: CT-based subclasses implement these two hooks to get the pure-
    #: Python scoring fast path: ``_score_ct_row`` maps one list of
    #: integer CT values (candidate order) to a list of float scores,
    #: ``_score_ct_one`` maps a single ``(ct, up-position)`` pair to one
    #: score.  Both must repeat the scalar ``score`` path's IEEE-754
    #: operation sequence exactly.  None falls back to
    #: :meth:`score_batch` / :meth:`score_one` (the clairvoyant walker).
    _score_ct_row = None
    _score_ct_one = None

    def _place_one(self, rs: RoundState, cache: dict, allowed):
        """Fused single-placement path (the replication-call shape).

        One placement is the lazy heap's first pop — the minimum
        ``(score, index)`` pair — so when the contention factor is uniform
        across the candidates this selects it in a single pass over the
        cached ``n_q = 0`` score row, with no candidate lists, heap, or
        re-scores.  Returns ``NotImplemented`` when the factor genuinely
        varies (two initial factors straddle a ``ncom`` boundary), sending
        the caller to the general path.  From ``VECTOR_MIN_P`` processors
        the whole call — allowed mask, active count, and the final masked
        argmin — runs vectorised (:meth:`_place_one_large`).
        """
        if cache["up_arr"] is not None:
            return self._place_one_large(rs, cache, allowed)
        up_list = cache["up_list"]
        allowed_set = None if allowed is None else _allowed_as_set(allowed)
        if not self.use_contention_factor or rs.ncom is None:
            factor = 1
        else:
            pinned_zero = cache["pinned_zero"]
            n_active = 0
            k = 0
            if allowed_set is None:
                k = len(up_list)
                n_active = k - sum(pinned_zero)
            else:
                for i, q in enumerate(up_list):
                    if q in allowed_set:
                        k += 1
                        if not pinned_zero[i]:
                            n_active += 1
            if k == 0:
                return [None]
            ncom = rs.ncom
            upper = n_active + (2 if n_active < k else 1)
            if upper > k:
                upper = k
            factor = max(1, -(-n_active // ncom))
            if factor != max(1, -(-upper // ncom)):
                return NotImplemented  # mixed factors: general path
        row0 = self._row0(rs, cache, factor)
        return self._place_one_scan(rs, cache, row0, allowed_set)

    def _place_one_large(self, rs: RoundState, cache: dict, allowed):
        """Vectorised :meth:`_place_one` twin for large platforms.

        The allowed set becomes a boolean mask over the UP array, the
        contention active-count becomes two masked ``count_nonzero``
        calls, and the selection is one masked argmin — ``argmin``
        returns the first occurrence of the minimum and ``up_list`` is
        ascending, so the tie-break (lowest index) matches the scalar
        scan exactly.  NaN keys (missing beliefs among the candidates)
        fall back to the scalar scan, which owns the error semantics.
        """
        up_list = cache["up_list"]
        if not up_list:
            return [None]
        up_arr = cache["up_arr"]
        sel = None
        if allowed is not None:
            sel = _allowed_as_mask(allowed, len(rs))[up_arr]
            k = int(np.count_nonzero(sel))
            if k == 0:
                return [None]
        else:
            k = len(up_list)
        if not self.use_contention_factor or rs.ncom is None:
            factor = 1
        else:
            pinned_zero = cache["pinned_zero_arr"]
            if sel is None:
                n_active = k - int(np.count_nonzero(pinned_zero))
            else:
                n_active = int(np.count_nonzero(sel & ~pinned_zero))
            ncom = rs.ncom
            upper = n_active + (2 if n_active < k else 1)
            if upper > k:
                upper = k
            factor = max(1, -(-n_active // ncom))
            if factor != max(1, -(-upper // ncom)):
                return NotImplemented  # mixed factors: general path
        keys = self._row0_keys(rs, cache, factor)
        if self._row0_nan(rs, cache, factor):
            row0 = self._row0(rs, cache, factor)
            allowed_set = None if allowed is None else _allowed_as_set(allowed)
            return self._place_one_scan(rs, cache, row0, allowed_set)
        if sel is not None:
            keys = np.where(sel, keys, np.inf)
        return [up_list[int(keys.argmin())]]

    def _place_one_scan(self, rs: RoundState, cache: dict, row0: list,
                        allowed_set) -> list:
        """The scalar single-placement scan over the ``n_q = 0`` row.

        Shared tail of both :meth:`_place_one` paths; also the owner of
        the legacy missing-belief error semantics (raise on the first
        NaN-scored *candidate* in ascending index order).
        """
        sign = -1.0 if self.maximize else 1.0
        needs = self._belief_needs
        best_q = None
        best_key = 0.0
        for i, q in enumerate(cache["up_list"]):
            if allowed_set is not None and q not in allowed_set:
                continue
            key = sign * row0[i]
            if key != key and needs is not None:  # NaN: candidate lacks belief
                rs.require_beliefs((q,), needs)
            if best_q is None or key < best_key or (key == best_key and q < best_q):
                best_q = q
                best_key = key
        return [best_q] if best_q is not None else [None]

    def _row0(self, rs: RoundState, cache: dict, factor: int) -> list:
        """Every UP processor's score at ``n_q = 0``, memoised per round.

        This is the row every placement call starts from (and the only
        full-width scoring work a round pays): the CT at ``nq = 0`` is the
        ``base`` coefficient itself, and non-CT heuristics go through one
        :meth:`score_batch` call.
        """
        row = cache["row0"].get(factor)
        if row is None:
            score_row = self._score_ct_row
            if score_row is not None:
                base, _step = self._ct_bases(rs, cache, factor)
                if (
                    cache["up_arr"] is not None
                    and rs.stamped
                    and self._score_ct_one is not None
                ):
                    row = self._row0_stamped(rs, cache, factor, base)
                else:
                    row = score_row(rs, cache, base)
                    self.rows_scored += len(row)
            else:
                up = np.array(cache["up_list"], dtype=np.intp)
                row = self.score_batch(
                    rs, up, np.ones(up.size, dtype=np.int64), factor
                ).tolist()
                self.rows_scored += len(row)
            cache["row0"][factor] = row
        return row

    def _row0_keys_list(self, rs: RoundState, cache: dict, factor: int) -> list:
        """The ``n_q = 0`` row as a signed float list, memoised per round.

        Small-p twin of :meth:`_row0_keys`: the unrestricted placement
        and replication calls of one round share one ``sign * value``
        materialisation instead of rebuilding the listcomp per call.
        Callers must treat the list as read-only.
        """
        keys = cache["row0_keys"].get(factor)
        if keys is None:
            sign = -1.0 if self.maximize else 1.0
            keys = [sign * value for value in self._row0(rs, cache, factor)]
            cache["row0_keys"][factor] = keys
        return keys

    def _row0_keys(self, rs: RoundState, cache: dict, factor: int) -> np.ndarray:
        """The ``n_q = 0`` row as a signed float64 array, memoised per round.

        ``sign * value`` in float64 is the same operation element-wise or
        vectorised, so these keys equal the scalar paths' keys bit for
        bit.  Hoisting the list→ndarray conversion here (one per round ×
        factor, instead of one per *placement*) is what keeps a large-p
        replication round from paying O(up) conversions per replica.
        """
        keys = cache["row0_arr"].get(factor)
        if keys is None:
            sign = -1.0 if self.maximize else 1.0
            keys = sign * np.asarray(
                self._row0(rs, cache, factor), dtype=np.float64
            )
            cache["row0_arr"][factor] = keys
            cache["row0_nan"][factor] = bool(np.isnan(keys).any())
        return keys

    def _row0_nan(self, rs: RoundState, cache: dict, factor: int) -> bool:
        """Whether the signed ``n_q = 0`` row holds any NaN, memoised.

        A NaN key means a candidate lacks a belief, and every vectorised
        argmin must yield to the scalar scan that owns those error
        semantics (``argmin`` would select the NaN first; the scalar
        comparisons never do).  The answer is a per-round constant, so
        checking the full row once here replaces an O(up) ``isnan`` per
        placement.  The full-row check is a conservative superset of any
        masked subset: a NaN outside the allowed mask also routes to the
        scalar scan, which simply skips it.
        """
        nan_any = cache["row0_nan"].get(factor)
        if nan_any is None:
            self._row0_keys(rs, cache, factor)
            nan_any = cache["row0_nan"][factor]
        return nan_any

    def _row0_stamped(self, rs: RoundState, cache: dict, factor: int,
                      base: list) -> list:
        """Assemble the large-p ``n_q = 0`` row from a cross-round store.

        The CT-family scores at ``n_q = 0`` are pure functions of the
        stamped worker columns (``delay``, via the CT base), the static
        speed/belief columns and the factor — so a processor whose
        :attr:`RoundState.col_stamp` did not move since its value was
        last computed keeps that value verbatim, and only stamped-out
        entries re-run :meth:`_score_ct_one` (the exact elementwise twin
        of :meth:`_score_ct_row`, DESIGN.md §8).  This *is* the
        candidate-set scoring of the large-p engine (DESIGN.md §12): the
        set of workers re-scored per round is exactly the set whose
        stamped columns moved since their last score — availability,
        queue, or belief churn — while the greedy *selection* still
        compares every UP worker's (cached or fresh) score, which is why
        a non-candidate can never silently overtake an incumbent: its
        key is present in every comparison, just not recomputed.
        Schedulers without the hooks (``batch_scoring`` False, or no
        ``_score_ct_one``) take the conservative full-scan path above.
        Active only from ``VECTOR_MIN_P`` processors and when the state
        owner maintains the stamp contract (``rs.stamped``); the store is
        keyed on the RoundState object so a scheduler reused against
        another state can never mix rows.  Its float64/int64 columns make
        the hit test and the row gather two vector ops, so only the misses
        (the candidate set) run Python at all.  At the paper's p = 20 a
        list twin of this store (and a delta-patched copy of the whole
        round cache) measured 1.00× and was removed (DESIGN.md §8).
        """
        if self._row_store_rs is not rs:
            self._row_store_rs = rs
            self._row_store = {}
        up_arr = cache["up_arr"]
        per_factor = self._row_store.get(factor)
        if per_factor is None:
            per_factor = self._row_store[factor] = (
                np.zeros(len(rs), dtype=np.float64),
                np.full(len(rs), -1, dtype=np.int64),
            )
        values, stamps = per_factor
        current = np.asarray(rs.col_stamp, dtype=np.int64)[up_arr]
        miss = np.nonzero(stamps[up_arr] != current)[0]
        if miss.size:
            score_one = self._score_ct_one
            up_list = cache["up_list"]
            for i in miss.tolist():
                q = up_list[i]
                values[q] = score_one(rs, cache, base[i], i)
            stamps[up_arr[miss]] = current[miss]
        scored = int(miss.size)
        self.rows_scored += scored
        self.rows_reused += len(up_arr) - scored
        return values[up_arr].tolist()

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Array-path greedy placement over cached per-round score rows.

        The ``n_q = 0`` score row (memoised per round and factor, shared
        with every replication placement) seeds the lazy heap; the
        one-by-one loop, ``n_q``/``n_active`` bookkeeping, and
        lowest-index tie-break are the legacy :meth:`place` loop verbatim,
        with re-scores computed per element from the cached CT
        coefficients.  Two exact shortcuts replace the legacy re-validation
        re-scores: without contention a heap entry can never go stale (its
        key is refreshed whenever its ``n_q`` moves, and nothing else
        enters its score), and with contention an entry is stale only when
        its applicable factor differs from the factor it was scored at —
        in both cases the comparison the legacy loop performs would
        succeed, so popping directly is bit-identical.  Heap keys are the
        same float64 values in the same ``(key, index)`` order as the
        scalar path, so the produced assignments are too.
        """
        if not self.batch_scoring:
            return super().place_array(rs, n_tasks, allowed)
        if n_tasks == 0:
            # Nothing to place: skip candidate setup and scoring entirely.
            # (The legacy loop still seeds its heap here, so on a platform
            # with belief-less UP processors it would raise where this
            # path returns — irrelevant to any simulated outcome.)
            return []
        cache = self._round_setup(rs)
        if n_tasks == 1:
            single = self._place_one(rs, cache, allowed)
            if single is not NotImplemented:
                return single
        up_list = cache["up_list"]
        if allowed is None:
            positions = None  # identity: candidate j is UP position j
            cand_list = up_list
            pinned_zero = cache["pinned_zero"]
        elif cache["up_arr"] is not None:
            up_arr = cache["up_arr"]
            sel = _allowed_as_mask(allowed, len(rs))[up_arr]
            positions = np.nonzero(sel)[0].tolist()
            cand_list = up_arr[sel].tolist()
            pinned_zero = cache["pinned_zero_arr"][sel].tolist()
        else:
            allowed_set = _allowed_as_set(allowed)
            positions = [i for i, q in enumerate(up_list) if q in allowed_set]
            cand_list = [up_list[i] for i in positions]
            all_pinned_zero = cache["pinned_zero"]
            pinned_zero = [all_pinned_zero[i] for i in positions]
        k = len(cand_list)
        if k == 0:
            return [None] * n_tasks
        no_pinned = sum(pinned_zero)
        n_active = k - no_pinned
        sign = -1.0 if self.maximize else 1.0
        contended = self.use_contention_factor and rs.ncom is not None
        ncom = rs.ncom

        # Resolve the contention factor up front where possible: within
        # this call every factor evaluation sees an active count in
        # ``[n_active, min(k, n_active + min(no_pinned, n_tasks) + 1)]``
        # (``n_active`` only grows, by one per first placement on a
        # pinned-free candidate), and ``ceil(·/ncom)`` is monotone — so if
        # the two endpoints agree the factor is provably constant and the
        # whole call runs the cheap uniform path, exactly as the scalar
        # loop would have computed it.
        if not contended:
            uniform_factor: Optional[int] = 1
        else:
            growth = no_pinned if no_pinned < n_tasks else n_tasks
            upper = n_active + growth + 1
            if upper > k:
                upper = k
            factor_low = max(1, -(-n_active // ncom))
            factor_high = max(1, -(-upper // ncom))
            uniform_factor = factor_low if factor_low == factor_high else None

        # Initial speculative scores: nq = 0 everywhere, so each candidate
        # speculates itself newly active iff it has no pinned work; at
        # most two distinct contention factors occur among them.
        keys_arr = None
        keys_factor = None
        if uniform_factor is not None:
            if cache["up_arr"] is not None:
                karr = self._row0_keys(rs, cache, uniform_factor)
                keys_arr = karr if positions is None else karr.take(positions)
                keys_factor = uniform_factor
                keys = None  # materialised lazily on the scalar paths
            else:
                if positions is None:
                    keys = self._row0_keys_list(rs, cache, uniform_factor)
                else:
                    row0 = self._row0(rs, cache, uniform_factor)
                    keys = [sign * row0[i] for i in positions]
        else:
            factor_base = max(1, -(-n_active // ncom))
            factor_spec = max(1, -(-(n_active + 1) // ncom))
            row_base = self._row0(rs, cache, factor_base)
            if factor_spec == factor_base:
                if cache["up_arr"] is not None:
                    karr = self._row0_keys(rs, cache, factor_base)
                    keys_arr = (
                        karr if positions is None else karr.take(positions)
                    )
                    keys_factor = factor_base
                    keys = None  # materialised lazily on the scalar paths
                elif positions is None:
                    keys = self._row0_keys_list(rs, cache, factor_base)
                else:
                    keys = [sign * row_base[i] for i in positions]
                entry_factor = [factor_base] * k
            else:
                row_spec = self._row0(rs, cache, factor_spec)
                keys = []
                entry_factor = []
                for j in range(k):
                    i = j if positions is None else positions[j]
                    if pinned_zero[j]:
                        keys.append(sign * row_spec[i])
                        entry_factor.append(factor_spec)
                    else:
                        keys.append(sign * row_base[i])
                        entry_factor.append(factor_base)
        # Conservative per-round constant (see :meth:`_row0_nan`): a NaN
        # anywhere in the source row — even outside ``positions`` — routes
        # this call to the scalar paths, which own the NaN semantics.
        nan_any = (
            self._row0_nan(rs, cache, keys_factor)
            if keys_arr is not None
            else None
        )
        if self._belief_needs is not None:
            nan_hit = (
                nan_any
                if nan_any is not None
                else any(key != key for key in keys)
            )
            if nan_hit:
                # A NaN key means a *candidate* lacks a belief model: raise
                # the legacy error for the first such candidate, as the
                # scalar heap-init scoring (ascending candidate order) would.
                rs.require_beliefs(cand_list, self._belief_needs)
        if n_tasks == 1:
            # Replication fast path: one placement is the heap's first pop,
            # i.e. the minimum (key, index) pair — no heap, no re-scores.
            # ``cand_list`` ascends with ``j``, so the vectorised argmin's
            # first-occurrence rule is the same lexicographic minimum (the
            # scalar loop never *selects* a NaN key, so argmin — where NaN
            # wins — only applies to NaN-free keys).
            if keys_arr is not None and not nan_any:
                return [cand_list[int(keys_arr.argmin())]]
            if keys is None:
                keys = keys_arr.tolist()
            best_j = 0
            for j in range(1, k):
                if (keys[j], cand_list[j]) < (keys[best_j], cand_list[best_j]):
                    best_j = j
            return [cand_list[best_j]]
        placements: List[Optional[int]] = []
        score_ct = self._score_ct_one
        if (
            uniform_factor is not None
            and keys_arr is not None
            and not nan_any
            and score_ct is not None
        ):
            # Large-p uniform-factor loop over the key *array*: each pop is
            # an argmin (first occurrence of the minimum = the heap's
            # (key, cand, j) lexicographic minimum, since ``cand_list``
            # ascends with ``j`` and keys are NaN-free) and each replace
            # is one store — no O(k) tuple-heap build per call.
            base, step = self._ct_bases(rs, cache, uniform_factor)
            working = keys_arr.copy()
            nq = [0] * k
            for _ in range(n_tasks):
                j = int(working.argmin())
                placements.append(cand_list[j])
                count = nq[j] + 1
                nq[j] = count
                i = j if positions is None else positions[j]
                working[j] = sign * score_ct(
                    rs, cache, base[i] + count * step[i], i
                )
            return placements
        if keys is None:
            keys = keys_arr.tolist()
        heap = [(keys[j], cand_list[j], j) for j in range(k)]
        heapq.heapify(heap)
        nq = [0] * k

        if uniform_factor is not None:
            # Tight loop: every heap entry is always current (the factor is
            # constant, and the placed candidate's key is refreshed on the
            # spot), so each placement is pop + one fresh score + replace.
            factor = uniform_factor
            if score_ct is not None:
                base, step = self._ct_bases(rs, cache, factor)
                for _ in range(n_tasks):
                    key, index, j = heap[0]
                    placements.append(index)
                    count = nq[j] + 1
                    nq[j] = count
                    i = j if positions is None else positions[j]
                    heapq.heapreplace(
                        heap,
                        (
                            sign * score_ct(rs, cache, base[i] + count * step[i], i),
                            index,
                            j,
                        ),
                    )
            else:
                for _ in range(n_tasks):
                    key, index, j = heap[0]
                    placements.append(index)
                    count = nq[j] + 1
                    nq[j] = count
                    heapq.heapreplace(
                        heap,
                        (
                            sign * self.score_one(rs, index, count + 1, factor),
                            index,
                            j,
                        ),
                    )
            return placements

        # Contended loop: a heap entry goes stale only when its applicable
        # factor moved (entry_factor tracks the factor it was scored at).
        ct_cache = cache["ct"]

        def rescore(j: int, f: int) -> float:
            if score_ct is not None:
                bases = ct_cache.get(f)
                if bases is None:
                    bases = self._ct_bases(rs, cache, f)
                base, step = bases
                i = j if positions is None else positions[j]
                return sign * score_ct(rs, cache, base[i] + nq[j] * step[i], i)
            return sign * self.score_one(rs, cand_list[j], nq[j] + 1, f)

        for _ in range(n_tasks):
            while True:
                key, index, j = heap[0]
                spec = n_active + (1 if nq[j] == 0 and pinned_zero[j] else 0)
                f = max(1, -(-spec // ncom))
                if f == entry_factor[j]:
                    break
                current = rescore(j, f)
                entry_factor[j] = f
                if current == key:
                    break
                heapq.heapreplace(heap, (current, index, j))
            placements.append(index)
            if nq[j] == 0 and pinned_zero[j]:
                n_active += 1
            nq[j] += 1
            # nq[j] > 0 now, so the speculative n_active is just n_active.
            f = max(1, -(-n_active // ncom))
            entry_factor[j] = f
            heapq.heapreplace(heap, (rescore(j, f), index, j))
        return placements
