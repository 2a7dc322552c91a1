"""Replan policies: which simulator events trigger a scheduling round.

The master re-plans the unpinned remainder of the iteration at every
*event* (DESIGN.md §3).  ``SimulatorOptions.replan_policy`` selects which
events count (DESIGN.md §10).  The default reproduces the paper exactly;
the *relaxed* policies change the replan-trigger semantics and therefore
the science, so they are validated against the paper's shape targets by
``experiments/replan_study.py`` rather than by bit-identity.  This module
parses and describes the policies; :class:`~repro.sim.master.
MasterSimulator` applies them.

Policies (:func:`parse_replan_policy`):

``event``
    The default, the paper's semantics: replan at every UP-set change,
    crash, commit, program completion and iteration boundary.
``every-slot``
    The ablation arm: a scheduling round every slot (alias of the legacy
    ``replan_every_slot`` flag; forces slot stepping).
``sticky``
    Pure UP-set churn never triggers a replan; only structural events
    (crash, commit, program completion, iteration boundary) do.  Plans
    stick to their processors — the ROADMAP's "sticky replicas" arm.
    Empty processors become entirely invisible to the span logic, so
    spans stretch to the next pipeline milestone.
``debounce:k``
    Leading-edge cooldown: an UP-set change triggers a replan only when
    at least ``k`` slots have passed since the last *executed* round;
    churn inside the cooldown window is dropped (not deferred).
    ``debounce:1`` is equivalent to ``event``.  Structural events always
    replan.
``relevant-up``
    Relevance-scoped churn: replan on UP *entries* and on exits of
    processors that carry work (a non-empty queue or partial program);
    exits of empty processors are ignored — removing a candidate that
    hosts nothing rarely changes the plan, so this policy assumes it
    never does and lets spans glide over those exits.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReplanPolicy", "REPLAN_POLICIES", "parse_replan_policy"]

#: Valid policy names (``debounce`` takes a ``:k`` suffix).
REPLAN_POLICIES = ("event", "every-slot", "sticky", "debounce", "relevant-up")


@dataclass(frozen=True)
class ReplanPolicy:
    """Parsed replan-trigger policy (see module docstring).

    Attributes:
        name: one of :data:`REPLAN_POLICIES`.
        debounce: the cooldown ``k`` for ``debounce:k`` (0 otherwise).
    """

    name: str
    debounce: int = 0

    @property
    def churn_always(self) -> bool:
        """True when every UP-set change triggers a replan unconditionally
        (the hot-path fast case: ``event`` and ``every-slot``)."""
        return self.name in ("event", "every-slot")

    @property
    def ignores_churn(self) -> bool:
        """True when pure UP-set churn never triggers a replan
        (``sticky``): empty processors are invisible to the span logic."""
        return self.name == "sticky"

    @property
    def ignores_empty_exits(self) -> bool:
        """True when exits of empty processors never trigger a replan
        (``sticky`` and ``relevant-up``)."""
        return self.name in ("sticky", "relevant-up")

    def spec(self) -> str:
        """The canonical spec string (round-trips through the parser)."""
        if self.name == "debounce":
            return f"debounce:{self.debounce}"
        return self.name


def parse_replan_policy(spec: str) -> ReplanPolicy:
    """Parse a :attr:`SimulatorOptions.replan_policy` spec string.

    Args:
        spec: ``"event"``, ``"every-slot"``, ``"sticky"``,
            ``"relevant-up"``, or ``"debounce:k"`` with integer ``k >= 1``.

    Raises:
        ValueError: for unknown names or malformed debounce windows.
    """
    if not isinstance(spec, str):
        raise ValueError(f"replan_policy must be a string, got {spec!r}")
    name, _, arg = spec.partition(":")
    if name == "debounce":
        if not arg:
            raise ValueError(
                "debounce policy needs a window: 'debounce:k' with k >= 1"
            )
        try:
            window = int(arg)
        except ValueError:
            raise ValueError(
                f"debounce window must be an integer, got {arg!r}"
            ) from None
        if window < 1:
            raise ValueError(f"debounce window must be >= 1, got {window}")
        return ReplanPolicy("debounce", window)
    if arg:
        raise ValueError(f"policy {name!r} takes no argument, got {spec!r}")
    if name not in REPLAN_POLICIES:
        known = ", ".join(REPLAN_POLICIES)
        raise ValueError(
            f"unknown replan_policy {spec!r}; known policies: {known} "
            "(debounce takes a ':k' window)"
        )
    return ReplanPolicy(name)
