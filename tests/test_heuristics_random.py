"""Tests for the random heuristic family (Section 6.2)."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expectation import p_plus
from repro.core.heuristics.base import (
    ProcessorView,
    RoundState,
    SchedulingContext,
)
from repro.core.heuristics.random_based import (
    RANDOM_WEIGHTS,
    RandomScheduler,
    WeightedRandomScheduler,
    inverse_cdf_pick,
    make_random_variant,
)
from repro.core.markov import MarkovAvailabilityModel
from repro.types import ProcState


def view(index, *, speed=2, state=ProcState.UP, p_uu=0.95, p_rr=0.9, p_dd=0.9,
         belief=None, delay=0, pinned=0):
    model = belief or MarkovAvailabilityModel.from_self_loops(p_uu, p_rr, p_dd)
    return ProcessorView(
        index=index, speed_w=speed, state=state, belief=model,
        has_program=False, delay=delay, pinned_count=pinned,
    )


def context(views, seed=0, t_data=1, ncom=5):
    return SchedulingContext(
        slot=0, t_prog=5, t_data=t_data, ncom=ncom, processors=views,
        remaining_tasks=1, rng=np.random.default_rng(seed),
    )


class TestRandomScheduler:
    def test_only_up_processors_chosen(self):
        views = [
            view(0, state=ProcState.DOWN),
            view(1, state=ProcState.UP),
            view(2, state=ProcState.RECLAIMED),
        ]
        sched = RandomScheduler()
        for seed in range(20):
            placements = sched.place(context(views, seed), 5)
            assert all(p == 1 for p in placements)

    def test_no_up_processors_yields_none(self):
        views = [view(0, state=ProcState.DOWN)]
        assert RandomScheduler().place(context(views), 3) == [None, None, None]

    def test_roughly_uniform(self):
        views = [view(q) for q in range(4)]
        sched = RandomScheduler()
        counts = np.zeros(4)
        placements = sched.place(context(views, seed=7), 8000)
        for p in placements:
            counts[p] += 1
        assert np.allclose(counts / counts.sum(), 0.25, atol=0.03)

    def test_deterministic_given_seed(self):
        views = [view(q) for q in range(4)]
        a = RandomScheduler().place(context(views, seed=3), 50)
        b = RandomScheduler().place(context(views, seed=3), 50)
        assert a == b


class TestPaperWeights:
    def test_random1_weight_is_p_uu(self):
        v = view(0, p_uu=0.93)
        assert RANDOM_WEIGHTS[1](v) == pytest.approx(0.93)

    def test_random2_weight_is_p_plus(self):
        v = view(0)
        assert RANDOM_WEIGHTS[2](v) == pytest.approx(p_plus(v.belief))

    def test_random3_weight_is_pi_u(self):
        v = view(0)
        assert RANDOM_WEIGHTS[3](v) == pytest.approx(v.belief.pi_u)

    def test_random4_weight_is_one_minus_pi_d(self):
        v = view(0)
        assert RANDOM_WEIGHTS[4](v) == pytest.approx(1 - v.belief.pi_d)

    def test_missing_belief_raises(self):
        v = ProcessorView(
            index=0, speed_w=1, state=ProcState.UP, belief=None,
            has_program=False, delay=0, pinned_count=0,
        )
        sched = make_random_variant(1, weighted_by_speed=False)
        with pytest.raises(ValueError, match="no Markov belief"):
            sched.place(context([v]), 1)


class TestWeightedRandomScheduler:
    def test_heavily_weighted_processor_dominates(self):
        reliable = view(0, p_uu=0.99)
        flaky = view(1, p_uu=0.90)
        sched = WeightedRandomScheduler(
            lambda v: 1000.0 if v.index == 0 else 1.0, name="test"
        )
        placements = sched.place(context([reliable, flaky], seed=5), 500)
        share0 = placements.count(0) / 500
        assert share0 > 0.98

    def test_speed_division(self):
        fast = view(0, speed=1)
        slow = view(1, speed=10)
        sched = WeightedRandomScheduler(
            lambda v: 1.0, divide_by_speed=True, name="w"
        )
        placements = sched.place(context([fast, slow], seed=1), 4000)
        share_fast = placements.count(0) / 4000
        assert share_fast == pytest.approx(10 / 11, abs=0.03)

    def test_zero_total_weight_falls_back_to_uniform(self):
        views = [view(0), view(1)]
        sched = WeightedRandomScheduler(lambda v: 0.0, name="zero")
        placements = sched.place(context(views, seed=2), 200)
        assert set(placements) == {0, 1}

    def test_negative_weight_rejected(self):
        sched = WeightedRandomScheduler(lambda v: -1.0, name="neg")
        with pytest.raises(ValueError, match="negative weight"):
            sched.place(context([view(0)]), 1)


class TestVariantFactory:
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_names(self, variant, weighted):
        sched = make_random_variant(variant, weighted)
        suffix = "w" if weighted else ""
        assert sched.name == f"random{variant}{suffix}"

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            make_random_variant(5, False)

    def test_w_variant_prefers_fast_processor(self):
        # Same chain, different speeds: the w variant should favour speed.
        fast = view(0, speed=1)
        slow = view(1, speed=9)
        sched = make_random_variant(1, weighted_by_speed=True)
        placements = sched.place(context([fast, slow], seed=4), 2000)
        assert placements.count(0) > placements.count(1) * 3


def _numpy_pick(weights, u):
    """The reference draw: numpy CDF and ``searchsorted``, clamped."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    pick = int(np.searchsorted(np.cumsum(w / total), u, side="right"))
    return min(pick, len(w) - 1)


def _list_cumulative(weights):
    """The CDF ``WeightedRandomScheduler.place_array`` builds."""
    w = np.asarray(weights, dtype=float)
    return list(accumulate((w / w.sum()).tolist()))


#: Weight vectors with a positive total; zeros are drawn often so that
#: repeated cumulative values (flat CDF steps) are common.
_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e6)),
    min_size=1,
    max_size=40,
).filter(lambda w: sum(w) > 0.0)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)


class TestInverseCdfPick:
    """The list inverse-CDF draw equals the numpy ``searchsorted`` draw."""

    @settings(max_examples=300, deadline=None)
    @given(_WEIGHTS, _UNIT)
    def test_matches_searchsorted(self, weights, u):
        cumulative = _list_cumulative(weights)
        assert cumulative == np.cumsum(
            np.asarray(weights) / np.sum(weights)
        ).tolist()
        assert inverse_cdf_pick(cumulative, u) == _numpy_pick(weights, u)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.floats(1e-6, 1e3), _UNIT)
    def test_equal_weights(self, k, value, u):
        weights = [value] * k
        assert inverse_cdf_pick(_list_cumulative(weights), u) == _numpy_pick(
            weights, u
        )

    @settings(max_examples=200, deadline=None)
    @given(_WEIGHTS, st.data())
    def test_u_on_a_cumulative_value(self, weights, data):
        cumulative = _list_cumulative(weights)
        u = cumulative[data.draw(st.integers(0, len(cumulative) - 1))]
        assert inverse_cdf_pick(cumulative, u) == _numpy_pick(weights, u)

    def test_zero_weights_are_never_picked(self):
        weights = [0.0, 1.0, 0.0, 0.0, 2.0, 0.0]
        cumulative = _list_cumulative(weights)
        for u in np.linspace(0.0, 1.0, 101, endpoint=False):
            assert inverse_cdf_pick(cumulative, u) in (1, 4)

    def test_rounding_overshoot_clamps_to_last(self):
        assert inverse_cdf_pick([0.25, 0.5, 0.75, 0.9999999], 0.99999995) == 3
        assert inverse_cdf_pick([0.5, 1.0], 1.0) == 1


def _round_state(views, seed):
    return RoundState.from_views(
        views, t_prog=5, t_data=1, ncom=5, rng=np.random.default_rng(seed)
    )


class TestWeightedPlaceArray:
    """``place_array`` draws exactly what the scalar ``place`` draws."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.5, 0.99), min_size=1, max_size=12),
        st.integers(1, 4),
        st.booleans(),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_place(self, p_uus, variant, by_speed, n, seed):
        views = [
            view(q, speed=1 + q % 4, p_uu=p_uu) for q, p_uu in enumerate(p_uus)
        ]
        sched = make_random_variant(variant, by_speed)
        expected = sched.place(context(views, seed=seed), n)
        assert sched.place_array(_round_state(views, seed), n) == expected

    def test_zero_total_falls_back_to_uniform_draws(self):
        # p_uu = 0 makes every Random1 weight vanish.
        views = [view(q, p_uu=0.0) for q in range(5)]
        sched = make_random_variant(1, weighted_by_speed=False)
        placements = sched.place_array(_round_state(views, 11), 40)
        rng = np.random.default_rng(11)
        assert placements == [int(rng.integers(5)) for _ in range(40)]
        assert placements == sched.place(context(views, seed=11), 40)

    def test_missing_belief_candidate_raises_under_allowed(self):
        views = [view(q) for q in range(4)]
        views[2] = ProcessorView(
            index=2, speed_w=2, state=ProcState.UP, belief=None,
            has_program=False, delay=0, pinned_count=0,
        )
        sched = make_random_variant(3, weighted_by_speed=True)
        with pytest.raises(ValueError, match="processor 2 has no Markov belief"):
            sched.place_array(_round_state(views, 0), 1, [1, 2])
        # A belief-less processor outside ``allowed`` is no candidate.
        assert sched.place_array(_round_state(views, 0), 2, [0, 3]) == (
            sched.place(context(views, seed=0), 2, [0, 3])
        )
