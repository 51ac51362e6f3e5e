"""Replacement-rule worked cases, state-machine timing rules, and a replay of
random score trajectories against an independently written plain-loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit.mining import Decision, MiningState, NegativePool, decide_scores


class TestDecideWorkedCases:
    """The four fixed decision cases, identical in literal and absolute modes."""

    @pytest.mark.parametrize("mode", ["literal", "absolute"])
    def test_initial_low_score_replaced(self, mode):
        assert decide_scores(0.3, 0.3, is_initial=True, mode=mode) is Decision.REPLACE

    @pytest.mark.parametrize("mode", ["literal", "absolute"])
    def test_dropped_and_easy_replaced(self, mode):
        # 1.2 * 0.6 = 0.72 < 0.8 and 0.6 < 0.7
        assert decide_scores(0.8, 0.6, is_initial=False, mode=mode) is Decision.REPLACE

    @pytest.mark.parametrize("mode", ["literal", "absolute"])
    def test_still_hard_kept(self, mode):
        # 0.75 >= 0.7 blocks the drop clause
        assert decide_scores(0.8, 0.75, is_initial=False, mode=mode) is Decision.KEEP

    @pytest.mark.parametrize("mode", ["literal", "absolute"])
    def test_small_drop_kept(self, mode):
        # 1.2 * 0.45 = 0.54 >= 0.5
        assert decide_scores(0.5, 0.45, is_initial=False, mode=mode) is Decision.KEEP

    def test_initial_rule_only_at_first_scoring(self):
        assert decide_scores(0.3, 0.3, is_initial=False, mode="literal") is Decision.KEEP

    def test_modes_differ_on_negative_scores(self):
        # raw -0.6 fails "< 0.4" in literal mode at init but |.| = 0.6 > 0.4 keeps in absolute
        assert decide_scores(-0.6, -0.6, True, mode="literal") is Decision.REPLACE
        assert decide_scores(-0.6, -0.6, True, mode="absolute") is Decision.KEEP

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            decide_scores(0.5, 0.5, False, mode="fuzzy")

    def test_decide_uses_slot_scores(self):
        # cache_scores decides from the slot's first and latest scores: 0.8 then 0.6
        ms = MiningState()
        ms.register_query("q", ["n"], [])
        assert ms.cache_scores(0, [("q", 0, 0.8)])[0]["decision"] == Decision.KEEP.value
        assert ms.cache_scores(1, [("q", 0, 0.6)])[0]["decision"] == Decision.REPLACE.value

    @settings(max_examples=300, deadline=None)
    @given(s0=st.floats(0.0, 1.0), s_cur=st.floats(0.0, 1.0), init=st.booleans())
    def test_literal_and_absolute_agree_on_nonnegative_scores(self, s0, s_cur, init):
        assert decide_scores(s0, s_cur, init, "literal") is decide_scores(s0, s_cur, init, "absolute")

    @settings(max_examples=300, deadline=None)
    @given(s0=st.floats(-1.0, 1.0), s_cur=st.floats(-1.0, 1.0), init=st.booleans(),
           mode=st.sampled_from(["literal", "absolute"]))
    def test_pure_function(self, s0, s_cur, init, mode):
        assert decide_scores(s0, s_cur, init, mode) is decide_scores(s0, s_cur, init, mode)


class TestMiningState:
    def _state(self, mode="absolute"):
        ms = MiningState(mode=mode)
        ms.register_query("q1", ["n0", "n1"], ["p0", "p1", "p2"])
        return ms

    def test_first_sighting_sets_s0(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.9)])
        slot = ms.slots[("q1", 0)]
        assert slot.s0 == slot.s_cur == 0.9
        assert slot.first_step_seen == 0

    def test_double_cache_same_step_rejected(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.9)])
        with pytest.raises(ValueError, match="already cached"):
            ms.cache_scores(0, [("q1", 0, 0.8)])

    def test_unknown_slot_rejected(self):
        ms = self._state()
        with pytest.raises(KeyError, match="unknown"):
            ms.cache_scores(0, [("q9", 0, 0.5)])

    def test_flagged_slot_not_swapped_until_boundary(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.1)])          # initial < 0.4 -> flagged
        assert ms.slots[("q1", 0)].flagged
        assert ms.current_negatives("q1") == ["n0", "n1"]   # still in place this step
        events = ms.replace_flagged()
        assert ms.current_negatives("q1") == ["p0", "n1"]
        assert events[0].new_negative == "p0" and not events[0].exhausted

    def test_s0_resets_after_replacement(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.2)])
        ms.replace_flagged()
        slot = ms.slots[("q1", 0)]
        assert slot.s0 is None and slot.s_cur is None and not slot.flagged
        ms.cache_scores(1, [("q1", 0, 0.95)])
        assert slot.s0 == 0.95 and slot.first_step_seen == 1

    def test_pool_exhaustion_keeps_negative_and_counts(self):
        ms = MiningState()
        ms.register_query("q1", ["n0", "n1"], ["p0"])
        ms.cache_scores(0, [("q1", 0, 0.1), ("q1", 1, 0.2)])
        events = ms.replace_flagged()
        assert ms.current_negatives("q1") == ["p0", "n1"]   # second slot kept its negative
        assert ms.pools["q1"].exhausted_events == 1
        assert [e.exhausted for e in events] == [False, True]

    def test_cursor_monotone(self):
        pool = NegativePool(candidates=["a", "b"])
        assert pool.draw() == "a" and pool.cursor == 1
        assert pool.draw() == "b" and pool.cursor == 2
        assert pool.draw() is None and pool.cursor == 2
        assert pool.exhausted_events == 1

    def test_roundtrip_dict(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.1), ("q1", 1, 0.9)])
        ms.replace_flagged()
        restored = MiningState.from_dict(ms.to_dict())
        assert restored.to_dict() == ms.to_dict()

    def test_roundtrip_rebuilds_slot_counts_and_flags(self):
        ms = self._state()
        ms.register_query("q2", ["m0"], [])
        ms.cache_scores(0, [("q1", 1, 0.1), ("q2", 0, 0.9)])    # flags q1 slot 1 only
        restored = MiningState.from_dict(ms.to_dict())
        assert restored.current_negatives("q1") == ["n0", "n1"]
        assert restored.current_negatives("q2") == ["m0"]
        assert restored.current_negatives("q9") == []
        events = restored.replace_flagged()
        assert [(e.query_id, e.slot_index, e.new_negative) for e in events] == [("q1", 1, "p0")]
        assert restored.current_negatives("q1") == ["n0", "p0"]
        assert restored.replace_flagged() == []

    def test_from_dict_rejects_gap_in_slot_numbers(self):
        d = self._state().to_dict()
        d["slots"] = [s for s in d["slots"] if s["slot_index"] != 0]
        with pytest.raises(ValueError, match="q1"):
            MiningState.from_dict(d)


# ---------------------------------------------------------------------------
# trajectory replay against an independent oracle
# ---------------------------------------------------------------------------

def oracle_replay(trajectory, mode, pool, n_slots):
    """Straightforward list-based re-implementation of the mining semantics.

    trajectory: per step, a list of (slot_index, score) observations.
    Returns the per-step decision strings and the slot history.
    """
    slots = [{"neg": f"n{k}", "s0": None, "cur": None, "flag": False} for k in range(n_slots)]
    cursor = 0
    exhausted = 0
    decisions = []
    for observations in trajectory:
        step_dec = []
        for k, val in observations:
            s = slots[k]
            initial = s["s0"] is None
            if initial:
                s["s0"] = val
            s["cur"] = val
            a0 = abs(s["s0"]) if mode == "absolute" else s["s0"]
            ac = abs(val) if mode == "absolute" else val
            if (initial and a0 < 0.4) or (1.2 * ac < a0 and ac < 0.7):
                s["flag"] = True
                step_dec.append("replace")
            else:
                step_dec.append("keep")
        for k in range(n_slots):
            s = slots[k]
            if s["flag"]:
                if cursor < len(pool):
                    s["neg"] = pool[cursor]
                    cursor += 1
                    s["s0"] = None
                    s["cur"] = None
                else:
                    exhausted += 1
                s["flag"] = False
        decisions.append(step_dec)
    return decisions, [s["neg"] for s in slots], cursor, exhausted


@pytest.mark.parametrize("mode", ["literal", "absolute"])
def test_trajectory_replay_matches_oracle(mode):
    """10,000 seeded random trajectories agree decision-for-decision."""
    rng = np.random.default_rng(42 if mode == "literal" else 43)
    for _ in range(10_000):
        n_slots = int(rng.integers(1, 4))
        n_steps = int(rng.integers(1, 6))
        pool = [f"p{i}" for i in range(rng.integers(0, 5))]
        trajectory = []
        for _step in range(n_steps):
            observed = [k for k in range(n_slots) if rng.random() < 0.8]
            trajectory.append([(k, float(np.round(rng.uniform(-1, 1), 3))) for k in observed])

        ms = MiningState(mode=mode)
        ms.register_query("q", [f"n{k}" for k in range(n_slots)], pool)
        got = []
        for step, observations in enumerate(trajectory):
            recs = ms.cache_scores(step, [("q", k, v) for k, v in observations])
            got.append([r["decision"] for r in recs])
            ms.replace_flagged()

        want, negs, cursor, exhausted = oracle_replay(trajectory, mode, pool, n_slots)
        assert got == want
        assert ms.current_negatives("q") == negs
        assert ms.pools["q"].cursor == cursor
        assert ms.pools["q"].exhausted_events == exhausted
