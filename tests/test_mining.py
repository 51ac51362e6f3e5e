"""Replacement-rule worked cases, state-machine timing rules, and a replay of
random score trajectories against an independently written plain-loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit.mining import Decision, MiningState, decide_scores


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
        ms.register_query("q", [0], [], ["n"])
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


def _register(ms, query_id, slots, pool):
    """Register ``query_id`` with negatives ``slots + pool``: rows 0..len(slots)-1 fill its slots."""
    ms.register_query(query_id, range(len(slots)), range(len(slots), len(slots) + len(pool)),
                      slots + pool)


class TestMiningState:
    def _state(self, mode="absolute"):
        ms = MiningState(mode=mode)
        _register(ms, "q1", ["n0", "n1"], ["p0", "p1", "p2"])
        return ms

    def test_first_sighting_sets_s0(self):
        ms = self._state()
        [record] = ms.cache_scores(0, [("q1", 0, 0.9)])
        assert ms.s0[ms.queries["q1"]] == [0.9, None]
        assert record["s0"] == record["s_cur"] == 0.9
        [record] = ms.cache_scores(1, [("q1", 0, 0.5)])
        assert ms.s0[ms.queries["q1"]] == [0.9, None]
        assert (record["s0"], record["s_cur"]) == (0.9, 0.5)

    def test_double_cache_same_step_rejected(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.9)])
        with pytest.raises(ValueError, match="already cached"):
            ms.cache_scores(0, [("q1", 0, 0.8)])

    def test_unknown_slot_rejected(self):
        ms = self._state()
        for query_id, slot in [("q9", 0), ("q1", 2), ("q1", -1)]:
            with pytest.raises(KeyError, match="unknown"):
                ms.cache_scores(0, [(query_id, slot, 0.5)])

    def test_flagged_slot_not_swapped_until_boundary(self):
        ms = self._state()
        [record] = ms.cache_scores(0, [("q1", 0, 0.1)])     # initial < 0.4 -> flagged
        assert record["decision"] == "replace"
        assert ms.current_negatives("q1") == ["n0", "n1"]   # still in place this step
        events = ms.replace_flagged()
        assert ms.current_negatives("q1") == ["p0", "n1"]
        assert events[0].new_negative == "p0" and not events[0].exhausted
        assert ms.slots[ms.queries["q1"]] == [2, 1]         # p0 is row 2 of the negatives

    def test_s0_resets_after_replacement(self):
        ms = self._state()
        ms.cache_scores(0, [("q1", 0, 0.2)])
        ms.replace_flagged()
        assert ms.s0[ms.queries["q1"]] == [None, None]
        assert ms.replace_flagged() == []                   # the flag went with the swap
        [record] = ms.cache_scores(1, [("q1", 0, 0.95)])
        assert ms.s0[ms.queries["q1"]][0] == 0.95 and record["decision"] == "keep"

    def test_pool_exhaustion_keeps_negative_and_counts(self):
        ms = MiningState()
        _register(ms, "q1", ["n0", "n1"], ["p0"])
        ms.cache_scores(0, [("q1", 0, 0.1), ("q1", 1, 0.2)])
        events = ms.replace_flagged()
        assert ms.current_negatives("q1") == ["p0", "n1"]   # second slot kept its negative
        assert sum(e.exhausted for e in events) == 1
        assert [e.exhausted for e in events] == [False, True]
        assert (events[1].old_negative, events[1].new_negative) == ("n1", None)

    def test_cursor_monotone(self):
        ms = MiningState()
        _register(ms, "q", ["n0"], ["a", "b"])
        # each new negative's first score is under 0.4; then 0.05 drops from 0.1
        steps = [(0.1, "a", 1), (0.1, "b", 2), (0.1, None, 2), (0.05, None, 2)]
        for step, (score, new, cursor) in enumerate(steps):
            ms.cache_scores(step, [("q", 0, score)])
            [event] = ms.replace_flagged()
            assert (event.new_negative, event.exhausted) == (new, new is None)
            assert ms.cursor[ms.queries["q"]] == cursor

    def test_roundtrip_arrays(self):
        ms = self._state()
        _register(ms, "q2", ["m0"], [])
        ms.cache_scores(0, [("q1", 0, 0.1), ("q1", 1, 0.9), ("q2", 0, 0.8)])
        ms.replace_flagged()
        arrays = ms.arrays()
        assert {k: v.tolist() for k, v in arrays.items() if k != "mining.s0"} == {
            "mining.slots": [2, 1, 0], "mining.pool": [2, 3, 4], "mining.cursor": [1, 0]}
        assert np.isnan(arrays["mining.s0"][0]) and arrays["mining.s0"][1:].tolist() == [0.9, 0.8]
        assert all(v.dtype == np.float64 for v in arrays.values())
        queries = [("q1", ["n0", "n1", "p0", "p1", "p2"], 2), ("q2", ["m0"], 1)]
        restored = MiningState.from_arrays("absolute", queries, arrays)
        assert {k: v.tobytes() for k, v in restored.arrays().items()} == \
            {k: v.tobytes() for k, v in arrays.items()}
        assert restored.current_negatives("q1") == ["p0", "n1"]
        assert restored.current_negatives("q2") == ["m0"]
        assert restored.current_negatives("q9") == []
        # the restored state goes on as the original does
        for state in (ms, restored):
            recs = state.cache_scores(1, [("q1", 0, 0.1), ("q1", 1, 0.5)])
            assert [r["decision"] for r in recs] == ["replace", "replace"]
            assert [(e.slot_index, e.new_negative) for e in state.replace_flagged()] == \
                [(0, "p1"), (1, "p2")]

    def test_from_arrays_rejects_a_state_that_does_not_fit_the_queries(self):
        ms = self._state()
        queries = [("q1", ["n0", "n1", "p0", "p1", "p2"], 2)]
        with pytest.raises(ValueError, match="does not fit"):
            MiningState.from_arrays("absolute", queries + [("q2", ["m0"], 1)], ms.arrays())
        with pytest.raises(ValueError, match="does not fit"):
            MiningState.from_arrays("absolute", [("q1", ["n0", "n1", "p0", "p1"], 2)], ms.arrays())
        for name, at, value in [("slots", 1, 5), ("pool", 0, -1), ("pool", 2, 0.5), ("cursor", 0, 4),
                                ("slots", 0, np.nan)]:
            arrays = ms.arrays()
            arrays[f"mining.{name}"][at] = value        # rows 0-4 of 5 negatives, cursor 0-3
            with pytest.raises(ValueError, match="outside"):
                MiningState.from_arrays("absolute", queries, arrays)


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
        _register(ms, "q", [f"n{k}" for k in range(n_slots)], pool)
        got = []
        n_exhausted = 0
        for step, observations in enumerate(trajectory):
            recs = ms.cache_scores(step, [("q", k, v) for k, v in observations])
            got.append([r["decision"] for r in recs])
            n_exhausted += sum(e.exhausted for e in ms.replace_flagged())

        want, negs, cursor, exhausted = oracle_replay(trajectory, mode, pool, n_slots)
        assert got == want
        assert ms.current_negatives("q") == negs
        assert ms.cursor[ms.queries["q"]] == cursor
        assert n_exhausted == exhausted
