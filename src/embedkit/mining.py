"""Dynamic hard negative mining state machine.

Negative slots are scored opportunistically from the cosines the
contrastive loss already computed (one cache write per slot per step).
A slot is flagged for replacement when its initial score is below 0.4,
or when its current score has dropped below 5/6 of the initial score
while also sitting below 0.7; the swap happens at the next step
boundary, so the negative used in step t's loss is always the one
present when step t started.  ``absolute`` mode compares |score|s,
``literal`` mode compares the raw signed scores.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

INITIAL_THRESHOLD = 0.4
DROP_RATIO = 1.2
EASY_THRESHOLD = 0.7

MODES = ("literal", "absolute")


class Decision(enum.Enum):
    KEEP = "keep"
    REPLACE = "replace"


@dataclass
class NegativeSlotState:
    query_id: str
    slot_index: int
    negative_id: str
    s0: Optional[float] = None
    s_cur: Optional[float] = None
    flagged: bool = False
    first_step_seen: Optional[int] = None
    last_cached_step: Optional[int] = None


@dataclass
class NegativePool:
    candidates: list[str]
    cursor: int = 0
    exhausted_events: int = 0

    def draw(self) -> Optional[str]:
        if self.cursor >= len(self.candidates):
            self.exhausted_events += 1
            return None
        nxt = self.candidates[self.cursor]
        self.cursor += 1
        return nxt


def decide_scores(s0: float, s_cur: float, is_initial: bool, mode: str = "absolute") -> Decision:
    """Replacement rule; pure in its arguments."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "absolute":
        s0, s_cur = abs(s0), abs(s_cur)
    if is_initial and s0 < INITIAL_THRESHOLD:
        return Decision.REPLACE
    if DROP_RATIO * s_cur < s0 and s_cur < EASY_THRESHOLD:
        return Decision.REPLACE
    return Decision.KEEP


def decide(slot: NegativeSlotState, is_initial: bool, mode: str = "absolute") -> Decision:
    if slot.s0 is None or slot.s_cur is None:
        raise ValueError(f"slot ({slot.query_id}, {slot.slot_index}) has no cached scores")
    return decide_scores(slot.s0, slot.s_cur, is_initial, mode)


@dataclass
class ReplacementEvent:
    query_id: str
    slot_index: int
    old_negative: str
    new_negative: Optional[str]       # None when the pool was exhausted
    exhausted: bool


class MiningState:
    """All per-query slots and candidate pools, owned by the training loop.

    Besides the slots themselves it keeps each query's slot count and the
    keys of the flagged slots, so a step costs time in its batch, not in
    the number of slots.
    """

    def __init__(self, mode: str = "absolute"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.mode = mode
        self.slots: dict[tuple[str, int], NegativeSlotState] = {}
        self.pools: dict[str, NegativePool] = {}
        self._slot_count: dict[str, int] = {}
        self._flagged: set[tuple[str, int]] = set()

    def register_query(self, query_id: str, initial_negatives: list[str], pool: list[str]):
        if query_id in self.pools:
            raise ValueError(f"query {query_id!r} already registered")
        self.pools[query_id] = NegativePool(candidates=list(pool))
        self._slot_count[query_id] = len(initial_negatives)
        for k, neg in enumerate(initial_negatives):
            self.slots[(query_id, k)] = NegativeSlotState(query_id=query_id, slot_index=k, negative_id=neg)

    def current_negatives(self, query_id: str) -> list[str]:
        return [self.slots[(query_id, k)].negative_id
                for k in range(self._slot_count.get(query_id, 0))]

    def cache_scores(self, step: int,
                     scored: Iterable[tuple[str, int, float]]) -> list[dict]:
        """Record this step's loss-time cosines; flags slots, never swaps mid-step."""
        records = []
        for query_id, slot_index, value in scored:
            key = (query_id, slot_index)
            slot = self.slots.get(key)
            if slot is None:
                raise KeyError(f"unknown negative slot ({query_id!r}, {slot_index})")
            if slot.last_cached_step == step:
                raise ValueError(f"slot ({query_id!r}, {slot_index}) already cached at step {step}")
            is_initial = slot.s0 is None
            if is_initial:
                slot.s0 = float(value)
                slot.first_step_seen = step
            slot.s_cur = float(value)
            slot.last_cached_step = step
            d = decide(slot, is_initial=is_initial, mode=self.mode)
            if d is Decision.REPLACE:
                slot.flagged = True
                self._flagged.add(key)
            records.append({
                "step": step,
                "query_id": query_id,
                "slot": slot_index,
                "s0": slot.s0,
                "s_cur": slot.s_cur,
                "decision": d.value,
            })
        return records

    def replace_flagged(self) -> list[ReplacementEvent]:
        """At a step boundary, swap each flagged slot for the pool's next candidate."""
        events = []
        for key in sorted(self._flagged):
            slot = self.slots[key]
            pool = self.pools[slot.query_id]
            nxt = pool.draw()
            if nxt is None:
                events.append(ReplacementEvent(slot.query_id, slot.slot_index,
                                               slot.negative_id, None, exhausted=True))
            else:
                events.append(ReplacementEvent(slot.query_id, slot.slot_index,
                                               slot.negative_id, nxt, exhausted=False))
                slot.negative_id = nxt
                slot.s0 = None          # new negative's first cached score becomes its S0
                slot.s_cur = None
                slot.first_step_seen = None
                slot.last_cached_step = None
            slot.flagged = False
        self._flagged.clear()
        return events

    # -- persistence for mid-run checkpointing --------------------------

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "slots": [
                {
                    "query_id": s.query_id, "slot_index": s.slot_index,
                    "negative_id": s.negative_id, "s0": s.s0, "s_cur": s.s_cur,
                    "flagged": s.flagged, "first_step_seen": s.first_step_seen,
                    "last_cached_step": s.last_cached_step,
                }
                for _, s in sorted(self.slots.items())
            ],
            "pools": {
                qid: {"candidates": p.candidates, "cursor": p.cursor,
                      "exhausted_events": p.exhausted_events}
                for qid, p in sorted(self.pools.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MiningState":
        state = cls(mode=d["mode"])
        for s in d["slots"]:
            slot = NegativeSlotState(**s)
            key = (slot.query_id, slot.slot_index)
            state.slots[key] = slot
            state._slot_count[slot.query_id] = state._slot_count.get(slot.query_id, 0) + 1
            if slot.flagged:
                state._flagged.add(key)
        for qid, p in d["pools"].items():
            state.pools[qid] = NegativePool(candidates=list(p["candidates"]),
                                            cursor=p["cursor"],
                                            exhausted_events=p["exhausted_events"])
        for qid, n in state._slot_count.items():
            if any((qid, k) not in state.slots for k in range(n)):
                raise ValueError(f"mining state for query {qid!r} does not number its "
                                 f"slots 0..{n - 1}")
        return state
