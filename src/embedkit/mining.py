"""Dynamic hard negative mining state machine.

Negative slots are scored opportunistically from the cosines the
contrastive loss already computed (one cache write per slot per step).
A slot is flagged for replacement when its initial score is below 0.4,
or when its current score has dropped below 5/6 of the initial score
while also sitting below 0.7; the swap happens at the next step
boundary, so the negative used in step t's loss is always the one
present when step t started.  ``absolute`` mode compares |score|s,
``literal`` mode compares the raw signed scores.

The state holds only what crosses a step boundary (see ``MiningState``);
the flags and the slots cached in the current step are per-step scratch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

INITIAL_THRESHOLD = 0.4
DROP_RATIO = 1.2
EASY_THRESHOLD = 0.7

MODES = ("literal", "absolute")

# the checkpoint arrays of a state, each a concatenation over its queries in registration order
ARRAYS = ("mining.slots", "mining.s0", "mining.pool", "mining.cursor")


class Decision(enum.Enum):
    KEEP = "keep"
    REPLACE = "replace"


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


@dataclass
class ReplacementEvent:
    query_id: str
    slot_index: int
    old_negative: str
    new_negative: Optional[str]       # None when the pool was exhausted
    exhausted: bool


class MiningState:
    """Every query's slots and pool, owned by the training loop; a step costs time in its batch.

    Per query, in registration order (``queries`` maps an id to its place):
    ``slots`` holds each slot's negative as a row of the query's negatives,
    ``s0`` each slot's first cached score (None until scored), ``pool`` the
    rows to draw, hardest first, and ``cursor`` the position of the next draw.
    """

    def __init__(self, mode: str = "absolute"):
        self.mode = mode        # decide_scores refuses one not in MODES
        self.queries: dict[str, int] = {}
        self._negatives: list[Sequence[str]] = []
        self.slots: list[list[int]] = []
        self.s0: list[list[Optional[float]]] = []
        self.pool: list[list[int]] = []
        self.cursor: list[int] = []
        self._flagged: set[tuple[str, int]] = set()
        self._cached: set[tuple[int, str, int]] = set()     # (step, query id, slot) since the boundary

    def register_query(self, query_id: str, slots: Sequence[int], pool: Sequence[int],
                       negatives: Sequence[str]):
        """Add a query whose slots start with rows ``slots`` of ``negatives`` and draw ``pool`` in order."""
        if query_id in self.queries:
            raise ValueError(f"query {query_id!r} already registered")
        self.queries[query_id] = len(self.cursor)
        self._negatives.append(negatives)
        self.slots.append([int(r) for r in slots])
        self.s0.append([None] * len(slots))
        self.pool.append([int(r) for r in pool])
        self.cursor.append(0)

    def current_negatives(self, query_id: str) -> list[str]:
        q = self.queries.get(query_id)
        return [] if q is None else [self._negatives[q][r] for r in self.slots[q]]

    def cache_scores(self, step: int,
                     scored: Iterable[tuple[str, int, float]]) -> list[dict]:
        """Record this step's loss-time cosines; flags slots, never swaps mid-step."""
        records = []
        for query_id, slot_index, value in scored:
            key = (query_id, slot_index)
            q = self.queries.get(query_id)
            if q is None or not 0 <= slot_index < len(self.slots[q]):
                raise KeyError(f"unknown negative slot ({query_id!r}, {slot_index})")
            if (step, *key) in self._cached:
                raise ValueError(f"slot ({query_id!r}, {slot_index}) already cached at step {step}")
            self._cached.add((step, *key))
            s_cur = float(value)
            s0 = self.s0[q][slot_index]
            is_initial = s0 is None
            if is_initial:
                s0 = self.s0[q][slot_index] = s_cur
            d = decide_scores(s0, s_cur, is_initial, self.mode)
            if d is Decision.REPLACE:
                self._flagged.add(key)
            records.append({"step": step, "query_id": query_id, "slot": slot_index, "s0": s0,
                            "s_cur": s_cur, "decision": d.value})
        return records

    def replace_flagged(self) -> list[ReplacementEvent]:
        """At a step boundary, swap each flagged slot for its pool's next candidate."""
        events = []
        for query_id, slot_index in sorted(self._flagged):
            q = self.queries[query_id]
            negatives, slots, pool = self._negatives[q], self.slots[q], self.pool[q]
            old, new = negatives[slots[slot_index]], None
            if self.cursor[q] < len(pool):
                slots[slot_index] = pool[self.cursor[q]]
                new = negatives[slots[slot_index]]
                self.cursor[q] += 1
                self.s0[q][slot_index] = None     # the new negative's first cached score becomes its s0
            events.append(ReplacementEvent(query_id, slot_index, old, new, exhausted=new is None))
        self._flagged.clear()
        self._cached.clear()
        return events

    # -- persistence for mid-run checkpointing --------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The state as the float64 ``ARRAYS`` (a None ``s0`` reads as NaN); no per-step scratch."""
        flat = [list(chain.from_iterable(x)) for x in (self.slots, self.s0, self.pool)]
        return {name: np.array(v, dtype=np.float64) for name, v in zip(ARRAYS, (*flat, self.cursor))}

    @classmethod
    def from_arrays(cls, mode: str, queries: Sequence[tuple[str, Sequence[str], int]],
                    arrays: dict[str, np.ndarray]) -> "MiningState":
        """The state ``arrays`` holds for ``queries``: (id, negatives, slot count) in registration
        order, the dataset the arrays were written against."""
        slots, s0, pool, cursor = (arrays[name] for name in ARRAYS)
        k = np.array([k for _, _, k in queries], dtype=np.intp)
        n = np.array([len(negatives) for _, negatives, _ in queries], dtype=np.intp)
        if (len(cursor), len(slots), len(pool)) != (len(queries), k.sum(), (n - k).sum()):
            raise ValueError(f"mining state of {len(cursor)} queries, {len(slots)} slots and "
                             f"{len(pool)} pool rows does not fit the dataset's {len(queries)} queries")
        # each slot and pool row a row of its query's negatives, each cursor at most past its pool
        values = np.concatenate([slots, pool, cursor])
        bound = np.concatenate([np.repeat(n, k), np.repeat(n, n - k), n - k + 1])
        if not np.all((values >= 0) & (values < bound) & (values == np.floor(values))):
            raise ValueError("mining state names a row or draw outside its query's negatives")
        slots, pool = slots.astype(np.intp).tolist(), pool.astype(np.intp).tolist()
        s0 = [None if math.isnan(s) else s for s in s0.tolist()]
        state = cls(mode)
        i = j = 0
        for (query_id, negatives, k_q), c in zip(queries, cursor.astype(np.intp).tolist()):
            p = len(negatives) - k_q
            state.register_query(query_id, slots[i:i + k_q], pool[j:j + p], negatives)
            state.s0[-1], state.cursor[-1] = s0[i:i + k_q], c
            i, j = i + k_q, j + p
        return state
