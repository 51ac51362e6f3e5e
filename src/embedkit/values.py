"""Type and range checks of the configuration values, by field name."""

import math
import numbers

from .masks import SCHEDULE_KINDS
from .mining import MODES as MINING_MODES


def _number(v, kind=numbers.Real) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


# every StageConfig value but kind and mask_policy, the EncoderConfig integers and
# the manifest seed, by the check it must pass
_VALUES = (
    ("an integer >= 1", lambda v: _number(v, numbers.Integral) and v >= 1,
     ("steps", "batch_size", "triplet_batch_size", "sts_batch_size", "window_len",
      "hidden_dim", "heads", "kv_heads", "ffn_dim", "vocab_size", "max_len")),
    ("an integer >= 0", lambda v: _number(v, numbers.Integral) and v >= 0,
     ("negatives_per_query", "checkpoint_every", "seed", "layers")),
    ("a finite number > 0", lambda v: _number(v) and 0 < v < math.inf, ("lr", "temperature")),
    ("a finite number >= 0", lambda v: _number(v) and 0 <= v < math.inf, ("weight_decay",)),
    ("a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1, ("warmup_frac",)),
    ("true or false", lambda v: isinstance(v, bool), ("mrl", "dhnm")),
    (f"one of {SCHEDULE_KINDS}", lambda v: v in SCHEDULE_KINDS, ("mask_schedule",)),
    (f"one of {MINING_MODES}", lambda v: v in MINING_MODES, ("dhnm_mode",)),
)


def _check_values(values: dict):
    """Refuse the first value in ``values`` that fails its ``_VALUES`` check, naming its field."""
    for what, ok, names in _VALUES:
        for name in names:
            if name in values and not ok(values[name]):
                raise ValueError(f"{name} must be {what}, not {values[name]!r}")
