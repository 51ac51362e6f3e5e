"""Type and range checks of every value read from a manifest or a dataset, by field name:
stage options, the encoder's integers and ``mrl_dims``, ``seed``, ``output_dir``, the
fields of a ``Triplet``, ``ScoredPair`` or text record and a dataset header's lists."""

import math
import numbers

from .masks import SCHEDULE_KINDS
from .mining import MODES as MINING_MODES


def _number(v, kind=numbers.Real) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


def _strings(v) -> bool:          # str.join refuses any item but a string, in C
    try:
        "".join(v)
    except TypeError:
        return False
    return isinstance(v, list)


# each field read from a manifest or a dataset, by the check it must pass
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
    ("a list of integers",
     lambda v: isinstance(v, (list, tuple)) and all(_number(d, numbers.Integral) for d in v),
     ("mrl_dims",)),
    # str.__instancecheck__(v) is isinstance(v, str) without a Python call: records run it most
    ("a string", str.__instancecheck__,
     ("output_dir", "query", "positive", "query_lang", "passage_lang", "uid", "source",
      "text_a", "text_b", "lang", "text")),
    ("a list of strings", _strings, ("negatives", "vocab", "languages")),
    ("an integer or null", lambda v: v is None or _number(v, int), ("cluster",)),
    # a float skips _number's isinstance against an abstract class, ~0.4 us a record
    ("a finite real number", lambda v: (type(v) is float or _number(v)) and math.isfinite(v),
     ("similarity",)),
)

_OK = {name: ok for what, ok, names in _VALUES for name in names}
_WHAT = {name: what for what, ok, names in _VALUES for name in names}


def _check_values(values: dict, rule: str = "") -> dict:
    """``values``, unless one fails its field's ``_VALUES`` check (field ``rule``'s, when given):
    the first such, in their order, is refused as "<field> must be <what>, not <value>"."""
    for name, value in values.items():
        ok = _OK.get(rule or name)
        if ok is not None and not ok(value):
            raise ValueError(f"{name} must be {_WHAT[rule or name]}, not {value!r}")
    return values
