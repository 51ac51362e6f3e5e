"""Whitespace tokenizer with byte fallback.

Ids 0/1 are PAD/UNK, 2..257 are raw bytes, word ids follow.  Words come
from an explicit vocabulary (typically the dataset header), so encoding
is deterministic and collision-free; any out-of-vocabulary word falls
back to its UTF-8 bytes.
"""

from __future__ import annotations

PAD_ID = 0
UNK_ID = 1
BYTE_OFFSET = 2
WORD_OFFSET = BYTE_OFFSET + 256


class Tokenizer:
    def __init__(self, words: list[str], vocab_size: int):
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in vocabulary")
        if WORD_OFFSET + len(words) > vocab_size:
            raise ValueError(
                f"vocabulary of {len(words)} words needs {WORD_OFFSET + len(words)} ids "
                f"but vocab_size is {vocab_size}"
            )
        self.vocab_size = vocab_size
        self.words = list(words)
        self._word_to_id = {w: WORD_OFFSET + i for i, w in enumerate(words)}

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for word in text.split():
            wid = self._word_to_id.get(word)
            if wid is not None:
                ids.append(wid)
            else:
                ids.extend(BYTE_OFFSET + b for b in word.encode("utf-8"))
        return ids
