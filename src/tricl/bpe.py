"""Byte-pair-encoding tokenizer with byte-level fallback.

Token ids 0-255 are raw bytes, then the specials [SOS]=256, [EOS]=257,
[PAD]=258, then one id per learned merge. Because every byte is a token,
any Unicode string tokenizes without out-of-vocabulary failures. A
tokenized sentence is a plain list of ids; the text encoder checks it.
"""

from __future__ import annotations

import re
from collections import Counter

from .errors import ConfigError

SOS_ID = 256
EOS_ID = 257
PAD_ID = 258
N_SPECIALS = 3
_FIRST_MERGE_ID = 256 + N_SPECIALS


def _merge(ids: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    out = []
    i = 0
    while i < len(ids):
        if i < len(ids) - 1 and ids[i] == pair[0] and ids[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


class BpeTokenizer:
    def __init__(self, merges: list[tuple[int, int]] | None = None):
        self.merges: dict[tuple[int, int], int] = {}
        for pair in merges or []:
            self.merges[tuple(pair)] = _FIRST_MERGE_ID + len(self.merges)

    @property
    def vocab_size(self) -> int:
        return _FIRST_MERGE_ID + len(self.merges)

    def encode(self, text: str) -> list[int]:
        ids = list(text.encode("utf-8"))
        while len(ids) >= 2:
            pair = min(zip(ids, ids[1:]), key=lambda p: self.merges.get(p, float("inf")))
            if pair not in self.merges:
                break
            ids = _merge(ids, pair, self.merges[pair])
        return ids

    def to_text(self) -> str:
        lines = [f"tricl-bpe v1 merges={len(self.merges)}"]
        lines += [f"{a} {b}" for a, b in self.merges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BpeTokenizer":
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        header = re.fullmatch(r"tricl-bpe v1 merges=(\d+)", lines[0][1].strip()) if lines else None
        if header is None:
            raise ConfigError("unrecognized tokenizer serialization header")
        merges = []
        for n, ln in lines[1:]:
            try:
                a, b = map(int, ln.split())
            except ValueError:
                raise ValueError(f"line {n} is not a merge of two token ids: {ln!r}") from None
            merges.append((a, b))
        if len(merges) != int(header[1]):
            raise ValueError(f"the header counts {header[1]} merges, {len(merges)} merge lines follow it")
        return cls(merges)


def train_bpe(corpus: list[str], vocab_size: int) -> BpeTokenizer:
    """Learn merges from byte-pair frequencies over the corpus sentences.

    Merges never cross sentence boundaries. Ties break toward the smaller
    pair so the merge table is deterministic for a given corpus. Each
    distinct sentence is merged and counted once, weighted by how often the
    corpus holds it.
    """
    if not corpus:
        raise ConfigError("tokenizer corpus is empty")
    if vocab_size <= _FIRST_MERGE_ID:
        raise ConfigError(f"vocab_size must exceed {_FIRST_MERGE_ID} (bytes + specials), got {vocab_size}")
    occurrences = Counter(corpus)
    sequences = [list(s.encode("utf-8")) for s in occurrences]
    tok = BpeTokenizer()
    for _ in range(vocab_size - _FIRST_MERGE_ID):
        counts = Counter()
        for ids, weight in zip(sequences, occurrences.values()):
            for pair in zip(ids, ids[1:]):
                counts[pair] += weight
        if not counts:
            break
        pair = min(counts, key=lambda p: (-counts[p], p))
        if counts[pair] < 2:
            break
        new_id = _FIRST_MERGE_ID + len(tok.merges)
        tok.merges[pair] = new_id
        sequences = [_merge(ids, pair, new_id) for ids in sequences]
    return tok


def tokenize(sentence: str, tokenizer: BpeTokenizer, max_len: int) -> list[int]:
    """[SOS] + merges(sentence) + [EOS], right-truncated keeping the final [EOS]."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    ids = [SOS_ID] + tokenizer.encode(sentence) + [EOS_ID]
    if len(ids) > max_len:
        ids = ids[: max_len - 1] + [EOS_ID]
    return ids
