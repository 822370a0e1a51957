"""Byte-pair-encoding tokenizer with byte-level fallback.

Token ids 0-255 are raw bytes, then the specials [SOS]=256, [EOS]=257,
[PAD]=258, then one id per learned merge. Because every byte is a token,
any Unicode string tokenizes without out-of-vocabulary failures and
encode/decode round trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ContractError

SOS_ID = 256
EOS_ID = 257
PAD_ID = 258
N_SPECIALS = 3
_FIRST_MERGE_ID = 256 + N_SPECIALS

DEFAULT_MAX_TOKENS = 77


@dataclass
class TokenSequence:
    """Ids bracketed by [SOS]/[EOS], truncated to max_len with [EOS] kept last."""

    ids: list[int]

    def __post_init__(self):
        if len(self.ids) < 2 or self.ids[0] != SOS_ID or self.ids[-1] != EOS_ID:
            raise ContractError(f"token sequence must start with [SOS] and end with [EOS]: {self.ids[:3]}...")

    def __len__(self) -> int:
        return len(self.ids)


def _pair_counts(ids: list[int], counts: dict) -> None:
    for pair in zip(ids, ids[1:]):
        counts[pair] = counts.get(pair, 0) + 1


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
        self._rebuild_vocab()

    def _rebuild_vocab(self) -> None:
        self.vocab: dict[int, bytes] = {i: bytes([i]) for i in range(256)}
        for pair, idx in self.merges.items():
            self.vocab[idx] = self.vocab[pair[0]] + self.vocab[pair[1]]

    @property
    def vocab_size(self) -> int:
        return _FIRST_MERGE_ID + len(self.merges)

    def encode(self, text: str) -> list[int]:
        ids = list(text.encode("utf-8"))
        while len(ids) >= 2:
            counts: dict[tuple[int, int], int] = {}
            _pair_counts(ids, counts)
            pair = min(counts, key=lambda p: self.merges.get(p, float("inf")))
            if pair not in self.merges:
                break
            ids = _merge(ids, pair, self.merges[pair])
        return ids

    def decode(self, ids: list[int]) -> str:
        parts = []
        for i in ids:
            if SOS_ID <= i < _FIRST_MERGE_ID:
                continue  # specials carry no text
            piece = self.vocab.get(i)
            if piece is None:
                raise ContractError(f"unknown token id {i}")
            parts.append(piece)
        return b"".join(parts).decode("utf-8", errors="replace")

    def to_text(self) -> str:
        lines = [f"tricl-bpe v1 merges={len(self.merges)}"]
        lines += [f"{a} {b}" for a, b in self.merges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BpeTokenizer":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("tricl-bpe v1"):
            raise ConfigError("unrecognized tokenizer serialization header")
        merges = []
        for ln in lines[1:]:
            a, b = ln.split()
            merges.append((int(a), int(b)))
        return cls(merges)


def train_bpe(corpus: list[str], vocab_size: int) -> BpeTokenizer:
    """Learn merges from byte-pair frequencies over the corpus sentences.

    Merges never cross sentence boundaries. Ties break toward the smaller
    pair so the merge table is deterministic for a given corpus.
    """
    if not corpus:
        raise ConfigError("tokenizer corpus is empty")
    if vocab_size <= _FIRST_MERGE_ID:
        raise ConfigError(f"vocab_size must exceed {_FIRST_MERGE_ID} (bytes + specials), got {vocab_size}")
    sequences = [list(s.encode("utf-8")) for s in corpus]
    tok = BpeTokenizer()
    for _ in range(vocab_size - _FIRST_MERGE_ID):
        counts: dict[tuple[int, int], int] = {}
        for ids in sequences:
            _pair_counts(ids, counts)
        if not counts:
            break
        pair = min(counts, key=lambda p: (-counts[p], p))
        if counts[pair] < 2:
            break
        new_id = _FIRST_MERGE_ID + len(tok.merges)
        tok.merges[pair] = new_id
        sequences = [_merge(ids, pair, new_id) for ids in sequences]
    tok._rebuild_vocab()
    return tok


def tokenize(sentence: str, tokenizer: BpeTokenizer, max_len: int = DEFAULT_MAX_TOKENS) -> TokenSequence:
    """[SOS] + merges(sentence) + [EOS], right-truncated keeping the final [EOS]."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    ids = [SOS_ID] + tokenizer.encode(sentence) + [EOS_ID]
    if len(ids) > max_len:
        ids = ids[: max_len - 1] + [EOS_ID]
    return TokenSequence(ids)
