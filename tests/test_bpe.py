import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_run_config, train_bpe_reference
from tricl.bpe import EOS_ID, PAD_ID, SOS_ID, BpeTokenizer, tokenize, train_bpe
from tricl.encoders import TextEncoder
from tricl.errors import ConfigError, ContractError
from tricl.templates import AUX_TEMPLATE_TEXT, AnnotationRecord, parse_template, render_template

AUX_TEMPLATE = parse_template(AUX_TEMPLATE_TEXT)

CORPUS = [
    render_template(AUX_TEMPLATE, AnnotationRecord("Fishboat", "close", "shallow")),
    render_template(AUX_TEMPLATE, AnnotationRecord("RORO", "far", "deep", wind="windy")),
    render_template(AUX_TEMPLATE, AnnotationRecord("Musselboat", location="the harbour")),
    "The sound belongs to Naturalnoise.",
]


def expand(tok, ids):
    """The text behind token ids, rebuilt from the merge table."""
    pieces = {i: bytes([i]) for i in range(256)}
    for (a, b), idx in tok.merges.items():
        pieces[idx] = pieces[a] + pieces[b]
    return b"".join(pieces[i] for i in ids).decode("utf-8")


def test_most_frequent_pair_merged_first():
    tok = train_bpe(["aaaa", "aaaa"], 260)
    assert list(tok.merges) == [(ord("a"), ord("a"))]


def test_round_trip_over_corpus():
    tok = train_bpe(CORPUS, 400)
    for sentence in CORPUS:
        assert expand(tok, tok.encode(sentence)) == sentence


@given(st.text(max_size=60))
@settings(max_examples=60, deadline=None)
def test_byte_fallback_handles_any_unicode(text):
    tok = train_bpe(CORPUS, 300)
    assert expand(tok, tok.encode(text)) == text


def test_vocab_size_too_small():
    with pytest.raises(ConfigError):
        train_bpe(CORPUS, 259)


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_bpe([], 300)


def test_training_is_deterministic():
    a = train_bpe(CORPUS, 350)
    b = train_bpe(CORPUS, 350)
    assert a.merges == b.merges


@pytest.mark.parametrize("vocab_size", [260, 280, 300, 512])
def test_weighted_distinct_counts_learn_the_reference_merges(vocab_size):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        alphabet = list("ab cde") + ["é", "船"]  # a small alphabet makes pair ties and multi-byte chars common
        pool = ["".join(rng.choice(alphabet, size=rng.integers(0, 30))) for _ in range(rng.integers(1, 8))]
        corpus = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 60))]  # with duplicates
        assert list(train_bpe(corpus, vocab_size).merges) == train_bpe_reference(corpus, vocab_size)
    corpus = [CORPUS[i % 3] for i in range(54)] + CORPUS  # the bench's shape: few sentences, many copies
    assert list(train_bpe(corpus, vocab_size).merges) == train_bpe_reference(corpus, vocab_size)


def test_serialization_round_trip(tmp_path):
    tok = train_bpe(CORPUS, 330)
    path = tmp_path / "tok.txt"
    path.write_text(tok.to_text(), encoding="utf-8")
    again = BpeTokenizer.from_text(path.read_text(encoding="utf-8"))
    assert again.merges == tok.merges
    assert again.to_text() == tok.to_text()


def test_tokenize_brackets_with_specials():
    tok = train_bpe(CORPUS, 300)
    seq = tokenize(CORPUS[0], tok, 77)
    assert seq[0] == SOS_ID and seq[-1] == EOS_ID


def test_tokenize_empty_sentence():
    tok = train_bpe(CORPUS, 300)
    assert tokenize("", tok, 77) == [SOS_ID, EOS_ID]


def test_truncation_keeps_eos():
    tok = train_bpe(CORPUS, 300)
    long_sentence = " ".join(CORPUS) * 3
    assert len(tok.encode(long_sentence)) + 2 > 77
    seq = tokenize(long_sentence, tok, max_len=77)
    assert len(seq) == 77 and seq[-1] == EOS_ID and seq[0] == SOS_ID


def test_specials_reserved_and_distinct():
    assert len({SOS_ID, EOS_ID, PAD_ID}) == 3
    tok = train_bpe(CORPUS, 300)
    for merge_id in tok.merges.values():
        assert merge_id > PAD_ID


def test_token_sequence_contract():
    # the text encoder is where a token sequence is checked
    encoder = TextEncoder(tiny_run_config().encoder, 300, 8, np.random.default_rng(0))
    for ids in ([SOS_ID, 65], [65, EOS_ID], [EOS_ID], []):
        with pytest.raises(ContractError, match=r"\[SOS\]"):
            encoder.encode([ids])
