"""Manifest parsing, segmentation arithmetic, fold protocol, ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_run_config
from tricl.data import (
    Dataset,
    DatasetManifest,
    TrainSample,
    ingest,
    load_manifest,
    make_folds,
    segment_audio,
    stratified_source_subset,
)
from tricl.dsp import AudioSegment, write_wav
from tricl.errors import ConfigError, DataError, ProtocolError
from tricl.synth import synth_generate, three_class_spec
from tricl.templates import AUX_TEMPLATE_TEXT, AnnotationRecord, parse_template


def test_segment_count_60s():
    segs = segment_audio(np.arange(60 * 16000, dtype=np.float64), "a")
    assert len(segs) == 3
    # window k starts k hops of 15 s into the recording
    assert [int(s.samples[0]) // (15 * 16000) for s in segs] == [0, 1, 2]


def test_segment_count_exact_30s():
    assert len(segment_audio(np.zeros(30 * 16000), "a")) == 1


def test_segment_29s_yields_none_with_warning(caplog):
    with caplog.at_level("WARNING"):
        segs = segment_audio(np.zeros(29 * 16000), "short-rec")
    assert segs == []
    assert "short-rec" in caplog.text


@given(st.floats(min_value=0.5, max_value=600.0))
@settings(max_examples=60, deadline=None)
def test_segment_count_formula(duration):
    n = int(round(duration * 16000))
    segs = segment_audio(np.zeros(n), "x")
    seg_len, step = 30 * 16000, 15 * 16000
    expect = 0 if n < seg_len else (n - seg_len) // step + 1
    assert len(segs) == expect
    for s in segs:
        assert len(s.samples) == seg_len


def test_segment_offsets_are_15s_apart():
    segs = segment_audio(np.arange(75 * 16000, dtype=np.float64), "a")
    starts = [int(s.samples[0]) for s in segs]
    assert starts == [0, 15 * 16000, 30 * 16000, 45 * 16000]


def _manifest(types_per_source):
    records = []
    for i, vt in enumerate(types_per_source):
        records.append(
            type("R", (), {"source_id": f"s{i}", "vessel_type": vt})()
        )
    m = DatasetManifest.__new__(DatasetManifest)
    m.records = records
    return m


def sources_in(folds, fold):
    return [s for s, f in folds.mapping.items() if f == fold]


class TestFolds:
    def test_eight_sources_every_fold_nonempty(self):
        folds = make_folds(_manifest(["A"] * 4 + ["B"] * 4), k=4, seed=0)
        for f in range(4):
            assert sources_in(folds, f)

    def test_same_seed_same_assignment(self):
        m = _manifest(["A", "A", "B", "B", "C", "C", "C", "B"])
        assert make_folds(m, 4, 7).mapping == make_folds(m, 4, 7).mapping

    def test_partition_properties_random_manifests(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 40))
            types = [f"T{rng.integers(1, 5)}" for _ in range(n)]
            m = _manifest(types)
            folds = make_folds(m, 4, seed)
            union = set()
            for f in range(4):
                part = set(sources_in(folds, f))
                assert not (part & union)
                union |= part
            assert union == {f"s{i}" for i in range(n)}

    def test_three_class_mapping_pinned(self, tmp_path):
        # fold of each of the 72 sources, in sorted source-id order, per fold seed
        expected = {
            0: "021112313130200313032220030223011212213301031320110332203131301002132022",
            1: "102123220201313303030121110312033202330132110202121300111302233330220120",
            2: "232013212203013301121003013321302032200321021311201331100220112303132320",
        }
        manifest = load_manifest(synth_generate(three_class_spec(seed=0), tmp_path))
        for seed, folds in expected.items():
            mapping = make_folds(manifest, 4, seed).mapping
            assert "".join(str(mapping[s]) for s in sorted(mapping)) == folds

    def test_fewer_sources_than_folds(self):
        with pytest.raises(ProtocolError):
            make_folds(_manifest(["A", "B", "C"]), k=4, seed=0)

    def test_stratification_spreads_each_type(self):
        folds = make_folds(_manifest(["A"] * 8 + ["B"] * 8), k=4, seed=3)
        for vt in ("A", "B"):
            per_fold = [0] * 4
            for i, t in enumerate(["A"] * 8 + ["B"] * 8):
                if t == vt:
                    per_fold[folds.fold_of(f"s{i}")] += 1
            assert max(per_fold) - min(per_fold) <= 1


def _write_dataset(tmp_path, rows):
    lines = []
    for i, row in enumerate(rows):
        wav = tmp_path / f"r{i}.wav"
        rng = np.random.default_rng(i)
        duration = row.pop("_seconds", 0.1)
        rate = row.pop("_rate", 16000)
        n = int(duration * rate)
        if row.pop("_stereo", False):
            import scipy.io.wavfile

            scipy.io.wavfile.write(wav, rate, np.zeros((n, 2), dtype=np.int16))
        else:
            write_wav(wav, rng.uniform(-0.3, 0.3, n), rate)
        full = {"audio": f"r{i}.wav", "source_id": f"src{i}", "sample_rate_hz": rate}
        full.update(row)
        lines.append(json.dumps(full))
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestManifestAndIngest:
    def test_missing_vessel_type_is_hard_error(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug"}, {}])
        with pytest.raises(DataError, match="row 2"):
            load_manifest(path)

    def test_missing_wav_named(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug"}])
        (tmp_path / "r0.wav").unlink()
        with pytest.raises(DataError, match="r0.wav"):
            load_manifest(path)

    @pytest.mark.parametrize("rate", ["16k", 16000.5, "16000.0", [16000], float("inf")])
    def test_non_integer_sample_rate_names_the_row(self, tmp_path, rate):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug"}, {"vessel_type": "Tug", "sample_rate_hz": rate}])
        with pytest.raises(DataError, match="row 2: sample_rate_hz must be an integer"):
            load_manifest(path)

    @pytest.mark.parametrize("rate", [0, -16000, -16000.0, "-1"])
    def test_non_positive_sample_rate_names_the_row(self, tmp_path, rate):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug"}, {"vessel_type": "Tug", "sample_rate_hz": rate}])
        with pytest.raises(DataError, match="row 2: sample_rate_hz must be positive"):
            load_manifest(path)

    @pytest.mark.parametrize("field, value", [("source_id", None), ("source_id", ""), ("vessel_type", ""),
                                              ("sample_rate_hz", None), ("audio", "")])
    def test_empty_required_field_is_missing(self, tmp_path, field, value):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug"}, {"vessel_type": "Tug", field: value}])
        with pytest.raises(DataError, match=f"row 2: missing required field '{field}'"):
            load_manifest(path)

    @pytest.mark.parametrize("source_id", [0, 1, "0"], ids=["int-0", "int-1", "str-0"])
    def test_falsy_source_id_is_present(self, tmp_path, source_id):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug", "source_id": source_id}])
        assert load_manifest(path).records[0].source_id == str(source_id)

    @pytest.mark.parametrize("rate", [16000, 16000.0, "16000", " 16000 "])
    def test_integral_sample_rate_accepted(self, tmp_path, rate):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug", "sample_rate_hz": rate}])
        assert load_manifest(path).records[0].sample_rate_hz == 16000

    def test_row_becomes_one_annotation(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug", "location": "C:\\data\\x", "wind": "calm"}])
        record = load_manifest(path).records[0]
        assert record.annotation == AnnotationRecord("Tug", location="C:\\data\\x", wind="calm")
        assert record.vessel_type == "Tug"

    def test_conflicting_types_for_one_source(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug", "source_id": "x"},
                                         {"vessel_type": "RORO", "source_id": "x"}])
        with pytest.raises(DataError, match="conflicting"):
            load_manifest(path)

    def test_stereo_rejected_with_filename(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug", "_stereo": True}])
        cfg = tiny_run_config()
        with pytest.raises(DataError, match="r0.wav"):
            ingest(path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)

    def test_missing_wind_still_yields_sentence(self, tmp_path):
        path = _write_dataset(
            tmp_path,
            [{"vessel_type": "Tug", "distance": "close"}, {"vessel_type": "RORO", "wind": "windy"}],
        )
        cfg = tiny_run_config()
        dataset, _ = ingest(path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)
        tug = [s for s in dataset.samples if s.vessel_type == "Tug"]
        assert tug and all("wind" not in s.sentence for s in tug)
        assert all(s.sentence.endswith(".") for s in dataset.samples)

    def test_resampling_path(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug", "_rate": 32000, "_seconds": 0.2}])
        cfg = tiny_run_config()
        dataset, _ = ingest(path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)
        # 0.2 s at 32 kHz resamples to 3200 samples: four 0.05-s windows of 800
        assert [len(s.segment.samples) for s in dataset.samples] == [800] * 4

    def test_spectrogram_cached_per_sample(self, tmp_path):
        path = _write_dataset(tmp_path, [{"vessel_type": "Tug"}])
        cfg = tiny_run_config()
        dataset, _ = ingest(path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)
        first = dataset.spectrogram(dataset.samples[0])
        assert first.kind == "stft" and first.grid.ndim == 2
        assert dataset.spectrogram(dataset.samples[0]) is first


def test_split_by_fold_disjoint(tmp_path):
    rows = [{"vessel_type": "Tug" if i % 2 else "RORO"} for i in range(8)]
    path = _write_dataset(tmp_path, rows)
    cfg = tiny_run_config()
    dataset, manifest = ingest(path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)
    folds = make_folds(manifest, 4, 0)
    train, test = dataset.split_by_fold(folds, 2)
    assert train.source_ids().isdisjoint(test.source_ids())
    assert len(train.samples) + len(test.samples) == len(dataset.samples)
    for fold in (-1, 4):
        with pytest.raises(ConfigError, match=f"fold {fold} is out of range"):
            dataset.split_by_fold(folds, fold)


def test_fewer_than_two_folds_rejected():
    for k in (0, 1):
        with pytest.raises(ConfigError, match="at least 2 folds"):
            make_folds(_manifest(["A"] * 4), k=k, seed=0)


def test_stratified_subset_keeps_every_class(tmp_path):
    rows = [{"vessel_type": t} for t in ["A"] * 6 + ["B"] * 6 + ["C"] * 2]
    path = _write_dataset(tmp_path, rows)
    cfg = tiny_run_config()
    dataset, _ = ingest(path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)
    sub = stratified_source_subset(dataset, 0.34, seed=1)
    assert set(sub.vessel_types()) == {"A", "B", "C"}
    assert len(sub.source_ids()) == 2 + 2 + 1


def test_stratified_subset_pinned(tmp_path):
    # which of the 72 sources are kept, in sorted source-id order, per (fraction, seed)
    expected = {
        (0.1, 0): "000010000000000000100000001000000000010000000000100000000000000100000000",
        (0.1, 1): "010000000000000000000100000000000010000000100000100000000000000001000000",
        (0.1, 2): "000000000000000000001010010000010000000000000000001000010000000000000000",
        (0.5, 0): "001110101011000000101111011010010001011000111011110011011010001110001010",
        (0.5, 1): "011000010001100111001111100100110110010101101001100101010001100111001110",
        (0.5, 2): "001000110001101010111011011101111001110001100000001100011010011110111000",
    }
    manifest = load_manifest(synth_generate(three_class_spec(seed=0), tmp_path))
    samples = [TrainSample(AudioSegment(np.zeros(1)), "", r.source_id, r.annotation)
               for r in manifest.records]
    dataset = Dataset(samples, tiny_run_config().preprocess)
    sources = sorted(dataset.source_ids())
    for (fraction, seed), kept in expected.items():
        chosen = stratified_source_subset(dataset, fraction, seed).source_ids()
        assert "".join(str(int(s in chosen)) for s in sources) == kept
