import json
from dataclasses import replace

import numpy as np
import pytest

from t2vad import detect
from t2vad.autoenc import embed, recon_score, train
from t2vad.persist import (ChecksumError, SchemaError, atomic_write_json, decode_array,
                           encode_array, load_corpus, load_detector, load_model,
                           load_report, load_testsuite, save_corpus, save_detector,
                           save_model, save_testsuite)


def test_array_codec_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4, 5))
    np.testing.assert_array_equal(decode_array(encode_array(a)), a)


def test_corpus_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(path, small_corpus)
    loaded = load_corpus(path)
    assert loaded.train_idx == small_corpus.train_idx
    assert loaded.test_idx == small_corpus.test_idx
    for a, b in zip(loaded.windows, small_corpus.windows):
        assert np.array_equal(a.data, b.data)
        assert a.tags == b.tags and a.label == b.label and a.origin == b.origin


def test_model_roundtrip_embeddings_bit_identical(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    loaded, calib = load_model(path)
    assert calib is None
    for w in small_e2e["corpus"].test_windows[:10]:
        np.testing.assert_array_equal(embed(loaded, w), embed(small_e2e["t2v_model"], w))


def test_model_roundtrip_with_calibration(tmp_path, small_e2e):
    path = tmp_path / "recon.json"
    save_model(path, small_e2e["recon_model"], small_e2e["calib"])
    loaded, calib = load_model(path)
    w = small_e2e["corpus"].test_windows[0]
    assert recon_score(loaded, w, calib) == recon_score(
        small_e2e["recon_model"], w, small_e2e["calib"])


def test_model_header_is_human_readable(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    doc = json.loads(path.read_text())
    assert doc["variant"] == "t2v"
    assert doc["config"]["k"] == 7
    assert doc["n"] == 100 and doc["f"] == 6
    assert isinstance(doc["loss_curve"], list)   # no decoding needed


def test_truncated_file_fails_cleanly(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ChecksumError):
        load_model(path)


def test_corrupted_payload_fails_checksum(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(path, small_corpus)
    doc = json.loads(path.read_text())
    payload = doc["windows"]["payload"]["data"]
    doc["windows"]["payload"]["data"] = payload[:-8] + "AAAAAAA="
    path.write_text(json.dumps(doc))
    with pytest.raises(ChecksumError, match="checksum"):
        load_corpus(path)


def test_wrong_kind_rejected(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(path, small_corpus)
    with pytest.raises(SchemaError, match="expected a model"):
        load_model(path)


def test_version_mismatch_rejected(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(path, small_corpus)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="schema version"):
        load_corpus(path)


def test_testsuite_roundtrip(tmp_path, small_e2e):
    path = tmp_path / "suite.json"
    save_testsuite(path, small_e2e["suite"])
    loaded = load_testsuite(path)
    for key, windows in small_e2e["suite"].sets.items():
        for a, b in zip(loaded.sets[key], windows):
            assert np.array_equal(a.data, b.data)
            assert a.tags == b.tags and a.label == b.label


@pytest.mark.parametrize("kind", detect.KINDS)
def test_detector_roundtrip_scores_bit_identical(tmp_path, small_e2e, kind):
    model = small_e2e["detectors"][kind]
    path = tmp_path / f"det_{kind}.json"
    save_detector(path, model)
    loaded = load_detector(path)
    rng = np.random.default_rng(1)
    probes = rng.normal(size=(5, len(model.scaler_mean)))
    np.testing.assert_array_equal(detect.score_many(loaded, probes),
                                  detect.score_many(model, probes))
    assert loaded.threshold == model.threshold


def test_loaded_model_layers_train_through_the_flat_vector(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    loaded, _ = load_model(path)
    before = [arr.copy() for layer in loaded.stack.layers for arr in layer.params().values()]
    one_step = replace(loaded.config, epochs=1, batch=len(small_e2e["corpus"].train_windows))
    train(loaded, small_e2e["corpus"].train_windows, one_step)
    after = [arr for layer in loaded.stack.layers for arr in layer.params().values()]
    assert all(np.shares_memory(arr, loaded.stack.params) for arr in after)
    assert all(not np.array_equal(a, b) for a, b in zip(before, after))


def rewrite(path, edit):
    """Apply `edit` to the stored document and re-checksum it."""
    doc = json.loads(path.read_text())
    edit(doc)
    atomic_write_json(str(path), doc)


def test_non_object_document_is_a_schema_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[]")
    with pytest.raises(SchemaError, match="JSON object"):
        load_report(path)


def test_unknown_detector_kind_is_a_schema_error(tmp_path, small_e2e):
    path = tmp_path / "det.json"
    save_detector(path, small_e2e["detectors"]["lof"])
    rewrite(path, lambda doc: doc.update(detector="bogus"))
    with pytest.raises(SchemaError, match="unknown detector kind 'bogus'"):
        load_detector(path)


def test_model_with_a_flatten_layer_is_a_schema_error(tmp_path, small_e2e):
    # the t2v AE used to run t2v -> flatten -> reshape -> conv
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    old_layers = [{"kind": "flatten", "hyperparams": {}, "params": {}},
                  {"kind": "reshape", "hyperparams": {"n": 100, "k": 7}, "params": {}}]

    def insert_old_layers(doc):
        doc["layers"][1:1] = old_layers

    rewrite(path, insert_old_layers)
    with pytest.raises(SchemaError, match="unknown layer kind 'flatten'"):
        load_model(path)


@pytest.mark.parametrize("section", ["hyperparams", "params"])
def test_layer_doc_with_an_unknown_parameter_name_is_a_schema_error(
        tmp_path, small_e2e, section):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    extra = 3 if section == "hyperparams" else encode_array(np.zeros(2))
    rewrite(path, lambda doc: doc["layers"][1][section].update(bogus=extra))
    with pytest.raises(SchemaError, match="bogus"):
        load_model(path)


def test_layer_doc_missing_a_parameter_is_a_schema_error(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    rewrite(path, lambda doc: doc["layers"][0]["params"].pop("w0"))
    with pytest.raises(SchemaError, match="w0"):
        load_model(path)
