import base64
import binascii
import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2vad import detect
from t2vad.autoenc import embed_many, score_components_many, train
from t2vad.cli import main
from t2vad.evaluate import format_report_table, run_benchmark, score_table
from t2vad.persist import (CHUNK, FORMS, ChecksumError, Either, SchemaError, atomic_write_json,
                           decode_array, encode_array, load_corpus, load_detector, load_model,
                           load_report, load_testsuite, save_corpus, save_detector,
                           save_model, save_report, save_testsuite)
from t2vad.persist import _base64_pieces

STEP = CHUNK // 3 * 4       # base64 characters decoded at a time


def test_array_codec_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4, 5))
    np.testing.assert_array_equal(decode_array(encode_array(a)), a)


@pytest.mark.parametrize("size", [0, 1, 2, 3, CHUNK // 8 - 1, CHUNK // 8, CHUNK // 8 + 1,
                                  2 * CHUNK // 8 + 5])
def test_array_codec_roundtrip_across_chunk_boundaries(size):
    a = np.random.default_rng(size).normal(size=(size, 1))
    decoded = decode_array(encode_array(a))
    assert np.array_equal(decoded, a) and decoded.dtype == np.float64
    assert decoded.flags.writeable and decoded.flags.c_contiguous


@pytest.mark.parametrize("block, match", [
    ([1.0], "field 'array' is not an object"),
    ({"data": ""}, "field 'array.shape' is missing"),
    ({"shape": [-1], "data": ""}, r"field 'array\.shape' is \[-1\], not a list of non-negative"),
    ({"shape": [1], "data": "AA=="}, "field 'array.data' holds 1 bytes, not the 8"),
])
def test_a_bad_array_block_outside_a_file_is_named_array(block, match):
    with pytest.raises(SchemaError, match=match):
        decode_array(block)


# '=' after a whole group: b64decode(validate=True) skips it, a canonical payload has none
EXCESS_PADDING = ("AAAA=", "AAAA==", "AAAA===")


def b64decode_strict(data: str):
    """`base64.b64decode(data, validate=True)`, or None where it raises."""
    try:
        return base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError):
        return None


@pytest.mark.parametrize("data", [
    "", "AA==", "AAA=", "AAAA", "AB==", "A", "AA", "AAA", "AAAAA", "A===", "====", "==",
    *EXCESS_PADDING,
    "AA=A", "A=AA", "AA==AAAA", "AAA!", "AA-_", "AAAé", "AA A", "AA\nA", "!!!!AAAA",
    "AAAA\n\n\n\n", "AA==" + "A" * (STEP - 4),
    "A" * STEP + "AA==", "A" * (STEP - 1) + "=" + "AAAA", "A" * STEP + "=AAA",
    "A" * (STEP - 2) + "==" + "AAAA", "A" * (STEP - 4) + "AA==" + "AAAA", "A" * (2 * STEP),
    "A" * (STEP + 3) + "!",
])
def test_chunked_decoding_is_never_laxer_than_b64decode_validate(data):
    expected = b64decode_strict(data)
    if expected is None or data in EXCESS_PADDING:
        with pytest.raises(ValueError):
            b"".join(_base64_pieces(data))
    else:
        assert b"".join(_base64_pieces(data)) == expected


@settings(max_examples=500, deadline=None)
@given(data=st.text(alphabet="AB+/=!-\n é", max_size=14))
def test_chunked_decoding_agrees_with_b64decode_validate_on_short_strings(data):
    try:
        decoded = b"".join(_base64_pieces(data))
    except ValueError:
        decoded = None
    excess_padding = data.endswith("=") and len(data.rstrip("=")) % 4 == 0
    assert decoded == (None if excess_padding else b64decode_strict(data))


def test_decoding_an_array_peaks_below_one_and_a_quarter_payloads(traced_peak):
    a = np.random.default_rng(4).normal(size=1 << 20)       # an 8 MiB payload
    block = encode_array(a)
    assert traced_peak(decode_array, block) < 1.25 * a.nbytes


def test_corpus_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(path, small_corpus)
    loaded = load_corpus(path)
    assert loaded.train_idx == small_corpus.train_idx
    assert loaded.test_idx == small_corpus.test_idx
    assert loaded.windows.data.tobytes() == small_corpus.windows.data.tobytes()
    assert loaded.windows.tags == small_corpus.windows.tags
    assert loaded.windows.origins == small_corpus.windows.origins
    assert loaded.provenance == small_corpus.provenance


def test_model_roundtrip_embeddings_bit_identical(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    loaded, calib = load_model(path)
    assert calib is None
    for w in small_e2e["corpus"].test_windows.data[:10]:
        np.testing.assert_array_equal(embed_many(loaded, w[None]),
                                      embed_many(small_e2e["t2v_model"], w[None]))


def test_model_roundtrip_with_calibration(tmp_path, small_e2e):
    path = tmp_path / "recon.json"
    save_model(path, small_e2e["recon_model"], small_e2e["calib"])
    loaded, calib = load_model(path)
    fitted = small_e2e["calib"]
    assert (calib.kind, calib.state, calib.threshold, calib.config) == \
        (fitted.kind, fitted.state, fitted.threshold, fitted.config)
    assert calib.scaler_mean.tobytes() == fitted.scaler_mean.tobytes()
    assert calib.scaler_std.tobytes() == fitted.scaler_std.tobytes()
    w = small_e2e["corpus"].test_windows.data[:1]
    assert np.array_equal(
        detect.score_many(calib, score_components_many(loaded, w)),
        detect.score_many(small_e2e["calib"], score_components_many(small_e2e["recon_model"], w)))


def test_a_calibration_is_stored_as_a_detector_file_is(saved_artifacts):
    """recon.json's `calibration` holds a detector file's fields, less its header."""
    calibration = json.loads((saved_artifacts / "recon.json").read_bytes())["calibration"]
    detector = json.loads((saved_artifacts / "det.lof.json").read_bytes())
    assert sorted(calibration) == sorted(set(detector) - {"checksum", "kind", "schema_version"})
    assert (calibration["detector"], calibration["state"]) == (detect.BASELINE, {})


def test_a_one_component_calibration_round_trips_and_scores_only_its_width(tmp_path,
                                                                           small_e2e):
    """A baseline fitted on one component loads with its (1,) scaler arrays;
    scoring the (m, 3) components with it is a ValueError, not the (1,)
    scaler broadcast over three columns."""
    recon = small_e2e["recon_model"]
    comps = score_components_many(recon, small_e2e["corpus"].train_windows.data)
    one = detect.fit([detect.BASELINE], comps[:, :1])[detect.BASELINE]
    path = tmp_path / "recon.json"
    save_model(path, recon, one)
    _, calib = load_model(path)
    assert calib.scaler_mean.shape == calib.scaler_std.shape == (1,)
    assert (calib.threshold, calib.config) == (one.threshold, one.config)
    assert detect.score_many(calib, comps[:, :1]).tobytes() == \
        detect.score_many(one, comps[:, :1]).tobytes()
    with pytest.raises(ValueError, match=rf"recon_ae input is \({len(comps)}, 3\), "
                                         r"its scaler \(1,\)"):
        detect.score_many(calib, comps)


@pytest.mark.parametrize("name", ["t2v_model", "recon_model"])
def test_model_file_with_the_dropped_fields_still_loads(tmp_path, small_e2e, name):
    """Older model files carry `val_dtw` and `encoder_strides`; the loader ignores them."""
    path = tmp_path / "model.json"
    save_model(path, small_e2e[name])
    doc = json.loads(path.read_text())
    assert "val_dtw" not in doc and "encoder_strides" not in doc
    strides = [2, 2] if name == "recon_model" else []
    rewrite(path, lambda d: d.update(val_dtw=None, encoder_strides=strides))
    loaded, _ = load_model(path)
    x = small_e2e["corpus"].test_windows.data
    assert np.array_equal(loaded.stack.forward(x), small_e2e[name].stack.forward(x))


def test_a_model_of_another_window_length_fails_before_its_network_is_built(
        tmp_path, saved_artifacts, traced_peak):
    """`n` is the window length: a crafted t2v.json with n = 4,000,000 is a
    SchemaError naming `n`, not a network of 28 million parameters built
    first and then refused."""
    path = tmp_path / "t2v.json"
    path.write_bytes((saved_artifacts / "t2v.json").read_bytes())
    rewrite(path, lambda d: d.update(n=4_000_000))

    def load():
        with pytest.raises(SchemaError, match="field 'n' is 4000000, not N = 100"):
            load_model(path)
    assert traced_peak(load) < 2 ** 20


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
    assert loaded.seed == small_e2e["suite"].seed
    assert loaded.windows.data.tobytes() == small_e2e["suite"].windows.data.tobytes()
    for key, rows in small_e2e["suite"].sets.items():
        test_set, read = small_e2e["suite"].windows.subset(rows), loaded.windows.subset(rows)
        assert np.array_equal(loaded.sets[key], rows)
        assert read.tags == test_set.tags
        assert read.origins == test_set.origins
        np.testing.assert_array_equal(read.anomalous, test_set.anomalous)


def test_testsuite_file_stores_the_distinct_windows_and_loads_back_to_them(tmp_path,
                                                                            small_e2e):
    suite = small_e2e["suite"]
    path = tmp_path / "suite.json"
    save_testsuite(path, suite)
    doc = json.loads(path.read_bytes())
    assert decode_array(doc["windows"]["payload"]).tobytes() == suite.windows.data.tobytes()
    assert doc["sets"] == {key: rows.tolist() for key, rows in suite.sets.items()}
    loaded = load_testsuite(path)
    assert loaded.windows.data.tobytes() == suite.windows.data.tobytes()
    assert loaded.windows.data.shape == suite.windows.data.shape
    for key, rows in suite.sets.items():
        assert np.array_equal(loaded.sets[key], rows)
    # the file lists the sets in sorted order, not KEYS order; saved again,
    # the loaded suite still writes the same bytes
    save_testsuite(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_window_block_labels_are_derived_from_the_tags(tmp_path, small_e2e):
    path = tmp_path / "suite.json"
    save_testsuite(path, small_e2e["suite"])
    block = json.loads(path.read_text())["windows"]
    assert block["labels"] == ["anomalous" if {"step", "spikes"} & set(tags) else "normal"
                               for tags in block["tags"]]
    assert "anomalous" in block["labels"] and "normal" in block["labels"]


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


@pytest.mark.parametrize("kind", detect.KINDS)
def test_detector_file_state_holds_exactly_the_stored_entries(tmp_path, small_e2e, kind):
    path = tmp_path / "det.json"
    save_detector(path, small_e2e["detectors"][kind])
    doc = json.loads(path.read_bytes())
    assert sorted(doc["state"]) == sorted(detect.KINDS[kind].stored)
    assert "train_scores" not in doc


# the write-only entries that files written before `Kind.stored` carry
OLD_STATE_ENTRIES = {
    "iforest": {}, "lof": {"train_lof": encode_array(np.ones(48))},
    "ocsvm": {"alpha_full": encode_array(np.full(48, 1 / 48)), "box": 0.4, "nu": 0.05},
    "ee": {"h": 30}, "deep_svdd": {"widths": [128, 32]},
}


@pytest.mark.parametrize("kind", detect.KINDS)
def test_an_older_detector_file_loads_and_scores_bitwise_like_the_fitted_model(
        tmp_path, small_e2e, kind):
    model = small_e2e["detectors"][kind]
    path = tmp_path / "det.json"
    save_detector(path, model)

    def add_old_entries(doc):
        doc["train_scores"] = encode_array(np.ones(48))
        doc["state"].update(OLD_STATE_ENTRIES[kind])

    rewrite(path, add_old_entries)
    loaded = load_detector(path)
    assert sorted(loaded.state) == sorted(detect.KINDS[kind].stored)
    emb = embed_many(small_e2e["t2v_model"], small_e2e["corpus"].windows.data)
    assert detect.score_many(loaded, emb).tobytes() == detect.score_many(model, emb).tobytes()


def set_first_nan(block):
    """An encoded array block whose first value is NaN."""
    value = decode_array(block)
    value.flat[0] = np.nan
    return encode_array(value)


@pytest.mark.parametrize("kind", detect.KINDS)
def test_a_non_finite_state_array_or_layer_parameter_is_a_schema_error(
        tmp_path, small_e2e, kind):
    """NaN in EE's `cov` or OCSVM's `alpha` scored every window NaN (read as
    normal), and NaN in LOF's `x` scored finite but wrong."""
    path = tmp_path / "det.json"
    save_detector(path, small_e2e["detectors"][kind])
    state = json.loads(path.read_text())["state"]
    blocks = [key for key, value in state.items() if isinstance(value, dict)]
    assert len(blocks) >= 2

    def poison(key):
        return lambda doc: doc["state"].update({key: set_first_nan(doc["state"][key])})

    for key in blocks:
        save_detector(path, small_e2e["detectors"][kind])
        rewrite(path, poison(key))
        with pytest.raises(SchemaError, match=f"field 'state.{key}' is not finite"):
            load_detector(path)


def test_loaded_model_layers_train_through_the_flat_vector(tmp_path, small_e2e):
    path = tmp_path / "model.json"
    save_model(path, small_e2e["t2v_model"])
    loaded, _ = load_model(path)
    before = [arr.copy() for layer in loaded.stack.layers for arr in layer.params().values()]
    loaded.config = replace(loaded.config, epochs=1,
                            batch=len(small_e2e["corpus"].train_windows))
    train(loaded, small_e2e["corpus"].train_windows.data)
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


def relabel_first_anomalous_window_normal(doc):
    labels = doc["windows"]["labels"]
    labels[labels.index("anomalous")] = "normal"


def set_first_row(value):
    return lambda d: d["sets"]["AN-6F"].__setitem__(0, value(d))


def per_set_blocks(doc):
    """Each set's window block: its payload, labels, tags and origins by position."""
    block = doc["windows"]
    windows = decode_array(block["payload"])
    return {key: {"payload": encode_array(windows[rows]),
                  **{field: [block[field][r] for r in rows]
                     for field in ("labels", "tags", "origins")}}
            for key, rows in doc["sets"].items()}


def per_set_payloads(doc):
    """The layout before the shared `windows` block: each set held its own payload."""
    doc["sets"] = per_set_blocks(doc)
    del doc["windows"]


def shared_payload_row_sets(doc):
    """The layout before the window block: a top-level payload of the distinct
    windows, and each set its rows beside its labels, tags and origins."""
    blocks = per_set_blocks(doc)
    for key, block in blocks.items():
        block["rows"] = doc["sets"][key]
        del block["payload"]
    doc["sets"], doc["windows"] = blocks, doc["windows"]["payload"]


def replace_payload(value):
    """Re-encode the window payload `a` as the array `value(a)`."""
    return lambda d: d["windows"].update(
        payload=encode_array(value(decode_array(d["windows"]["payload"]))))


# a payload whose shape and data agree, but not on (n, 100, F) windows
BAD_PAYLOADS = {"a-scalar": (lambda a: a[0, 0, 0], r"is \(\), not \(n, N, F\)"),
                "of-10-step-windows": (lambda a: a.reshape(len(a), 10, -1),
                                       r"field 'windows\.payload' is \(\d+, 10, \d+\), "
                                       r"not \(n, N, F\) with n = \d+, N = 100")}


# (artifact, mutation, message): each mutation, re-checksummed, is a SchemaError
WINDOW_FIELD_MUTATIONS = {
    "corpus-labels-entry-removed": ("corpus", lambda d: d["windows"]["labels"].pop(),
                                    "field 'windows.labels' holds 59 entries"),
    "corpus-windows-removed": ("corpus", lambda d: d.pop("windows"), "'windows'"),
    "corpus-tags-entry-5": ("corpus", lambda d: d["windows"]["tags"].__setitem__(0, 5),
                            "field 'windows.tags.0' is not a list"),
    "corpus-tags-entry-holds-an-int": (
        "corpus", lambda d: d["windows"]["tags"].__setitem__(0, [5]),
        "field 'windows.tags.0.0' is not a string"),
    "corpus-origins-entry-not-a-string": (
        "corpus", lambda d: d["windows"]["origins"].__setitem__(2, None),
        "field 'windows.origins.2' is not a string"),
    "corpus-labels-not-a-list": ("corpus", lambda d: d["windows"].update(labels="normal"),
                                 "'windows.labels'"),
    "corpus-label-contradicts-tags": (
        "corpus", lambda d: d["windows"]["labels"].__setitem__(3, "anomalous"),
        "field 'windows.labels.3': label 'anomalous' inconsistent"),
    "corpus-float-split-train": (
        "corpus", lambda d: d["split"].update(train=[float(i) for i in d["split"]["train"]]),
        "field 'split.train.0' is not an integer"),
    "corpus-split-removed": ("corpus", lambda d: d.pop("split"), "'split'"),
    "suite-labels-entry-removed": ("testsuite", lambda d: d["windows"]["labels"].pop(),
                                   "field 'windows.labels' holds"),
    "suite-sets-removed": ("testsuite", lambda d: d.pop("sets"), "'sets'"),
    "suite-label-contradicts-tags": ("testsuite", relabel_first_anomalous_window_normal,
                                     "label 'normal' inconsistent"),
    "suite-windows-removed": ("testsuite", lambda d: d.pop("windows"), "'windows'"),
    "suite-of-the-per-set-payload-layout": ("testsuite", per_set_payloads, "'windows'"),
    "suite-of-the-shared-payload-row-sets-layout": ("testsuite", shared_payload_row_sets,
                                                    "'windows.payload' is missing"),
    "suite-windows-flattened": (
        "testsuite", lambda d: d["windows"]["payload"].update(
            shape=[math.prod(d["windows"]["payload"]["shape"])]),
        r"not \(n, N, F\)"),
    "suite-rows-removed": ("testsuite", lambda d: d["sets"].update({"A-4F": {}}),
                           "field 'sets.A-4F' is not a list"),
    "suite-rows-entry-a-float": ("testsuite", set_first_row(lambda d: 0.0),
                                 "field 'sets.AN-6F.0' is not an integer"),
    "suite-rows-entry-a-boolean": ("testsuite", set_first_row(lambda d: True),
                                   "field 'sets.AN-6F.0' is not an integer"),
    "suite-rows-entry-negative": ("testsuite", set_first_row(lambda d: -1),
                                  r"field 'sets\.AN-6F\.0' is -1, not in \[0, \d+\)"),
    "suite-rows-entry-at-the-distinct-count": (
        "testsuite", set_first_row(lambda d: d["windows"]["payload"]["shape"][0]),
        r"field 'sets\.AN-6F\.0' is (\d+), not in \[0, \1\)"),
    "suite-origins-shorter-than-windows": ("testsuite", lambda d: d["windows"]["origins"].pop(),
                                           "field 'windows.origins' holds"),
    "suite-seed-a-boolean": ("testsuite", lambda d: d.update(seed=False), "'seed'"),
    "corpus-split-test-emptied": ("corpus", lambda d: d["split"].update(test=[]),
                                  "field 'split': split must be disjoint and exhaustive"),
    "suite-set-removed": ("testsuite", lambda d: d["sets"].pop("AN-4F"),
                          r"field 'sets': missing test sets: \['AN-4F'\]"),
    "suite-windows-data-not-base64": (
        "testsuite", lambda d: d["windows"]["payload"].update(data="x"),
        "field 'windows.payload.data' is not base64"),
    **{f"{prefix}-payload-{name}": (kind, replace_payload(value), message)
       for kind, prefix in (("corpus", "corpus"), ("testsuite", "suite"))
       for name, (value, message) in BAD_PAYLOADS.items()},
}


@pytest.fixture(scope="module")
def saved_artifacts(tmp_path_factory, small_e2e):
    """Corpus, suite, both models and the five detectors, written once."""
    d = tmp_path_factory.mktemp("artifacts")
    save_corpus(d / "corpus.json", small_e2e["corpus"])
    save_testsuite(d / "testsuite.json", small_e2e["suite"])
    save_model(d / "t2v.json", small_e2e["t2v_model"])
    save_model(d / "recon.json", small_e2e["recon_model"], small_e2e["calib"])
    for kind, model in small_e2e["detectors"].items():
        save_detector(d / f"det.{kind}.json", model)
    save_report(d / "report.json", run_benchmark(
        small_e2e["suite"], small_e2e["t2v_model"], small_e2e["recon_model"],
        {detect.BASELINE: small_e2e["calib"], **small_e2e["detectors"]}, "digest",
        {"master_seed": 0}))
    return d


@pytest.mark.parametrize("name", WINDOW_FIELD_MUTATIONS)
def test_bad_window_or_split_field_is_a_schema_error_and_exit_1(
        tmp_path, saved_artifacts, capsys, name):
    kind, mutate, message = WINDOW_FIELD_MUTATIONS[name]
    path = tmp_path / f"{kind}.json"
    path.write_bytes((saved_artifacts / f"{kind}.json").read_bytes())
    rewrite(path, mutate)
    loader = load_corpus if kind == "corpus" else load_testsuite
    with pytest.raises(SchemaError, match=message):
        loader(path)

    d = saved_artifacts
    if kind == "corpus":
        argv = ["train", "--corpus", path, "--epochs", 1, "--out", tmp_path / "model.json"]
    else:
        argv = ["evaluate", "--suite", path, "--t2v-model", d / "t2v.json",
                "--recon-model", d / "recon.json", "--out", tmp_path / "report.json",
                "--detectors", *[d / f"det.{k}.json" for k in detect.KINDS]]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err)


def state_form_mutations():
    """(kind, entry, case, edit of the state) for every stored entry of every
    kind: the entry removed, and by its form, an array with one axis more,
    or `true` or a string in place of a number or list."""
    for kind, spec in detect.KINDS.items():
        for key, form in spec.stored.items():
            yield kind, key, "removed", lambda state, key=key: state.pop(key)
            if isinstance(form, tuple):
                yield kind, key, "one-axis-more", lambda state, key=key: state.update(
                    {key: encode_array(decode_array(state[key])[..., None])})
            else:
                for case, value in (("true", True), ("a-string", "many")):
                    yield kind, key, case, lambda state, key=key, value=value: state.update(
                        {key: value})


STATE_FORM_MUTATIONS = {f"{kind}-{key}-{case}": (kind, key, edit)
                        for kind, key, case, edit in state_form_mutations()}


@pytest.mark.parametrize("name", STATE_FORM_MUTATIONS)
def test_a_stored_entry_out_of_its_form_is_a_schema_error_naming_it(
        tmp_path, saved_artifacts, name):
    """The diagnostics too: scoring never reads OCSVM's `iterations` or Deep
    SVDD's `loss_curve`, so only their forms keep `"many"` out of them."""
    kind, key, edit = STATE_FORM_MUTATIONS[name]
    path = tmp_path / "det.json"
    path.write_bytes((saved_artifacts / f"det.{kind}.json").read_bytes())
    rewrite(path, lambda doc: edit(doc["state"]))
    with pytest.raises(SchemaError, match=rf"field 'state\.{key}' is "):
        load_detector(path)


def test_a_baseline_model_is_no_detector_file(tmp_path, small_e2e):
    """The baseline is stored in its model's `calibration`; a detector file
    of it would not load."""
    with pytest.raises(ValueError, match="'recon_ae'"):
        save_detector(tmp_path / "det.json", small_e2e["calib"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("file, mutate, field", [
    ("recon.json", lambda d: d["calibration"].pop("detector"), "calibration.detector"),
    ("det.lof.json", lambda d: d.pop("state"), "state"),
])
def test_a_schema_error_in_a_detector_document_names_its_file_and_block(
        tmp_path, saved_artifacts, capsys, file, mutate, field):
    d = saved_artifacts
    path = tmp_path / file
    path.write_bytes((d / file).read_bytes())
    rewrite(path, mutate)
    detectors = [path if f"det.{k}.json" == file else d / f"det.{k}.json" for k in detect.KINDS]
    argv = ["evaluate", "--suite", d / "testsuite.json", "--t2v-model", d / "t2v.json",
            "--recon-model", path if file == "recon.json" else d / "recon.json",
            "--out", tmp_path / "report.json", "--detectors", *detectors]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: field '{field}' ")


def test_unmutated_artifacts_run_through_the_cli(tmp_path, saved_artifacts):
    d = saved_artifacts
    assert main(["evaluate", "--suite", str(d / "testsuite.json"),
                 "--t2v-model", str(d / "t2v.json"), "--recon-model", str(d / "recon.json"),
                 "--out", str(tmp_path / "report.json"), "--detectors",
                 *[str(d / f"det.{k}.json") for k in detect.KINDS]]) == 0


def set_first_shape_entry(value):
    return lambda d: d["windows"]["payload"]["shape"].__setitem__(0, value)


def set_payload_character(index, char):
    """Put `char` at `index` of the corpus payload's base64 string."""
    def edit(doc):
        data = doc["windows"]["payload"]["data"]
        assert index < len(data) - 4       # inside the payload, before its last group
        doc["windows"]["payload"]["data"] = data[:index] + char + data[index + 1:]
    return edit


def set_forest_entry(key, index, value):
    """Re-encode one iforest state array with `value` at `index`."""
    def edit(doc):
        arr = decode_array(doc["state"][key]).copy()
        arr[index] = value
        doc["state"][key] = encode_array(arr)
    return edit


def shorten_state_array(key):
    return lambda d: d["state"].update({key: encode_array(decode_array(d["state"][key])[:-1])})


def replace_params(value):
    """Re-encode a model's parameter vector `p` as the array `value(p)`."""
    return lambda d: d.update(params=encode_array(value(decode_array(d["params"]))))


def per_layer_params(block):
    """A network as the files before `params` stored it: a list of layer
    documents (kind, hyperparameters, parameter arrays), here one."""
    return [{"kind": "dense", "hyperparams": {}, "params": {"weight": block}}]


def per_layer_model(doc):
    doc["layers"] = per_layer_params(doc.pop("params"))


def preorder_forest(doc):
    """The forest as files stored it before the breadth-first layout: preorder
    node arrays with a right-child pointer and each tree's root, here one
    tree of one split."""
    doc["state"] = {"feature": encode_array(np.array([0.0, -1, -1])),
                    "threshold": encode_array(np.array([0.5, 0, 0])),
                    "right": encode_array(np.array([2.0, -1, -1])),
                    "path": encode_array(np.array([0.0, 1, 1])),
                    "roots": encode_array(np.zeros(1)), "subsample": doc["state"]["subsample"]}


def nested_trees(doc):
    """The pre-flat-array iforest state: nested JSON tree lists."""
    doc["state"] = {"trees": [["leaf", 1], ["split", 0, 0.5, ["leaf", 2], ["leaf", 1]]],
                    "subsample": doc["state"]["subsample"]}


def set_metric(metric, value):
    """Set one report cell's `metric` to `value`."""
    return lambda d: d["results"]["t2v_lof"]["AN-4F"].update({metric: value})


# the nine detector settings that became module constants, at their old values
OLD_CONFIG_SETTINGS = {
    "iforest_subsample": 256, "ocsvm_gamma": None, "ocsvm_tol": 1e-4,
    "ocsvm_max_passes": 10_000, "ee_support_fraction": None, "svdd_widths": [128, 32],
    "svdd_batch": 64, "svdd_lr": 1e-3, "svdd_weight_decay": 1e-4,
}


# (file, mutation, message): each mutation of a model, detector or array
# block, re-checksummed, is a SchemaError when loaded and exit 1 in the CLI
ARTIFACT_FIELD_MUTATIONS = {
    "corpus-payload-data-removed": ("corpus.json", lambda d: d["windows"]["payload"].pop("data"),
                                    "field 'windows.payload.data' is missing"),
    "corpus-payload-shape-removed": (
        "corpus.json", lambda d: d["windows"]["payload"].pop("shape"),
        "field 'windows.payload.shape' is missing"),
    "corpus-payload-shape-too-short": ("corpus.json", set_first_shape_entry(5),
                                       "field 'windows.payload.data' holds .* bytes"),
    "corpus-payload-shape-float": ("corpus.json", set_first_shape_entry(60.0),
                                   "field 'windows.payload.shape.0' is not an integer"),
    "corpus-payload-data-padding-mid-string": (
        "corpus.json", set_payload_character(1001, "="),
        "field 'windows.payload.data' is not base64"),
    "corpus-payload-data-padding-ending-a-chunk": (
        "corpus.json", set_payload_character(STEP - 1, "="),
        "field 'windows.payload.data' is not base64"),
    "corpus-payload-data-padding-starting-a-chunk": (
        "corpus.json", set_payload_character(STEP, "="),
        "field 'windows.payload.data' is not base64"),
    "corpus-payload-data-non-alphabet-character": (
        "corpus.json", set_payload_character(2 * STEP + 7, "-"),
        "field 'windows.payload.data' is not base64"),
    "corpus-payload-data-non-ascii-character": (
        "corpus.json", set_payload_character(7, "é"), "field 'windows.payload.data' is not base64"),
    "corpus-payload-data-one-group-short": (
        "corpus.json", lambda d: d["windows"]["payload"].update(
            data=d["windows"]["payload"]["data"][:-4]),
        r"field 'windows\.payload\.data' holds 287997 bytes, not the 288000"),
    "t2v-params-removed": ("t2v.json", lambda d: d.pop("params"), "'params'"),
    "t2v-of-the-per-layer-format": ("t2v.json", per_layer_model, "'params'"),
    "t2v-config-removed": ("t2v.json", lambda d: d.pop("config"), "'config'"),
    "t2v-config-unknown-key": ("t2v.json", lambda d: d["config"].update(bogus=1), "bogus"),
    "t2v-n-a-string": ("t2v.json", lambda d: d.update(n="100"), "'n'"),
    "t2v-n-zero": ("t2v.json", lambda d: d.update(n=0), "field 'n' is 0, not N = 100"),
    "t2v-f-negative": ("t2v.json", lambda d: d.update(f=-1), "field 'f' is -1, not positive"),
    "t2v-params-one-entry-short": (
        "t2v.json", replace_params(lambda p: p[:-1]),
        r"field 'params' is \(3099,\), the network its config builds has \(3100,\)"),
    "t2v-params-a-matrix": ("t2v.json", replace_params(lambda p: p[None]),
                            r"field 'params' is \(1, \d+\), not \(params,\)"),
    "t2v-params-data-not-base64": (
        "t2v.json", lambda d: d["params"].update(data="A" * 7 + "!"),
        "field 'params.data' is not base64"),
    "t2v-config-of-another-network": (
        "t2v.json", lambda d: d["config"].update(k=12, decoder_layers=4),
        "the network its config builds has"),
    "t2v-config-filters-zero": (
        "t2v.json", lambda d: d["config"].update(filters=0),
        "field 'config': filters, kernel size and encoder stride must be >= 1"),
    "t2v-config-kernel-minus-1": (
        "t2v.json", lambda d: d["config"].update(kernel=-1),
        "field 'config': filters, kernel size and encoder stride must be >= 1"),
    "recon-of-the-per-layer-format": ("recon.json", per_layer_model, "'params'"),
    "recon-params-one-entry-long": (
        "recon.json", replace_params(lambda p: np.append(p, 0.0)),
        r"field 'params' is \(3575,\), the network its config builds has \(3574,\)"),
    "recon-config-encoder-layers-6": (
        "recon.json", lambda d: d["config"].update(encoder_layers=6),
        "field 'config': window length 100 not divisible by total stride 64"),
    "recon-config-encoder-stride-zero": (
        "recon.json", lambda d: d["config"].update(encoder_stride=0),
        "field 'config': filters, kernel size and encoder stride must be >= 1"),
    "recon-calibration-means-removed": (
        "recon.json", lambda d: d["calibration"].pop("scaler_mean"),
        "field 'calibration.scaler_mean' is missing"),
    "recon-calibration-threshold-removed": (
        "recon.json", lambda d: d["calibration"].pop("threshold"),
        "field 'calibration.threshold' is missing"),
    "recon-calibration-means-broadcastable": (
        "recon.json", lambda d: d["calibration"].update(scaler_mean=encode_array(np.zeros(1))),
        r"field 'calibration\.scaler_std' is \(3,\), not \(dim,\) with dim = 1"),
    "recon-calibration-threshold-nan": (
        "recon.json", lambda d: d["calibration"].update(threshold=math.nan),
        "field 'calibration.threshold' is not a finite number"),
    "recon-calibration-threshold-quantile-one": (
        "recon.json", lambda d: d["calibration"]["config"].update(threshold_quantile=1.0),
        r"field 'calibration\.config': threshold quantile must be in \(0, 1\)"),
    "recon-calibration-of-a-detector-kind": (
        "recon.json", lambda d: d["calibration"].update(detector="lof"),
        "unknown detector kind 'lof'"),
    "detector-kind-the-baseline": ("det.lof.json", lambda d: d.update(detector="recon_ae"),
                                   "unknown detector kind 'recon_ae'"),
    "detector-scaler-std-shape-removed": (
        "det.deep_svdd.json", lambda d: d["scaler_std"].pop("shape"),
        "field 'scaler_std.shape' is missing"),
    "detector-state-removed": ("det.lof.json", lambda d: d.pop("state"), "'state'"),
    "detector-state-center-shape-removed": (
        "det.deep_svdd.json", lambda d: d["state"]["center"].pop("shape"),
        "field 'state.center.shape' is missing"),
    "detector-threshold-a-string": ("det.ocsvm.json", lambda d: d.update(threshold="0.5"),
                                    "'threshold'"),
    "detector-pca-basis-removed-from-the-ee-state": (
        "det.ee.json", lambda d: d["state"].pop("pca_basis"),
        "field 'state.pca_basis' is missing"),
    "detector-center-removed-from-the-deep-svdd-state": (
        "det.deep_svdd.json", lambda d: d["state"].pop("center"),
        "field 'state.center' is missing"),
    "detector-layers-removed-from-the-deep-svdd-state": (
        "det.deep_svdd.json", lambda d: d["state"].pop("layers"),
        "field 'state.layers' is missing"),
    "detector-kdist-removed-from-the-lof-state": (
        "det.lof.json", lambda d: d["state"].pop("kdist"), "field 'state.kdist' is missing"),
    "detector-k-removed-from-the-lof-state": (
        "det.lof.json", lambda d: d["state"].pop("k"), "field 'state.k' is missing"),
    "detector-rho-removed-from-the-ocsvm-state": (
        "det.ocsvm.json", lambda d: d["state"].pop("rho"), "field 'state.rho' is missing"),
    "detector-gamma-negative-in-the-ocsvm-state": (
        "det.ocsvm.json", lambda d: d["state"].update(gamma=-1),
        r"field 'state': ocsvm gamma is out of range \(want gamma > 0\)"),
    "detector-alpha-shorter-than-the-ocsvm-support-vectors": (
        "det.ocsvm.json", shorten_state_array("alpha"),
        r"field 'state\.alpha' is \(\d+,\), not \(s,\) with s = \d+"),
    "detector-config-unknown-key": (
        "det.iforest.json", lambda d: d["config"].update(bogus=1), "bogus"),
    "detector-config-threshold-quantile-one": (
        "det.lof.json", lambda d: d["config"].update(threshold_quantile=1.0),
        r"field 'config': threshold quantile must be in \(0, 1\)"),
    "detector-config-of-an-old-file": (
        "det.deep_svdd.json", lambda d: d["config"].update(OLD_CONFIG_SETTINGS),
        "field 'config.ee_support_fraction' is not a finite number"),
    "detector-config-with-a-retired-fit-setting": (
        "det.lof.json", lambda d: d["config"].update(lof_k=20),
        "field 'config': .*unexpected keyword argument 'lof_k'"),
    "detector-deep-svdd-params-one-entry-short": (
        "det.deep_svdd.json", shorten_state_array("layers"),
        r"deep_svdd state needs the 93696 parameters of a 700 -> 128 -> 32 net"),
    "detector-deep-svdd-center-one-entry-short": (
        "det.deep_svdd.json", shorten_state_array("center"), r"and a \(32,\) center"),
    "detector-deep-svdd-of-the-per-layer-format": (
        "det.deep_svdd.json",
        lambda d: d["state"].update(layers=per_layer_params(d["state"]["layers"])),
        "field 'state.layers' is not an object"),
    "detector-threshold-nan": ("det.ocsvm.json", lambda d: d.update(threshold=math.nan),
                               "field 'threshold' is not a finite number"),
    "detector-scaler-std-broadcastable": (
        "det.lof.json", lambda d: d.update(scaler_std=encode_array(np.ones(1))),
        r"field 'scaler_std' is \(1,\), not \(dim,\) with dim = \d+"),
    "detector-scaler-std-zero": (
        "det.ee.json", lambda d: d.update(scaler_std=encode_array(
            0 * decode_array(d["scaler_std"]))), "field 'scaler_std' is not positive"),
    "detector-threshold-a-boolean": ("det.ocsvm.json", lambda d: d.update(threshold=True),
                                     "'threshold'"),
    "detector-threshold-past-the-float-range": (
        "det.ocsvm.json", lambda d: d.update(threshold=10 ** 400),
        "field 'threshold' is not a finite number"),
    "detector-rho-past-the-float-range": (
        "det.ocsvm.json", lambda d: d["state"].update(rho=-10 ** 400),
        "field 'state.rho' is not a finite number"),
    "iforest-node-array-shorter": ("det.iforest.json", shorten_state_array("value"),
                                   r"field 'state\.value' is \(\d+,\), "
                                   r"not \(nodes,\) with nodes = \d+"),
    "iforest-no-room-for-a-tree": (
        "det.iforest.json", lambda d: d["state"].update(feature=encode_array(
            np.zeros(d["state"]["feature"]["shape"]))), "no room for a tree"),
    "iforest-feature-minus-2": ("det.iforest.json", set_forest_entry("feature", 0, -2),
                                "out of range"),
    "iforest-one-split-and-one-leaf": (      # nodes == 2 * splits: tree 0's children are 2, 3
        "det.iforest.json", lambda d: d["state"].update(
            feature=encode_array(np.array([0.0, -1])), value=encode_array(np.array([0.5, 1]))),
        "no room for a tree"),
    "iforest-feature-at-the-dimension": (
        "det.iforest.json", lambda d: set_forest_entry(
            "feature", 0, d["scaler_mean"]["shape"][0])(d), "out of range"),
    "iforest-feature-not-an-integer": ("det.iforest.json", set_forest_entry("feature", 0, 0.25),
                                       "non-integer"),
    "iforest-subsample-one": ("det.iforest.json", lambda d: d["state"].update(subsample=1),
                              "subsample must be an integer >= 2"),
    "iforest-value-nan": ("det.iforest.json", set_forest_entry("value", 0, np.nan), "finite"),
    "iforest-last-leaf-value-negative": (       # the last node is always a leaf
        "det.iforest.json", set_forest_entry("value", -1, -5000.0), "leaf value is negative"),
    "iforest-value-removed": ("det.iforest.json", lambda d: d["state"].pop("value"),
                              "field 'state.value' is missing"),
    "iforest-preorder-layout": ("det.iforest.json", preorder_forest,
                                "field 'state.value' is missing"),
    "iforest-nested-trees": ("det.iforest.json", nested_trees,
                             "field 'state.feature' is missing"),
    "report-results-removed": ("report.json", lambda d: d.pop("results"), "'results'"),
    "report-cell-f1-removed": (
        "report.json", lambda d: d["results"]["t2v_lof"]["AN-4F"].pop("f1"),
        "field 'results.t2v_lof.AN-4F.f1' is missing"),
    "report-method-removed": ("report.json", lambda d: d["results"].pop("t2v_ee"),
                              "field 'results.t2v_ee' is missing"),
    "report-timestamp-a-number": ("report.json", lambda d: d.update(timestamp=5), "'timestamp'"),
    "report-composition-removed": ("report.json", lambda d: d.pop("composition"),
                                   "'composition'"),
    "report-composition-set-removed": (
        "report.json", lambda d: d["composition"].pop("AN-6F"),
        "field 'composition.AN-6F' is missing"),
    "report-composition-set-not-an-object": (
        "report.json", lambda d: d["composition"].update({"A-4F": 5}),
        "field 'composition.A-4F' is not an object"),
    "report-composition-n-a-float": (
        "report.json", lambda d: d["composition"]["A-6F"].update(n=150.0),
        "field 'composition.A-6F.n' is not an integer"),
    "report-composition-n-removed": (
        "report.json", lambda d: d["composition"]["A-6F"].pop("n"),
        "field 'composition.A-6F.n' is missing"),
    "report-composition-count-a-boolean": (
        "report.json", lambda d: d["composition"]["AN-4F"].update(noise_tagged=True),
        "field 'composition.AN-4F.noise_tagged' is not an integer"),
    "report-composition-anomalous-above-n": (
        "report.json", lambda d: d["composition"]["AN-6F"].update(
            anomalous=d["composition"]["AN-6F"]["n"] + 1),
        r"field 'composition\.AN-6F\.anomalous' is \d+, not in \[0, n = \d+\]"),
    "report-composition-noise-tagged-negative": (
        "report.json", lambda d: d["composition"]["A-4F"].update(noise_tagged=-1),
        r"field 'composition\.A-4F\.noise_tagged' is -1, not in \[0, n = \d+\]"),
    "report-seeds-value-a-boolean": (
        "report.json", lambda d: d["seeds"].update(master_seed=True),
        "field 'seeds.master_seed' is not an integer"),
    "report-seeds-value-a-float": (
        "report.json", lambda d: d["seeds"].update(master_seed=0.0),
        "field 'seeds.master_seed' is not an integer"),
    "report-seeds-value-a-string": (
        "report.json", lambda d: d["seeds"].update(master_seed="0"),
        "field 'seeds.master_seed' is not an integer"),
    # `t2vad report` formats every metric: one past float64's range would raise
    # an OverflowError there, and a NaN one would print "nan"
    **{f"report-{metric}-{name}": (
        "report.json", set_metric(metric, value),
        rf"field 'results\.t2v_lof\.AN-4F\.{metric}' is not a finite number")
       for metric in ("f1", "recall")
       for name, value in (("past-the-float-range", 10 ** 400), ("nan", math.nan))},
    "t2v-loss-curve-of-a-string-and-null": (
        "t2v.json", lambda d: d.update(loss_curve=["x", None]),
        r"field 'loss_curve\.0' is not a finite number"),
    "t2v-loss-curve-infinite": ("t2v.json", lambda d: d["loss_curve"].append(math.inf),
                                r"field 'loss_curve\.\d+' is not a finite number"),
    # the corpus header must give its payload's shape, a model's variant its config's
    "corpus-n-windows-one-short": (
        "corpus.json", lambda d: d.update(n_windows=d["n_windows"] - 1),
        "field 'n_windows' is 59, not n = 60"),
    "corpus-steps-not-the-window-length": ("corpus.json", lambda d: d.update(steps=50),
                                           "field 'steps' is 50, not N = 100"),
    "corpus-features-one-short": ("corpus.json", lambda d: d.update(features=5),
                                  "field 'features' is 5, not F = 6"),
    "corpus-features-removed": ("corpus.json", lambda d: d.pop("features"),
                                "field 'features' is missing"),
    "t2v-variant-not-the-config-variant": (
        "t2v.json", lambda d: d.update(variant="reconstruction"),
        "field 'variant' is 'reconstruction', not the config's 't2v'"),
}


def test_a_forest_whose_split_became_a_leaf_still_loads_and_scores(tmp_path, saved_artifacts):
    """Children are implicit, so a split made a leaf leaves its subtree
    unreachable, not dangling: the forest loads and scores finite values."""
    path = tmp_path / "det.iforest.json"
    path.write_bytes((saved_artifacts / "det.iforest.json").read_bytes())

    def root_made_a_leaf(doc):
        set_forest_entry("feature", 0, -1)(doc)
        set_forest_entry("value", 0, 1.0)(doc)        # c(2): no leaf value is negative
    rewrite(path, root_made_a_leaf)
    model = load_detector(path)
    assert model.state["feature"][0] == -1
    assert np.isfinite(detect.score_many(model, np.tile(model.scaler_mean, (3, 1)))).all()


@pytest.mark.parametrize("name", ARTIFACT_FIELD_MUTATIONS)
def test_bad_model_detector_or_array_field_is_a_schema_error_and_exit_1(
        tmp_path, saved_artifacts, capsys, name):
    file, mutate, message = ARTIFACT_FIELD_MUTATIONS[name]
    path = tmp_path / file
    path.write_bytes((saved_artifacts / file).read_bytes())
    rewrite(path, mutate)
    loader = {"corpus.json": load_corpus, "t2v.json": load_model, "recon.json": load_model,
              "report.json": load_report}.get(file, load_detector)
    with pytest.raises(SchemaError, match=message):
        loader(path)

    paths = {f: saved_artifacts / f for f in ["corpus.json", "t2v.json", "recon.json"]}
    paths[file] = path
    if file == "corpus.json":
        argv = ["train", "--corpus", path, "--epochs", 1, "--out", tmp_path / "model.json"]
    elif file == "t2v.json":
        argv = ["fit-detector", "--corpus", paths["corpus.json"], "--model", path,
                "--kind", "iforest", "--out", tmp_path / "det.json"]
    elif file == "report.json":
        argv = ["report", "--report", path]
    else:
        detectors = [saved_artifacts / f"det.{k}.json" for k in detect.KINDS]
        argv = ["evaluate", "--suite", saved_artifacts / "testsuite.json",
                "--t2v-model", paths["t2v.json"], "--recon-model", paths["recon.json"],
                "--out", tmp_path / "report.json",
                "--detectors", *[path if p.name == file else p for p in detectors]]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err)


# ---------------------------------------------------------------------------
# the checksum over the bytes as stored
# ---------------------------------------------------------------------------

LOADERS = {"corpus.json": load_corpus, "testsuite.json": load_testsuite,
           "t2v.json": load_model, "recon.json": load_model, "report.json": load_report,
           **{f"det.{kind}.json": load_detector for kind in detect.KINDS}}


def canonical(blob: bytes) -> bytes:
    return json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("file", LOADERS)
def test_every_artifact_is_written_as_canonical_json(saved_artifacts, file):
    """The invariant the raw-byte checksum rests on."""
    blob = (saved_artifacts / file).read_bytes()
    assert blob == canonical(blob)


def undeclared(value, form, path=""):
    """The dotted path of each key of `value`, at any fixed-key level of
    `form`, that `form` does not declare."""
    if isinstance(form, Either):
        return [p for alt in form if type(alt) is type(value) for p in undeclared(value, alt, path)]
    if isinstance(form, list):
        return [p for i, v in enumerate(value) for p in undeclared(v, form[-1], f"{path}{i}.")]
    if not isinstance(form, dict):
        return []
    if str in form:
        return [p for k, v in value.items() for p in undeclared(v, form[str], f"{path}{k}.")]
    return [f"{path}{k}" for k in value if k not in form] + [
        p for k in form if k in value for p in undeclared(value[k], form[k], f"{path}{k}.")]


@pytest.mark.parametrize("file", LOADERS)
def test_every_key_a_writer_writes_is_declared_in_the_forms(saved_artifacts, file):
    """Every field a save function writes, at every fixed-key level and in
    every detector state, has a form that loading holds it to."""
    doc = json.loads((saved_artifacts / file).read_bytes())
    kind = doc.pop("kind")
    del doc["schema_version"], doc["checksum"]
    assert undeclared(doc, FORMS[kind]) == []
    assert undeclared({**doc, "extra": {"a": 1}}, FORMS[kind]) == ["extra"]
    for block in (doc, doc.get("calibration")):
        if isinstance(block, dict) and "detector" in block:
            stored = detect.SPECS[block["detector"]].stored
            assert undeclared(block["state"], stored) == []
            assert undeclared({**block["state"], "extra": 1}, stored) == ["extra"]


@pytest.mark.parametrize("doc", [{}, {"a": 1}, {"z": [2]}, {"a": 1, "z": {"b": None}}])
def test_the_checksum_is_spliced_in_at_its_sorted_place(tmp_path, doc):
    """Alone, first, last and between members: the checksum is the SHA-256 of
    the canonical text without it."""
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), {**doc, "checksum": "stale"})
    stored = json.loads(path.read_bytes())
    assert path.read_bytes() == canonical(path.read_bytes())
    assert stored.pop("checksum") == hashlib.sha256(canonical(json.dumps(doc))).hexdigest()
    assert stored == doc


def encoded(value):
    """`value` with every ndarray in it replaced by its `encode_array` form."""
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, dict):
        return {key: encoded(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encoded(v) for v in value]
    return value


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, CHUNK // 8 - 1, CHUNK // 8, CHUNK // 8 + 1,
                                  2 * CHUNK // 8 + 5])
def test_streamed_arrays_are_written_as_json_dumps_writes_their_encoded_form(tmp_path, size):
    """Array payloads stream into the file a chunk at a time; the bytes are
    those of the canonical JSON of the `encode_array` form, checksum included."""
    a = np.random.default_rng(size).normal(size=size)
    doc = {"kind": "x", "a": a, "nested": {"list": [a[::-1], 1, {"f32": a.astype(np.float32)}],
                                           "text": "é"}, "z": [np.arange(size).reshape(-1, 1)]}
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), doc)
    body = canonical(json.dumps(encoded(doc)))
    expected = {**json.loads(body), "checksum": hashlib.sha256(body).hexdigest()}
    assert path.read_bytes() == json.dumps(expected, sort_keys=True,
                                           separators=(",", ":")).encode()


def test_saving_an_lof_detector_peaks_below_half_its_training_matrix(tmp_path, traced_peak):
    x = np.random.default_rng(3).normal(size=(400, 1000))      # B = 3.2 MB
    state = {"x": x, "k": 20, "kdist": np.ones(400), "lrd": np.ones(400)}
    model = detect.DetectorModel("lof", np.zeros(1000), np.ones(1000), state, 1.5)
    path = tmp_path / "det.lof.json"
    assert traced_peak(save_detector, path, model) < x.nbytes / 2
    np.testing.assert_array_equal(load_detector(path).state["x"], x)


@pytest.mark.parametrize("file", LOADERS)
def test_a_rewritten_file_loads_and_keeps_its_bytes(tmp_path, saved_artifacts, file):
    path = tmp_path / file
    blob = (saved_artifacts / file).read_bytes()
    path.write_bytes(blob)
    rewrite(path, lambda doc: None)
    assert path.read_bytes() == blob
    LOADERS[file](path)


@pytest.mark.parametrize("separators", [(", ", ": "), (",", ": ")])
@pytest.mark.parametrize("file", ["report.json", "recon.json", "testsuite.json"])
def test_a_reformatted_valid_file_is_a_checksum_error(tmp_path, saved_artifacts, file,
                                                      separators):
    path = tmp_path / file
    doc = json.loads((saved_artifacts / file).read_bytes())
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, separators=separators))
    with pytest.raises(ChecksumError, match="checksum"):
        LOADERS[file](path)


@pytest.mark.parametrize("at", [1, -1, None])     # after '{', before '}', at the end
def test_a_file_that_gains_a_crlf_is_a_checksum_error(tmp_path, saved_artifacts, at):
    path = tmp_path / "recon.json"
    blob = (saved_artifacts / "recon.json").read_bytes()
    at = len(blob) if at is None else at % len(blob)
    path.write_bytes(blob[:at] + b"\r\n" + blob[at:])
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        load_model(path)


def test_a_file_that_is_not_utf8_is_a_checksum_error(tmp_path, saved_artifacts):
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff" + (saved_artifacts / "report.json").read_bytes()[1:])
    with pytest.raises(ChecksumError, match="not a valid document"):
        load_report(path)


@pytest.mark.parametrize("file", ["report.json", "recon.json"])   # checksum first / second
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_flipped_byte_anywhere_never_loads(tmp_path_factory, saved_artifacts, file, data):
    """Flipping any one byte, in the checksum member or outside it, is a
    ChecksumError or a SchemaError, never a silent load."""
    blob = bytearray((saved_artifacts / file).read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.getbasetemp() / f"flipped.{file}"
    path.write_bytes(bytes(blob))
    with pytest.raises((ChecksumError, SchemaError)):
        LOADERS[file](path)


DROP = object()
OTHER_VALUES = [DROP, None, True, -1, 0.5, "x", [], {}, 10 ** 400, math.nan]


@pytest.mark.parametrize("file", LOADERS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_field_dropped_or_retyped_anywhere_loads_or_is_a_schema_error(
        tmp_path_factory, saved_artifacts, file, data):
    """Drop one field at any depth, or set it to a value of another JSON
    type, -1, a number past float64's range or NaN, and re-checksum: the
    loader returns or raises SchemaError, never anything else, and a report
    that loads prints. Each step down picks a member or entry of the
    current object or list, and goes on down with probability 1/2."""
    doc = json.loads((saved_artifacts / file).read_bytes())
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        parent = parent[key]
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
    value = data.draw(st.sampled_from(OTHER_VALUES))
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    path = tmp_path_factory.getbasetemp() / f"mutated.{file}"
    atomic_write_json(str(path), doc)
    try:
        loaded = LOADERS[file](path)
    except SchemaError:
        return
    if file == "report.json":
        format_report_table(loaded)


def test_suite_round_trip_scores_the_same(tmp_path, small_e2e):
    suite = small_e2e["suite"]
    path = tmp_path / "suite.json"
    save_testsuite(path, suite)
    fitted = (small_e2e["t2v_model"], small_e2e["recon_model"],
              {detect.BASELINE: small_e2e["calib"], **small_e2e["detectors"]})
    assert run_benchmark(load_testsuite(path), *fitted) == run_benchmark(suite, *fitted)
    stored = json.loads(path.read_bytes())["windows"]["payload"]["shape"]
    assert stored == list(suite.windows.data.shape)
    assert stored[0] < sum(len(rows) for rows in suite.sets.values())


def test_a_loaded_suite_holds_one_window_array_and_scores_bit_for_bit_as_built(tmp_path,
                                                                               small_e2e):
    """The loader keeps the file's one block of distinct windows: no set holds
    a copy of its windows, and the score table is the built suite's, bitwise."""
    suite = small_e2e["suite"]
    path = tmp_path / "suite.json"
    save_testsuite(path, suite)
    loaded = load_testsuite(path)
    arrays = list(loaded.sets.values())
    assert all(a.ndim == 1 and a.dtype == np.intp for a in arrays) and len(arrays) == 4
    fitted = (small_e2e["t2v_model"], small_e2e["recon_model"],
              {detect.BASELINE: small_e2e["calib"], **small_e2e["detectors"]})
    built, read = score_table(suite, *fitted), score_table(loaded, *fitted)
    for a, b in zip(built, read):
        assert a.tobytes() == b.tobytes()


def test_loading_and_scoring_a_suite_holds_its_windows_once(tmp_path, small_e2e, traced_peak):
    """Loading then scoring a suite peaks above scoring the loaded suite by
    about its one window array (1.19 times its bytes here). A copy of each
    set's windows, as the loader once made, held 2.58 times; one set's copy
    alone adds 0.6 times."""
    path = tmp_path / "suite.json"
    save_testsuite(path, small_e2e["suite"])
    fitted = (small_e2e["t2v_model"], small_e2e["recon_model"],
              {detect.BASELINE: small_e2e["calib"], **small_e2e["detectors"]})
    loaded = load_testsuite(path)
    scoring = traced_peak(score_table, loaded, *fitted)
    both = traced_peak(lambda: score_table(load_testsuite(path), *fitted))
    assert both - scoring < 1.5 * loaded.windows.data.nbytes
