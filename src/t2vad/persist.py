"""On-disk formats: corpus, test suite, model, detector and report files.

Everything is a single JSON document with a human-readable header;
numeric payloads are base64-encoded little-endian float64 blocks. The
writer emits canonical JSON (sorted keys, minimal separators) and every
file carries a SHA-256 checksum over its own bytes with the checksum
member cut out, so truncation or corruption fails loudly on load. The
check reads the bytes as stored: a file that is valid JSON but was
reformatted (re-indented, say) fails it too. Writes are atomic (temp
file + rename): a failed command leaves no partial output.

The save functions hand the writer their arrays as they are. It streams
the text into the file and the hash as it goes, base64-encoding each
array payload a chunk at a time straight from the array's memory, so no
copy of a payload or of the whole text is held; the bytes are those of
`json.dumps` of the document with `encode_array` blocks. The loader
likewise holds the file's text once: it hashes the text in pieces and
decodes each payload a chunk at a time into the array it returns.

The corpus and test suite files store their windows in one window block:
the payload with each window's label, tags and origin. The suite file
stores a `TestSuite` as it is held: its windows in that block, and for
each set the rows of the block it holds. One reader decodes a window
block for both loaders; no set gets a copy of its windows.

A model file stores its `AEConfig` and its network's flat parameter vector
`params`, nothing about the layers: the loader rebuilds the network from
the config with `autoenc.build_model` and fills the vector in, so the
config is the one description of the architecture. A Deep SVDD detector
stores its net the same way, and its kind's `check` rebuilds it.
A model's `calibration` is the baseline's detector document (kind
`recon_ae`, empty `state`), written and read as a detector file's is.
`_state` holds each detector state to its kind's `stored` forms and `check`.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import ndtensor as nd
from .autoenc import AEConfig, TrainedModel, build_model
from .detect import BASELINE, KINDS, SPECS, DetectorConfig, DetectorModel
from .evaluate import METHODS, EvalReport
from .inject import TestSuite
from .pipeline import Corpus, WindowSet, anomalous_flags

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """File kind/version does not match what the loader expects."""


class ChecksumError(ValueError):
    """Stored checksum does not match the document content."""


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

_NUMBER = (int, float)
_NONE = type(None)


def _is(value, kind) -> bool:
    """isinstance(value, kind), except that JSON true/false is no int or float."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _field(doc, key: str, kind):
    """doc[key]; a SchemaError unless `doc` is an object holding a `kind` there.

    `kind` is a type or a tuple of types, as for `_is`.
    """
    if not (isinstance(doc, dict) and key in doc and _is(doc[key], kind)):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise SchemaError(f"field {key!r} is missing or not a {names}")
    return doc[key]


def _construct(cls, fields: dict, what: str):
    """cls(**fields); a SchemaError when a field is unknown or its value is rejected."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from None


def encode_array(a: np.ndarray) -> dict:
    """The block an array is stored as; `atomic_write_json` writes an ndarray
    as this block without building it."""
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    """Inverse of `encode_array`; a SchemaError unless `d` holds a strict base64
    `data` string whose length matches an integer `shape` list.

    The payload is decoded CHUNK bytes at a time straight into the result,
    so no whole decoded or re-encoded copy of it is held.
    """
    shape = _field(d, "shape", list)
    if not all(type(s) is int and s >= 0 for s in shape):
        raise SchemaError(f"array shape {shape} is not a list of non-negative integers")
    data = _field(d, "data", str)
    size = 8 * math.prod(shape)
    # only a string of this length can hold `size` bytes; any other is decoded
    # just to tell bad base64 from a wrong length
    out = np.empty(size // 8 if len(data) == 4 * -(-size // 3) else 0, dtype="<f8")
    buf = out.view(np.uint8)
    held = 0
    try:
        for raw in _base64_pieces(data):
            if held + len(raw) <= len(buf):
                buf[held:held + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
            held += len(raw)
    except ValueError as exc:   # a bad character or length, or a non-ASCII string
        raise SchemaError(f"array data is not base64: {exc}") from None
    if held != size:
        raise SchemaError(f"array data holds {held} bytes, not the "
                          f"{size} its shape {shape} needs")
    return out.astype(np.float64, copy=False).reshape(shape)


def _base64_pieces(data: str):
    """The bytes the base64 string `data` decodes to, CHUNK at a time.

    A ValueError wherever `base64.b64decode(data, validate=True)` raises one,
    and on '=' after a whole 4-character group, which it skips: `data` must
    have a length that is a multiple of 4, only alphabet characters, and
    '=' only as its last one or two. `binascii.a2b_base64` skips any other
    character, so a piece that decodes short held one.
    """
    if len(data) % 4:
        raise ValueError(f"its length {len(data)} is not a multiple of 4")
    pad = 2 if data.endswith("==") else 1 if data.endswith("=") else 0
    step = CHUNK // 3 * 4           # characters that decode to CHUNK bytes
    for start in range(0, len(data), step):
        piece = data[start:start + step]
        tail = pad if start + step >= len(data) else 0
        if piece.find("=", 0, len(piece) - tail) >= 0:
            raise ValueError("it holds a '=' before its last two characters")
        raw = binascii.a2b_base64(piece)   # a ValueError on a non-ASCII character
        if len(raw) != 3 * len(piece) // 4 - tail:
            raise ValueError("it holds a character outside the base64 alphabet")
        yield raw


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_CHECKSUM = "checksum"
CHUNK = 3 * 8 * 4096    # payload bytes base64-encoded at a time: whole 3-byte groups


def _holds_array(value) -> bool:
    """Whether an ndarray sits anywhere in the JSON-like `value`."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return isinstance(value, np.ndarray)
    return any(map(_holds_array, value))


def _pieces(value):
    """The canonical JSON text of `value`, as ASCII byte pieces. An ndarray is
    written in `encode_array`'s form, its payload base64-encoded CHUNK bytes
    at a time straight from its memory; a value holding no array is one
    `json.dumps` piece."""
    if isinstance(value, np.ndarray):
        flat = np.ravel(value)                  # a view when `value` is C-contiguous
        yield b'{"data":"'
        for i in range(0, flat.size, CHUNK // 8):
            yield base64.b64encode(np.ascontiguousarray(flat[i:i + CHUNK // 8], dtype="<f8"))
        yield b'",' + _canonical({"dtype": "float64", "shape": list(value.shape)})[1:].encode()
    elif not _holds_array(value):
        yield _canonical(value).encode()
    elif isinstance(value, dict):
        for n, key in enumerate(sorted(value)):
            yield (b"," if n else b"{") + json.dumps(key).encode() + b":"
            yield from _pieces(value[key])
        yield b"}"
    else:
        for n, item in enumerate(value):
            yield b"," if n else b"["
            yield from _pieces(item)
        yield b"]"


def atomic_write_json(path: str, doc: dict) -> None:
    """Write `doc` (less any `checksum`) as canonical JSON with the SHA-256 of
    those bytes spliced in as its `checksum` member, at its sorted place.

    An ndarray anywhere in `doc` is written as `encode_array(a)` would be.
    The text streams into the file and the hash piece by piece; the checksum
    member's fixed-width slot is filled in once the hash is known.
    """
    body = {k: v for k, v in doc.items() if k != _CHECKSUM}
    keys = sorted(body)
    at = sum(k < _CHECKSUM for k in keys)       # members before the checksum

    def checksum_member(hexdigest: str) -> bytes:
        """The member and the one comma joining it to a neighbour: the bytes the hash skips."""
        text = f'"{_CHECKSUM}":"{hexdigest}"'.encode()
        if at:
            return b"," + text
        return text + b"," if keys else text

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            digest = hashlib.sha256()

            def emit(pieces):
                for piece in pieces:
                    fh.write(piece)
                    digest.update(piece)

            def members(indices):
                for n in indices:
                    yield (b"," if n else b"") + json.dumps(keys[n]).encode() + b":"
                    yield from _pieces(body[keys[n]])

            emit([b"{"])
            emit(members(range(at)))
            slot = fh.tell()
            fh.write(checksum_member("0" * 64))
            emit(members(range(at, len(keys))))
            emit([b"}"])
            fh.seek(slot)
            fh.write(checksum_member(digest.hexdigest()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json_checked(path: str, expected_kind: str) -> dict:
    """The document at `path`, once its kind, schema version and checksum hold.

    The file is read as UTF-8 text with its newlines untranslated. The
    checksum is checked over that text with the checksum member and its
    adjoining comma cut out (the writer's canonical text), re-encoded CHUNK
    characters at a time.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        doc = json.loads(text)
    except ValueError as exc:   # UnicodeDecodeError or JSONDecodeError
        raise ChecksumError(f"{path}: not a valid document ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != expected_kind:
        raise SchemaError(f"{path}: expected a {expected_kind} file, got {doc.get('kind')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema version {doc.get('schema_version')} "
                          f"unsupported (want {SCHEMA_VERSION})")
    stored = doc.get(_CHECKSUM)
    if not (isinstance(stored, str) and stored.isascii()):
        raise ChecksumError(f"{path}: no checksum string")
    member = f'"{_CHECKSUM}":"{stored}"'
    start = text.find(member)
    if start < 0:
        raise ChecksumError(f"{path}: checksum member is not in canonical form")
    end = start + len(member)
    if text[end:end + 1] == ",":
        end += 1
    elif text[start - 1:start] == ",":
        start -= 1
    digest = hashlib.sha256()
    for lo, hi in ((0, start), (end, len(text))):
        for i in range(lo, hi, CHUNK):
            digest.update(text[i:min(i + CHUNK, hi)].encode())
    if stored != digest.hexdigest():
        raise ChecksumError(f"{path}: checksum mismatch")
    return doc


def config_digest(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# corpus / test suite
# ---------------------------------------------------------------------------

def _labels(anomalous) -> list[str]:
    return ["anomalous" if a else "normal" for a in anomalous]


def _windows_block(windows: WindowSet) -> dict:
    """The window block of `windows`: their payload, labels, tags and origins."""
    return {
        "payload": windows.data,
        "labels": _labels(windows.anomalous),
        "tags": [sorted(t) for t in windows.tags],
        "origins": windows.origins,
    }


def _strings(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _window_set(block) -> WindowSet:
    """The WindowSet the window block `block` holds; a SchemaError unless its
    payload is an (n, N, F) array, its labels, tags and origins hold a
    string, a string list and a string for each window and every label
    agrees with its tags."""
    data = decode_array(_field(block, "payload", dict))
    if data.ndim != 3:
        raise SchemaError(f"the window payload is {data.shape}, not (n, N, F)")
    labels, tags, origins = (_field(block, key, list) for key in ("labels", "tags", "origins"))
    if not (len(labels) == len(tags) == len(origins) == len(data)
            and _strings(labels) and _strings(origins) and all(map(_strings, tags))):
        raise SchemaError(f"labels, tags and origins must hold a string, a string list "
                          f"and a string for each of the {len(data)} windows")
    for i, (stored, derived) in enumerate(zip(labels, _labels(anomalous_flags(tags)))):
        if stored != derived:
            raise SchemaError(f"window {i}: label {stored!r} inconsistent with tags {tags[i]}")
    return _construct(WindowSet, {"data": data, "tags": tags, "origins": origins}, "windows")


def save_corpus(path: str, corpus: Corpus) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "corpus",
        "n_windows": len(corpus.windows),
        "steps": corpus.windows.data.shape[1],
        "features": corpus.windows.data.shape[2],
        "provenance": corpus.provenance,
        "split": {"train": corpus.train_idx, "test": corpus.test_idx},
        "windows": _windows_block(corpus.windows),
    }
    atomic_write_json(path, doc)


def load_corpus(path: str) -> Corpus:
    doc = load_json_checked(path, "corpus")
    split = [_field(_field(doc, "split", dict), side, list) for side in ("train", "test")]
    if not all(type(i) is int for side in split for i in side):
        raise SchemaError(f"{path}: split indices must be integers")
    windows = _window_set(_field(doc, "windows", dict))
    return _construct(Corpus, {"windows": windows, "train_idx": split[0], "test_idx": split[1],
                               "provenance": _field(doc, "provenance", dict)}, "corpus")


def save_testsuite(path: str, suite: TestSuite) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "testsuite",
        "seed": suite.seed,
        "sets": {key: rows.tolist() for key, rows in suite.sets.items()},
        "windows": _windows_block(suite.windows),
    }
    atomic_write_json(path, doc)


def load_testsuite(path: str) -> TestSuite:
    doc = load_json_checked(path, "testsuite")
    windows = _window_set(_field(doc, "windows", dict))
    sets = _field(doc, "sets", dict)
    for key in sets:
        if not all(type(r) is int and 0 <= r < len(windows) for r in _field(sets, key, list)):
            raise SchemaError(f"{key} rows must be integers in [0, {len(windows)})")
    return _construct(TestSuite, {"windows": windows, "sets": sets,
                                  "seed": _field(doc, "seed", int)}, "test suite")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def save_model(path: str, model: TrainedModel,
               calibration: DetectorModel | None = None) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "model",
        "variant": model.config.variant,
        "n": model.n,
        "f": model.f,
        "config": asdict(model.config),
        "loss_curve": model.loss_curve,
        "params": model.stack.params,
        "calibration": None if calibration is None else _detector_doc(calibration),
    }
    atomic_write_json(path, doc)


def load_model(path: str) -> tuple[TrainedModel, DetectorModel | None]:
    """The network is rebuilt from `config` by `autoenc.build_model`, and
    `params` must hold exactly its parameter vector. A `calibration` is a
    detector document of the baseline's kind. Keys it does not read (older
    files' `val_dtw`, `encoder_strides`) are ignored."""
    doc = load_json_checked(path, "model")
    cfg = _construct(AEConfig, _field(doc, "config", dict), "model config")
    n, f = _field(doc, "n", int), _field(doc, "f", int)
    if min(n, f) < 1:
        raise SchemaError(f"{path}: window shape n={n}, f={f} is not positive")
    model = _construct(build_model, {"cfg": cfg, "n": n, "f": f}, "model config")
    params = decode_array(_field(doc, "params", dict))
    if params.shape != model.stack.params.shape:
        raise SchemaError(f"{path}: model params are {params.shape}, the network its "
                          f"config builds has {model.stack.params.shape}")
    model.stack.params[...] = params
    model.loss_curve = _field(doc, "loss_curve", list)
    c = _field(doc, "calibration", (dict, _NONE))
    return model, None if c is None else _detector(c, f"{path}: calibration", (BASELINE,))


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

def _encode_value(value):
    """One rule for every detector state: a layer stack is stored as its
    parameter vector, anything else (an array, say) as is."""
    return value.params if isinstance(value, nd.LayerStack) else value


def _of_form(value, form, sizes: dict) -> bool:
    """Whether a decoded state entry has `form` (see `detect.Kind`); an array
    form binds each dimension name it meets first in `sizes`."""
    if isinstance(form, tuple):
        return (isinstance(value, np.ndarray) and value.ndim == len(form)
                and all(sizes.setdefault(n, size) == size for n, size in zip(form, value.shape)))
    if form is list:
        return isinstance(value, list) and all(_of_form(v, float, sizes) for v in value)
    return _is(value, _NUMBER if form is float else form) and abs(value) <= sys.float_info.max


def _state(kind: str, entries: dict, dim: int) -> dict:
    """The `stored` entries of a `kind` detector's state read from a file,
    array blocks decoded; a SchemaError unless each has its form, every array
    is finite (a NaN would score every EE or OCSVM window NaN, which reads as
    normal) and the kind's `check` passes."""
    forms, sizes = SPECS[kind].stored, {"dim": dim}
    state = {key: decode_array(value) if isinstance(value, dict) else value
             for key, value in entries.items() if key in forms}
    bad = [key for key, form in forms.items()
           if not (key in state and _of_form(state[key], form, sizes))]
    if bad:
        want = ", ".join(f"{key} ({', '.join(form)})" if isinstance(form, tuple)
                         else f"{key} {form.__name__}" for key, form in forms.items())
        raise SchemaError(f"{kind} state entries {bad} are missing or misshapen "
                          f"(want {want}; dim {dim})")
    for key, value in state.items():
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise SchemaError(f"{kind} state entry {key!r} is not finite")
    return _construct(SPECS[kind].check, {"state": state, "sizes": sizes}, f"{kind} state")


def _detector_doc(model: DetectorModel) -> dict:
    """The fields a `DetectorModel` is stored as, in a detector file and in a
    model file's `calibration` alike."""
    return {
        "detector": model.kind,
        "scaler_mean": model.scaler_mean,
        "scaler_std": model.scaler_std,
        "threshold": model.threshold,
        "config": asdict(model.config),
        "state": {key: _encode_value(model.state[key]) for key in SPECS[model.kind].stored},
    }


def save_detector(path: str, model: DetectorModel) -> None:
    """A ValueError, and no file, for a kind outside `KINDS`: the baseline is
    stored in its model's `calibration`."""
    if model.kind not in KINDS:
        raise ValueError(f"no detector file holds a {model.kind!r} model: "
                         f"the kinds are {list(KINDS)}")
    atomic_write_json(path, {"schema_version": SCHEMA_VERSION, "kind": "detector",
                             **_detector_doc(model)})


def _detector(doc, where: str, kinds) -> DetectorModel:
    """`doc`'s `DetectorModel`; a SchemaError led by `where` unless its kind
    is in `kinds`, its scaler mean and std are finite and of one 1-D shape,
    the std positive and the threshold finite (a NaN score or threshold reads
    as normal), `DetectorConfig` has every `config` key (an old file's
    `svdd_lr` fails) and `_state` admits its `state`. State entries outside
    the kind's `stored` forms and a top-level `train_scores` (older files
    carry both) are ignored."""
    try:
        kind = _field(doc, "detector", str)
        if kind not in kinds:
            raise SchemaError(f"unknown detector kind {kind!r}")
        cfg = _construct(DetectorConfig, _field(doc, "config", dict), "detector config")
        mean, std = (decode_array(_field(doc, key, dict)) for key in ("scaler_mean", "scaler_std"))
        threshold = _field(doc, "threshold", _NUMBER)
        shape = (mean.size,)
        if not (mean.shape == std.shape == shape and np.isfinite(mean).all()
                and np.isfinite(std).all() and (std > 0).all() and _of_form(threshold, float, {})):
            raise SchemaError(f"scaler needs finite {shape} means, positive finite {shape} "
                              f"stds and a finite threshold")
        state = _state(kind, _field(doc, "state", dict), mean.size)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return DetectorModel(kind, mean, std, state, threshold, config=cfg)


def load_detector(path: str) -> DetectorModel:
    return _detector(load_json_checked(path, "detector"), path, KINDS)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def save_report(path: str, report: EvalReport) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "config_digest": report.config_digest,
        "seeds": report.seeds,
        "composition": report.composition,
        "results": report.results,
        "timestamp": report.timestamp,
    }
    atomic_write_json(path, doc)


def _results(doc) -> dict:
    """doc["results"]; a SchemaError unless every method x test set cell holds
    numeric precision, recall and f1 and integer confusion counts."""
    results = _field(doc, "results", dict)
    for method in METHODS:
        for key in TestSuite.KEYS:
            cell = _field(_field(results, method, dict), key, dict)
            counts = _field(cell, "confusion", dict)
            if not (all(_is(cell.get(m), _NUMBER) for m in ("precision", "recall", "f1"))
                    and all(type(counts.get(c)) is int for c in ("tp", "fp", "tn", "fn"))):
                raise SchemaError(f"results {method} {key}: bad precision/recall/f1/confusion")
    return results


def _composition(doc) -> dict:
    """doc["composition"]; a SchemaError unless every test set holds integer
    `n`, `anomalous` and `noise_tagged` counts, the latter two at most `n`."""
    composition = _field(doc, "composition", dict)
    for key in TestSuite.KEYS:
        entry = _field(composition, key, dict)
        counts = [_field(entry, c, int) for c in ("n", "anomalous", "noise_tagged")]
        if not (min(counts) >= 0 and max(counts[1:]) <= counts[0]):
            raise SchemaError(f"composition {key}: bad n/anomalous/noise_tagged counts")
    return composition


def _seeds(doc) -> dict:
    """doc["seeds"]; a SchemaError unless every value in it is an integer."""
    seeds = _field(doc, "seeds", dict)
    for key in seeds:
        _field(seeds, key, int)
    return seeds


def load_report(path: str) -> EvalReport:
    doc = load_json_checked(path, "report")
    return EvalReport(_results(doc), _composition(doc),
                      _field(doc, "config_digest", str), _seeds(doc),
                      _field(doc, "timestamp", (str, _NONE)))
