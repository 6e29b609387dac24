"""On-disk formats: corpus, test suite, model, detector and report files.

Everything is a single JSON document with a human-readable header;
numeric payloads are base64-encoded little-endian float64 blocks. The
writer emits canonical JSON (sorted keys, minimal separators) and every
file carries a SHA-256 checksum over its own bytes with the checksum
member cut out, so truncation or corruption fails loudly on load. The
check reads the bytes as stored: a file that is valid JSON but was
reformatted (re-indented, say) fails it too. Writes are atomic (temp
file + rename): a failed command leaves no partial output.

The writer streams the text into the file and the hash as it goes, each
array payload base64-encoded a chunk at a time straight from the array's
memory: no copy of a payload or of the whole text is held, and the bytes
are those of `json.dumps` of the document with `encode_array` blocks. The
loader holds the file's text once, hashes it in pieces and decodes each
payload a chunk at a time into the array it returns.

Every field a file holds is declared once, with its form, in `FORMS` (a
detector's state in `detect.SPECS`), and one reader, `_read`, holds each
document to its form: a `SchemaError` gives the file and the field's
dotted path (`results.t2v_lof.AN-4F.f1`). A loader reads fields only from
the reader's output and checks beside it what no form can say. The
corpus and suite files share one window block; the suite stores each set
as rows of it, so no set gets a copy of its windows. A model file holds
its `AEConfig` and its network's flat parameter vector `params`: the
loader rebuilds the network from the config with `autoenc.build_model`
(and a Deep SVDD state's net in its kind's `check`). A model's
`calibration` is the baseline's detector document (kind `recon_ae`,
empty `state`), written and read as a detector file's is.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
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
from .pipeline import WINDOW_STEPS, Corpus, WindowSet, anomalous_flags

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """File kind/version does not match what the loader expects."""


class ChecksumError(ValueError):
    """Stored checksum does not match the document content."""


class Either(tuple):
    """The form of a value of any of the forms it holds (see `_read`)."""


# ---------------------------------------------------------------------------
# every file's forms, their reader, array blocks and checked JSON files
# ---------------------------------------------------------------------------

CONFIG = {str: Either((str, float))}    # a dataclass's fields: it rejects unknown keys
WINDOWS = {"payload": ("n", "N", "F"), "labels": ["n", str], "tags": ["n", [str]],
           "origins": ["n", str]}
DETECTOR = {"detector": str, "config": CONFIG, "scaler_mean": ("dim",),
            "scaler_std": ("dim",), "threshold": float, "state": dict}
COUNTS = dict.fromkeys(("n", "anomalous", "noise_tagged"), int)
CELL = {**dict.fromkeys(("precision", "recall", "f1"), float),
        "confusion": dict.fromkeys(("tp", "fp", "tn", "fn"), int)}
FORMS = {
    "corpus": {"windows": WINDOWS, "n_windows": "n", "steps": "N", "features": "F",
               "split": {"train": [int], "test": [int]}, "provenance": dict},
    "testsuite": {"windows": WINDOWS, "sets": {str: [int]}, "seed": int},
    "model": {"config": CONFIG, "variant": str, "n": "N", "f": int, "loss_curve": [float],
              "params": ("params",), "calibration": Either((None, DETECTOR))},
    "detector": DETECTOR,
    "report": {"config_digest": str, "seeds": {str: int}, "timestamp": Either((None, str)),
               "composition": dict.fromkeys(TestSuite.KEYS, COUNTS),
               "results": dict.fromkeys(METHODS, dict.fromkeys(TestSuite.KEYS, CELL))},
}

_MAX = sys.float_info.max
_SCALARS = {    # each scalar form: what its value is, and the test of one
    None: ("null", lambda v: v is None),
    str: ("a string", lambda v: type(v) is str),
    dict: ("an object", lambda v: type(v) is dict),
    int: ("an integer within float64's range", lambda v: type(v) is int and abs(v) <= _MAX),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= _MAX),
}


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _read(value, form, path: str, sizes: dict):
    """`value`, as `json.loads` gave it, held to `form`, with every array
    block decoded and every fixed-key object cut to its form's keys; a
    SchemaError naming the first field, by its dotted path below `path`,
    that lacks its form. The forms: a tuple of dimension names is a finite
    float array block with one axis per name, each name of one size in
    `sizes` (bound where first met), and a name alone an int of that size;
    `int` is an int, `float` a finite number, `str`, `dict` and `None` a
    string, any object and null (every number within float64's range; JSON
    true/false is no number); `[form]` is a list of `form` entries and
    `[name, form]` one of `name` entries; `{key: form, ...}` an object
    holding those keys (others ignored), `{str: form}` one of any keys; and
    `Either((form, ...))` a value of any of its forms, tried in order.
    """
    if isinstance(form, Either):
        for alternative in form[:-1]:
            with contextlib.suppress(SchemaError):
                return _read(value, alternative, path, sizes)
        return _read(value, form[-1], path, sizes)
    if isinstance(form, str):
        if sizes.setdefault(form, _read(value, int, path, sizes)) != value:
            raise SchemaError(f"field {path!r} is {value}, not {form} = {sizes[form]}")
        return value
    if isinstance(form, tuple):
        a = decode_array(value, path)
        if a.ndim != len(form) or any(sizes.setdefault(name, size) != size
                                      for name, size in zip(form, a.shape)):
            bound = ", ".join(f"{n} = {sizes[n]}" for n in form if n in sizes)
            raise SchemaError(f"field {path!r} is {a.shape}, not ({', '.join(form)}"
                              f"{',' * (len(form) == 1)})" + (bound and f" with {bound}"))
        if not np.isfinite(a).all():
            raise SchemaError(f"field {path!r} is not finite")
        return a
    if isinstance(form, list):
        *size, entry = form
        if type(value) is not list:
            raise SchemaError(f"field {path!r} is not a list")
        if size and sizes.setdefault(size[0], len(value)) != len(value):
            raise SchemaError(f"field {path!r} holds {len(value)} entries, "
                              f"not {size[0]} = {sizes[size[0]]}")
        return [_read(v, entry, _at(path, i), sizes) for i, v in enumerate(value)]
    if isinstance(form, dict):
        if type(value) is not dict:
            raise SchemaError(f"field {path!r} is not an object")
        if str in form:
            return {key: _read(v, form[str], _at(path, key), sizes) for key, v in value.items()}
        missing = next((key for key in form if key not in value), None)
        if missing is not None:
            raise SchemaError(f"field {_at(path, missing)!r} is missing")
        return {key: _read(value[key], f, _at(path, key), sizes) for key, f in form.items()}
    what, ok = _SCALARS[form]
    if not ok(value):
        raise SchemaError(f"field {path!r} is not {what}")
    return value


def _construct(cls, fields: dict, path: str):
    """cls(**fields); a SchemaError naming the field at `path` if it raises."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field {path!r}: {exc}") from None


def encode_array(a: np.ndarray) -> dict:
    """The block an array is stored as; `atomic_write_json` writes an ndarray
    as this block without building it."""
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(d: dict, path: str = "array") -> np.ndarray:
    """Inverse of `encode_array`; a SchemaError naming the field at `path`
    (by default `array`) unless `d` holds a strict base64 `data` string
    whose length matches a `shape` list of non-negative integers.

    The payload is decoded CHUNK bytes at a time straight into the result,
    so no whole decoded or re-encoded copy of it is held.
    """
    block = _read(d, {"shape": [int], "data": str}, path, {})
    shape, data = block["shape"], block["data"]
    if min(shape, default=0) < 0:
        raise SchemaError(f"field {_at(path, 'shape')!r} is {shape}, not a list of "
                          f"non-negative integers")
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
        raise SchemaError(f"field {_at(path, 'data')!r} is not base64: {exc}") from None
    if held != size:
        raise SchemaError(f"field {_at(path, 'data')!r} holds {held} bytes, not the "
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
        raise SchemaError(f"{path}: field 'schema_version': schema version "
                          f"{doc.get('schema_version')} unsupported (want {SCHEMA_VERSION})")
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


@contextlib.contextmanager
def _document(path: str, kind: str):
    """The `kind` file at `path` as `_read` holds it to `FORMS[kind]`; each
    SchemaError in it or in the `with` block is led by `path`."""
    doc = load_json_checked(path, kind)
    try:
        yield _read(doc, FORMS[kind], "", {"N": WINDOW_STEPS})     # every window's length
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _write(path: str, kind: str, fields: dict) -> None:
    """Write `fields` as a `kind` file of this schema version."""
    atomic_write_json(path, {"schema_version": SCHEMA_VERSION, "kind": kind, **fields})


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


def _window_set(block: dict) -> WindowSet:
    """The WindowSet of a window block `_read` returned; a SchemaError unless
    every label agrees with its tags."""
    labels, tags = block["labels"], block["tags"]
    derived = _labels(anomalous_flags(tags))
    for i in (i for i, label in enumerate(labels) if label != derived[i]):
        raise SchemaError(f"field 'windows.labels.{i}': label {labels[i]!r} "
                          f"inconsistent with tags {tags[i]}")
    return _construct(WindowSet, {"data": block["payload"], "tags": tags,
                                  "origins": block["origins"]}, "windows.payload")


def save_corpus(path: str, corpus: Corpus) -> None:
    _write(path, "corpus", {
        "n_windows": len(corpus.windows),
        "steps": corpus.windows.data.shape[1],
        "features": corpus.windows.data.shape[2],
        "provenance": corpus.provenance,
        "split": {"train": corpus.train_idx, "test": corpus.test_idx},
        "windows": _windows_block(corpus.windows),
    })


def load_corpus(path: str) -> Corpus:
    with _document(path, "corpus") as doc:
        return _construct(Corpus, {"windows": _window_set(doc["windows"]),
                                   "train_idx": doc["split"]["train"],
                                   "test_idx": doc["split"]["test"],
                                   "provenance": doc["provenance"]}, "split")


def save_testsuite(path: str, suite: TestSuite) -> None:
    _write(path, "testsuite", {
        "seed": suite.seed,
        "sets": {key: rows.tolist() for key, rows in suite.sets.items()},
        "windows": _windows_block(suite.windows),
    })


def load_testsuite(path: str) -> TestSuite:
    """Each set's rows must lie below the window count."""
    with _document(path, "testsuite") as doc:
        windows = _window_set(doc["windows"])
        for key, rows in doc["sets"].items():
            for i in (i for i, r in enumerate(rows) if not 0 <= r < len(windows)):
                raise SchemaError(f"field 'sets.{key}.{i}' is {rows[i]}, "
                                  f"not in [0, {len(windows)})")
        return _construct(TestSuite, {"windows": windows, "sets": doc["sets"],
                                      "seed": doc["seed"]}, "sets")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def save_model(path: str, model: TrainedModel,
               calibration: DetectorModel | None = None) -> None:
    _write(path, "model", {
        "variant": model.config.variant,
        "n": model.n,
        "f": model.f,
        "config": asdict(model.config),
        "loss_curve": model.loss_curve,
        "params": model.stack.params,
        "calibration": None if calibration is None else _detector_doc(calibration),
    })


def load_model(path: str) -> tuple[TrainedModel, DetectorModel | None]:
    """`variant` must be the config's, `n` the window length, `f` positive and
    `params` the vector of the network `autoenc.build_model` builds from
    `config`. A `calibration` is a detector document of the baseline's kind."""
    with _document(path, "model") as doc:
        cfg = _construct(AEConfig, doc["config"], "config")
        if doc["variant"] != cfg.variant:
            raise SchemaError(f"field 'variant' is {doc['variant']!r}, "
                              f"not the config's {cfg.variant!r}")
        if doc["f"] < 1:
            raise SchemaError(f"field 'f' is {doc['f']}, not positive")
        model = _construct(build_model, {"cfg": cfg, "n": doc["n"], "f": doc["f"]}, "config")
        if doc["params"].shape != model.stack.params.shape:
            raise SchemaError(f"field 'params' is {doc['params'].shape}, the network its "
                              f"config builds has {model.stack.params.shape}")
        model.stack.params[...] = doc["params"]
        model.loss_curve = doc["loss_curve"]
        c = doc["calibration"]
        return model, None if c is None else _detector(c, (BASELINE,), "calibration.")


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

def _detector_doc(model: DetectorModel) -> dict:
    """The fields a `DetectorModel` is stored as, in a detector file and in a
    model file's `calibration` alike. A layer stack in its state is stored
    as its parameter vector, anything else (an array, say) as is."""
    state = {key: model.state[key] for key in SPECS[model.kind].stored}
    return {
        "detector": model.kind,
        "scaler_mean": model.scaler_mean,
        "scaler_std": model.scaler_std,
        "threshold": model.threshold,
        "config": asdict(model.config),
        "state": {key: value.params if isinstance(value, nd.LayerStack) else value
                  for key, value in state.items()},
    }


def save_detector(path: str, model: DetectorModel) -> None:
    """A ValueError, and no file, for a kind outside `KINDS`: the baseline is
    stored in its model's `calibration`."""
    if model.kind not in KINDS:
        raise ValueError(f"no detector file holds a {model.kind!r} model: "
                         f"the kinds are {list(KINDS)}")
    _write(path, "detector", _detector_doc(model))


def _detector(doc: dict, kinds, at: str = "") -> DetectorModel:
    """The `DetectorModel` of a detector document `_read` returned, its fields
    at `at`; a SchemaError unless its kind is in `kinds`, the scaler std is
    positive, `DetectorConfig` takes its `config` (an old file's `svdd_lr`
    fails) and its `state` has its kind's `stored` forms and passes its
    `check`. A NaN array would score every EE or OCSVM window NaN (normal)."""
    kind = doc["detector"]
    if kind not in kinds:
        raise SchemaError(f"field '{at}detector': unknown detector kind {kind!r}")
    cfg = _construct(DetectorConfig, doc["config"], f"{at}config")
    if not (doc["scaler_std"] > 0).all():
        raise SchemaError(f"field '{at}scaler_std' is not positive")
    sizes = {"dim": doc["scaler_mean"].size}
    state = _read(doc["state"], SPECS[kind].stored, f"{at}state", sizes)
    state = _construct(SPECS[kind].check, {"state": state, "sizes": sizes}, f"{at}state")
    return DetectorModel(kind, doc["scaler_mean"], doc["scaler_std"], state, doc["threshold"],
                         config=cfg)


def load_detector(path: str) -> DetectorModel:
    with _document(path, "detector") as doc:
        return _detector(doc, KINDS)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def save_report(path: str, report: EvalReport) -> None:
    _write(path, "report", asdict(report))


def load_report(path: str) -> EvalReport:
    """Each test set's counts must lie in [0, n]."""
    with _document(path, "report") as doc:
        for key, counts in doc["composition"].items():
            for name, count in counts.items():
                if not 0 <= count <= counts["n"]:
                    raise SchemaError(f"field 'composition.{key}.{name}' is {count}, "
                                      f"not in [0, n = {counts['n']}]")
        return EvalReport(**doc)
