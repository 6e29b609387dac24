import argparse
import importlib
import json
import math
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from t2vad import cli
from t2vad.cli import build_parser, main
from t2vad.detect import DetectorConfig, deepsvdd
from t2vad.inject import InjectionSpec
from t2vad.persist import load_corpus, load_report
from t2vad.pipeline import SynthParams


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny but complete CLI run: corpus, both models, detectors, suite."""
    d = tmp_path_factory.mktemp("cli")
    assert run(["generate", "--seed", 5, "--windows", 60, "--test-fraction", "0.2",
                "--out", d / "corpus.json"]) == 0
    assert run(["train", "--corpus", d / "corpus.json", "--variant", "t2v",
                "--epochs", 4, "--seed", 5, "--out", d / "t2v.json"]) == 0
    assert run(["train", "--corpus", d / "corpus.json", "--variant", "reconstruction",
                "--epochs", 4, "--seed", 5, "--out", d / "recon.json"]) == 0
    assert run(["fit-detector", "--corpus", d / "corpus.json", "--model",
                d / "t2v.json", "--kind", "all", "--seed", 5,
                "--out", d / "det.json"]) == 0
    assert run(["build-testsets", "--corpus", d / "corpus.json", "--seed", 5,
                "--out", d / "suite.json"]) == 0
    return d


def detector_paths(d):
    return [d / f"det.{k}.json" for k in
            ("iforest", "lof", "ocsvm", "ee", "deep_svdd")]


def test_generate_deterministic(tmp_path):
    # identical command twice (the echoed config includes the output path)
    out = tmp_path / "a.json"
    assert run(["generate", "--seed", 7, "--windows", 20, "--out", out]) == 0
    first = out.read_bytes()
    assert run(["generate", "--seed", 7, "--windows", 20, "--out", out]) == 0
    assert out.read_bytes() == first


def test_generate_seed_changes_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["generate", "--seed", 7, "--windows", 20, "--out", a]) == 0
    assert run(["generate", "--seed", 8, "--windows", 20, "--out", b]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["embed", "--corpus", "c.json", "--model", "m.json", "--out", "e.json"]) == 2


def test_docs_list_exactly_the_parser_subcommands():
    """cli.py's docstring and README's quickstart sentence name each subcommand."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    docstring = " ".join(cli.__doc__.split())
    listed = re.search(r"Subcommands: (.*?)\. ", docstring).group(1).split(", ")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"\w+ subcommands: (.*?)\. ", " ".join(readme.split())).group(1)
    assert listed == list(commands)
    assert re.findall(r"`([\w-]+)`", sentence) == list(commands)


def test_unknown_flag_exits_2():
    assert run(["generate", "--seed", 1, "--out", "x.json", "--bogus"]) == 2
    # the baseline is no embedding detector: --kind offers the five and `all`
    assert run(["fit-detector", "--corpus", "c.json", "--model", "m.json",
                "--kind", "recon_ae", "--out", "d.json"]) == 2


def test_missing_artifact_names_it(workdir, capsys):
    code = run(["evaluate", "--suite", workdir / "suite.json",
                "--t2v-model", workdir / "nope.json",
                "--recon-model", workdir / "recon.json",
                "--detectors", *detector_paths(workdir),
                "--out", workdir / "r.json"])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_evaluate_and_report(workdir, capsys, monkeypatch):
    out = workdir / "report.json"
    code = run(["evaluate", "--suite", workdir / "suite.json",
                "--t2v-model", workdir / "t2v.json",
                "--recon-model", workdir / "recon.json",
                "--detectors", *detector_paths(workdir),
                "--seed", 5, "--out", out])
    assert code == 0
    report = load_report(out)
    assert set(report.results) == {"recon_ae", "t2v_iforest", "t2v_lof",
                                   "t2v_ocsvm", "t2v_ee", "t2v_deep_svdd"}
    assert report.timestamp is None
    capsys.readouterr()
    assert run(["report", "--report", out]) == 0
    text = capsys.readouterr().out
    assert "Reconstruction AE (baseline)" in text and "AN-4F" in text

    # the benchmark's output checks read these files as JSON: a format change
    # that breaks them fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    results = workloads._load(str(out))["results"]
    split = workloads._load(str(workdir / "corpus.json"))["split"]
    assert workloads.grid_present(results)
    assert workloads.totals_match(results, len(split["test"]))
    assert all(math.isfinite(workloads._load(str(p))["threshold"])
               for p in detector_paths(workdir))
    assert all(isinstance(workloads._load(str(workdir / name))["loss_curve"], list)
               for name in ("t2v.json", "recon.json"))


@pytest.mark.parametrize("text", ["[]", "3", "null"])
def test_report_on_a_non_object_document_exits_1(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    assert run(["report", "--report", path]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


def test_evaluate_rejects_a_second_detector_file_of_a_kind(workdir, tmp_path, capsys):
    other = tmp_path / "det.json"
    assert run(["fit-detector", "--corpus", workdir / "corpus.json", "--model",
                workdir / "t2v.json", "--kind", "lof", "--seed", 6, "--out", other]) == 0
    out = tmp_path / "r.json"
    code = run(["evaluate", "--suite", workdir / "suite.json",
                "--t2v-model", workdir / "t2v.json",
                "--recon-model", workdir / "recon.json",
                "--detectors", *detector_paths(workdir), other, "--out", out])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {workdir / 'det.lof.json'} and {other} "
                                       "are both lof detectors\n")
    assert not out.exists()


def test_evaluate_requires_calibrated_baseline(workdir, capsys):
    code = run(["evaluate", "--suite", workdir / "suite.json",
                "--t2v-model", workdir / "t2v.json",
                "--recon-model", workdir / "t2v.json",
                "--detectors", *detector_paths(workdir),
                "--out", workdir / "r2.json"])
    assert code == 1
    assert "calibration" in capsys.readouterr().err


def test_search_command(workdir):
    out = workdir / "search.json"
    assert run(["search", "--corpus", workdir / "corpus.json", "--variant", "t2v",
                "--trials", 1, "--seed", 5, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["best_index"] == 0
    assert doc["best_config"] == doc["trials"][0]["config"]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"windows": 25}))
    out = tmp_path / "c.json"
    assert run(["generate", "--seed", 3, "--config", cfg, "--out", out]) == 0
    assert load_corpus(out).provenance["effective_config"]["windows"] == 25


@pytest.mark.parametrize("flag", [["--test-fraction", "0.1"], ["--test-fraction=0.1"],
                                  ["--test-frac", "0.1"]])
def test_flag_given_at_its_default_value_beats_the_config_file(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"windows": 40, "test_fraction": 0.5}))
    out = tmp_path / "c.json"
    assert run(["generate", "--seed", 3, *flag, "--config", cfg, "--out", out]) == 0
    corpus = load_corpus(out)
    assert corpus.provenance["effective_config"]["test_fraction"] == 0.1
    assert (len(corpus.windows), len(corpus.test_idx)) == (40, 4)


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code = run(["generate", "--seed", 3, "--config", cfg, "--out", tmp_path / "c.json"])
    assert code == 1
    assert "bogus_key" in capsys.readouterr().err


EVALUATE = ["evaluate", "--suite", "s", "--t2v-model", "t", "--recon-model", "r",
            "--detectors", "d"]
PREPROCESS = ["preprocess", "--inputs", "a.csv", "--features", "s0"]


@pytest.mark.parametrize("command, overrides", [
    (["generate", "--windows", 20], {"out": "x.json"}),
    (["generate", "--out", "x.json"], {"out": "y.json"}),
    (["train", "--out", "x.json"], {"corpus": "c.json", "epochs": 2}),
    (["evaluate", "--t2v-model", "t", "--recon-model", "r", "--out", "x.json"],
     {"suite": "s", "detectors": ["d1"]})])
def test_config_keys_naming_required_flags_exit_1_before_any_work(
        tmp_path, capsys, monkeypatch, command, overrides):
    """argparse takes no default for a required flag, so the config file cannot
    supply one: the command says so and exits 1, whether or not the flag is given."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    required = [key for key in overrides if key != "epochs"]
    assert run([*command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config keys {required} name required flags")
    assert "command line" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, text", [
    (["generate"], "[]"), (["generate"], "3"), (["generate"], '{"windows": "abc"}'),
    (["generate"], '{"test_fraction": "0.1"}'), (["generate"], '{"seed": true}'),
    (["train", "--corpus", "c"], '{"variant": "lstm"}'),
    (PREPROCESS, '{"auto_resample": 1}'), (EVALUATE, '{"detectors": "d1"}')])
def test_malformed_config_file_exits_1(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o.json"
    assert run([*command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: config ")
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    (["generate"], {"test_fraction": 1}), (PREPROCESS, {"auto_resample": True}),
    (["train", "--corpus", "c"], {"variant": "reconstruction"}),
    (EVALUATE, {"detectors": ["d1", "d2"]})])
def test_config_values_that_fit_their_flags_are_accepted(tmp_path, capsys, command, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    run([*command, "--config", cfg, "--out", tmp_path / "o.json"])   # fails on the inputs
    assert "does not fit" not in capsys.readouterr().err


def run_without_warnings(args):
    """`run(args)` and the warnings it raised, whatever the warning filters say."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    return code, [str(w.message) for w in caught]


def test_training_divergence_exits_1(workdir, tmp_path, capsys):
    """Its `error:` line is all it prints: no numpy overflow warning before it."""
    out = tmp_path / "m.json"
    assert run_without_warnings(["train", "--corpus", workdir / "corpus.json", "--epochs", 2,
                                 "--lr", "1e30", "--out", out]) == (1, [])
    assert re.fullmatch(r"error: non-finite loss at epoch \d+, batch \d+\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_deep_svdd_divergence_exits_1(workdir, tmp_path, capsys, monkeypatch):
    from t2vad import detect
    original = detect.fit_deep_svdd
    monkeypatch.setattr(detect, "fit_deep_svdd",
                        lambda z, widths, epochs, batch, lr, decay, seed:
                        original(z, widths, epochs, batch, 1e30, decay, seed))
    out = tmp_path / "svdd.json"
    assert run_without_warnings(["fit-detector", "--corpus", workdir / "corpus.json", "--model",
                                 workdir / "t2v.json", "--kind", "deep_svdd",
                                 "--out", out]) == (1, [])
    assert re.fullmatch(r"error: non-finite loss at epoch \d+, batch \d+\n",
                        capsys.readouterr().err)
    assert not out.exists()


def stored_array_dtypes(doc):
    if isinstance(doc, dict):
        own = [doc["dtype"]] if set(doc) == {"shape", "dtype", "data"} else []
        return own + [t for value in doc.values() for t in stored_array_dtypes(value)]
    if isinstance(doc, list):
        return [t for value in doc for t in stored_array_dtypes(value)]
    return []


def test_training_artifacts_rerun_byte_identical(workdir, tmp_path):
    """Two runs of both trainings and of fit-detector write the same bytes: the
    float32 training loops are as deterministic as the float64 files they fill."""
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        for variant in ("t2v", "reconstruction"):
            assert run(["train", "--corpus", workdir / "corpus.json", "--variant", variant,
                        "--epochs", 2, "--seed", 5, "--out", run_dir / f"{variant}.json"]) == 0
        assert run(["fit-detector", "--corpus", workdir / "corpus.json", "--model",
                    run_dir / "t2v.json", "--kind", "all", "--seed", 5,
                    "--out", run_dir / "det.json"]) == 0
    names = ["t2v.json", "reconstruction.json", *(p.name for p in detector_paths(tmp_path))]
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes(), name
        dtypes = stored_array_dtypes(json.loads(first))
        assert dtypes and set(dtypes) == {"float64"}, name


def test_fit_detector_prints_the_deep_svdd_loss_curve_ends(workdir, capsys):
    capsys.readouterr()
    assert run(["fit-detector", "--corpus", workdir / "corpus.json", "--model",
                workdir / "t2v.json", "--kind", "deep_svdd", "--seed", 5,
                "--out", workdir / "svdd.json"]) == 0
    curve = json.loads((workdir / "svdd.json").read_text())["state"]["loss_curve"]
    assert len(curve) == deepsvdd.EPOCHS
    assert f"loss {curve[0]:.5f} -> {curve[-1]:.5f}" in capsys.readouterr().out


def test_fit_detector_all_writes_no_file_when_a_later_kind_fails(workdir, tmp_path, capsys):
    """The files of an earlier run stay as they were: a failed `--kind all` never
    leaves some kinds refitted and the rest stale. On 31 training windows iforest,
    LOF and OCSVM fit, and EE, which needs more than 32, fails."""
    small = tmp_path / "small_corpus.json"
    assert run(["generate", "--seed", 6, "--windows", 34, "--out", small]) == 0
    assert len(load_corpus(small).train_idx) == 31
    before = {p.name: p.read_bytes() for p in detector_paths(workdir)}
    for name, data in before.items():
        (tmp_path / name).write_bytes(data)
    empty = tmp_path / "empty"
    empty.mkdir()
    for out_dir in (tmp_path, empty):
        capsys.readouterr()
        assert run(["fit-detector", "--corpus", small, "--model", workdir / "t2v.json",
                    "--kind", "all", "--seed", 5, "--out", out_dir / "det.json"]) == 1
        captured = capsys.readouterr()
        assert "need more than 32 samples, got 31" in captured.err
        assert captured.out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.glob("det.*.json")} == before
    assert list(empty.iterdir()) == []


def test_commands_do_not_mutate_inputs(workdir):
    before = (workdir / "corpus.json").read_bytes()
    assert run(["build-testsets", "--corpus", workdir / "corpus.json", "--seed", 9,
                "--out", workdir / "suite2.json"]) == 0
    assert (workdir / "corpus.json").read_bytes() == before


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("T2VAD_OUT_DIR", str(tmp_path))
    assert run(["generate", "--seed", 2, "--windows", 20, "--out", "env.json"]) == 0
    assert (tmp_path / "env.json").exists()


COLS = ",".join(f"s{i}" for i in range(6))


def write_plant_csv(path, n_rows):
    rows = [f"{t}," + ",".join(f"{np.sin(t / 10.0 + i):.4f}" for i in range(6))
            for t in range(n_rows)]
    path.write_text(f"timestamp,{COLS}\n" + "\n".join(rows) + "\n")
    return path


def test_preprocess_command(tmp_path):
    csv = write_plant_csv(tmp_path / "plant.csv", 1150)
    out = tmp_path / "corpus.json"
    code = run(["preprocess", "--inputs", csv, "--features", COLS,
                "--seed", 4, "--fence-k", 10.0, "--out", out])
    assert code == 0
    corpus = load_corpus(out)
    assert corpus.windows.data.shape == (12, 100, 6)   # 11 full + one padded remainder
    assert "padded" in corpus.windows.tags[-1]
    assert not corpus.windows.anomalous.any()


def test_preprocess_appends_files_in_order(tmp_path):
    a = write_plant_csv(tmp_path / "a.csv", 1150)
    b = write_plant_csv(tmp_path / "b.csv", 5)     # below the 10-row minimum: no window
    c = write_plant_csv(tmp_path / "c.csv", 250)
    out = tmp_path / "corpus.json"
    assert run(["preprocess", "--inputs", a, b, c, "--features", COLS, "--seed", 4,
                "--fence-k", 10.0, "--out", out]) == 0
    windows = load_corpus(out).windows
    assert windows.origins == [f"{a}#{i}" for i in range(12)] + [f"{c}#{i}" for i in range(3)]
    assert [sorted(t) for t in windows.tags] == (
        [[]] * 11 + [["padded"]] + [[], [], ["padded"]])


def test_preprocess_with_no_windows_exits_1(tmp_path, capsys):
    csv = write_plant_csv(tmp_path / "short.csv", 5)
    assert run(["preprocess", "--inputs", csv, "--features", COLS,
                "--out", tmp_path / "corpus.json"]) == 1
    assert "produced no windows" in capsys.readouterr().err
    assert not (tmp_path / "corpus.json").exists()


@pytest.mark.parametrize("windows, fraction", [(40, "-0.1"), (40, "1.5"), (10, "0.01")])
def test_generate_rejects_a_test_fraction_that_empties_a_side(tmp_path, capsys, windows,
                                                              fraction):
    out = tmp_path / "corpus.json"
    assert run(["generate", "--windows", windows, "--test-fraction", fraction,
                "--out", out]) == 1
    assert "leaves a side empty" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_rejects_a_test_fraction_that_empties_a_side(tmp_path, capsys):
    csv = write_plant_csv(tmp_path / "plant.csv", 1150)
    assert run(["preprocess", "--inputs", csv, "--features", COLS, "--fence-k", 10.0,
                "--test-fraction", "0.01", "--out", tmp_path / "corpus.json"]) == 1
    assert "leaves a side empty" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["0", "-3"])
def test_preprocess_rejects_a_resample_width_below_1(tmp_path, capsys, width):
    csv = write_plant_csv(tmp_path / "plant.csv", 1150)
    out = tmp_path / "corpus.json"
    assert run(["preprocess", "--inputs", csv, "--features", COLS, "--fence-k", 10.0,
                "--resample", width, "--out", out]) == 1
    assert "window_seconds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["t2v", "reconstruction"])
@pytest.mark.parametrize("quantile", ["1.5", "1.0", "0", "-0.5"])
def test_train_rejects_a_threshold_quantile_outside_0_1_before_training(
        workdir, tmp_path, capsys, monkeypatch, variant, quantile):
    def no_training(*args):
        raise AssertionError("trained despite a bad threshold quantile")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "m.json"
    assert run(["train", "--corpus", workdir / "corpus.json", "--variant", variant,
                "--threshold-quantile", quantile, "--out", out]) == 1
    assert capsys.readouterr().err == "error: threshold quantile must be in (0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("variant", ["t2v", "reconstruction"])
@pytest.mark.parametrize("flag, value", [("--filters", "0"), ("--filters", "-2"),
                                         ("--kernel", "-1")])
def test_train_rejects_filters_or_kernel_below_1_without_a_traceback(
        workdir, tmp_path, capsys, variant, flag, value):
    """These sizes used to reach numpy: an OverflowError traceback from the
    weight draw and a divide-by-zero warning, or numpy's negative-dimensions
    message."""
    out = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--corpus", workdir / "corpus.json", "--variant", variant,
                    flag, value, "--epochs", 1, "--out", out]) == 1
    assert capsys.readouterr().err == ("error: filters, kernel size and encoder stride "
                                       "must be >= 1\n")
    assert not out.exists()


def test_train_checks_its_ae_settings_before_it_reads_the_corpus(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["train", "--corpus", tmp_path / "nope.json", "--variant", "t2v",
                "--filters", "0", "--out", out]) == 1
    assert capsys.readouterr().err == ("error: filters, kernel size and encoder stride "
                                       "must be >= 1\n")
    assert not out.exists()


# Each field of the three settings dataclasses, and the flag that sets it.
# A field without a flag is a setting no command can reach: make it a
# module constant instead, or give it a flag and an entry here.
FIELD_FLAGS = {
    DetectorConfig: ("fit-detector", {"threshold_quantile": "--threshold-quantile",
                                      "seed": "--seed"}),
    SynthParams: ("generate", {"n_windows": "--windows", "test_fraction": "--test-fraction"}),
    InjectionSpec: ("build-testsets", {"anomaly_fraction": "--anomaly-fraction",
                                       "flat_features": "--flat-features",
                                       "step_alpha": "--step-alpha",
                                       "noise_fraction": "--noise-fraction",
                                       "salt_pepper_prob": "--salt-pepper-prob",
                                       "seed": "--seed"}),
}


@pytest.mark.parametrize("cls", FIELD_FLAGS, ids=lambda cls: cls.__name__)
def test_every_settings_field_is_a_flag_of_its_command(cls):
    command, flags = FIELD_FLAGS[cls]
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {o for a in commands[command]._actions for o in a.option_strings}
    assert sorted(f.name for f in fields(cls)) == sorted(flags)
    assert {flag for flag in flags.values() if flag not in options} == set()
