import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from shiftadapt import adapt, cli, config, correction, data, metrics, model
from shiftadapt.adapt import EpochRecord
from shiftadapt.cli import main
from shiftadapt.errors import ConfigError


def small_synth(seed=7):
    return {
        "n_source": 300,
        "n_target": 360,
        "source_prior": 0.5,
        "target_prior": 0.9,
        "class_means_source": [[-1.0] * 8, [1.0] * 8],
        "class_means_target": [[-2.0] * 8, [0.0] * 8],
        "noise_scale": 1.0,
        "seed": seed,
    }


def write_config(tmp_path, out_dir, **extra):
    cfg = {
        "data": {"synth": small_synth(), "calib_size": 60},
        "model": {"hash_dim": 1024, "d_embed": 16, "d_hidden": 16},
        "train": {"max_epochs": 5},
        "adapt": {"epochs": 2, "batch_size": 16},
        "output": {"directory": str(out_dir)},
    }
    for dotted, value in extra.items():
        node = cfg
        keys = dotted.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_synth(tmp_path, name="synthdir", seed=7):
    out = tmp_path / name
    cfg_path = write_config(tmp_path, out)
    assert main(["synth", "--config", str(cfg_path), "--set",
                 f"data.synth.seed={seed}"]) == 0
    return out, cfg_path


def with_data_paths(args, out):
    return args + [
        "--set", f"data.source={out}/source.jsonl",
        "--set", f"data.target={out}/target.jsonl",
        "--set", f"data.calib={out}/calib.jsonl",
        "--set", f"data.target_labels={out}/target_labels.jsonl",
    ]


class TestSynth:
    def test_writes_four_files_and_prints_priors(self, tmp_path, capsys):
        out, _ = run_synth(tmp_path)
        for name in ("source.jsonl", "target.jsonl", "target_labels.jsonl", "calib.jsonl"):
            assert (out / name).stat().st_size > 0
        assert (out / "resolved_config.json").exists()
        printed = json.loads(capsys.readouterr().out)
        # binomial 3-sigma band around 0.9 for n=300 is about +/- 0.052
        assert abs(printed["target_prior"] - 0.9) <= 0.06
        assert printed["n_target"] == 300 and printed["n_calib"] == 60

    def test_deterministic_outputs(self, tmp_path):
        out1, _ = run_synth(tmp_path, "a")
        out2, _ = run_synth(tmp_path, "b")
        for name in ("source.jsonl", "target.jsonl", "target_labels.jsonl", "calib.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_target_jsonl_is_unlabeled_and_aligned_with_truth(self, tmp_path):
        out, _ = run_synth(tmp_path)
        pool = [json.loads(l) for l in (out / "target.jsonl").read_text().splitlines()]
        truth = [json.loads(l) for l in (out / "target_labels.jsonl").read_text().splitlines()]
        assert all(row["label"] is None for row in pool)
        assert [r["text"] for r in pool] == [r["text"] for r in truth]
        assert all(r["label"] in (0, 1) for r in truth)

    def test_calib_size_must_fit(self, tmp_path):
        cfg_path = write_config(tmp_path, tmp_path / "x", **{"data.calib_size": 400})
        assert main(["synth", "--config", str(cfg_path)]) == cli.EXIT_USAGE

    def test_identical_class_means_warn_and_write_every_output(self, tmp_path, capsys):
        same = [[0.5] * 8, [0.5] * 8]
        out = tmp_path / "same"
        cfg_path = write_config(tmp_path, out, **{"data.synth.class_means_source": same,
                                                  "data.synth.class_means_target": same})
        assert main(["synth", "--config", str(cfg_path)]) == cli.EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {domain} class means are identical; classes are indistinguishable"
            for domain in ("source", "target")]
        for name in ("source.jsonl", "target.jsonl", "target_labels.jsonl", "calib.jsonl",
                     "resolved_config.json"):
            assert (out / name).stat().st_size > 0


# resolved_config.json of `synth --set output.directory=golden`: every run
# config default, as a literal so that a default that moves fails here.
GOLDEN_RESOLVED = {
    "data": {
        "source": None, "target": None, "calib": None, "target_labels": None,
        "synth": {
            "n_source": 1200, "n_target": 1200, "source_prior": 0.5, "target_prior": 0.9,
            "class_means_source": [[-1.0] * 8, [1.0] * 8],
            "class_means_target": [[-2.0] * 8, [0.0] * 8],
            "noise_scale": 1.0, "seed": 7,
        },
        "calib_size": 200, "split_ratios": [0.7, 0.1, 0.2],
    },
    "model": {"checkpoint": None, "hash_dim": 4096, "d_embed": 32, "d_hidden": 32, "seed": 0},
    "train": {"learning_rate": 0.001, "batch_size": 24, "max_epochs": 5, "seed": 0},
    "adapt": {
        "batch_size": 24, "tau": 0.7, "lambda": 0.01, "epochs": 3, "seed": 0,
        "iterations_per_epoch": None, "learning_rate": 0.001, "label_correction": True,
    },
    "output": {"directory": "golden"},
}


def flatten(cfg, path=""):
    for key, value in cfg.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from flatten(value, dotted)
        else:
            yield dotted


def schema_leaves(cls, path=""):
    """(dotted key, annotation) of each leaf under config dataclass cls;
    Optional sections are walked into."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        dotted = f"{path}.{key}" if path else key
        tp = hints[f.name]
        inner = [a for a in typing.get_args(tp) if a is not type(None)]
        if typing.get_origin(tp) is typing.Union and len(inner) == 1 \
                and dataclasses.is_dataclass(inner[0]):
            tp = inner[0]
        if dataclasses.is_dataclass(tp):
            yield from schema_leaves(tp, dotted)
        else:
            yield dotted, tp


def is_json_leaf(tp) -> bool:
    """int, float, str or bool, or a list or Optional of one."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        inner = [a for a in args if a is not type(None)]
        return len(args) == 2 and len(inner) == 1 and is_json_leaf(inner[0])
    if origin is list:
        return is_json_leaf(args[0])
    return tp in (int, float, str, bool)


# An integer past CPython's digit limit (3.11, and 3.10 from 3.10.7): older
# interpreters read any integer, so those cases cannot arise there.
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no integer digit limit")


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestConfigMachinery:
    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, tmp_path / "x", **{"adapt.bogus": 1})
        assert main(["synth", "--config", str(cfg_path)]) == cli.EXIT_USAGE

    def test_set_override_lands_in_resolved_config(self, tmp_path):
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, out)
        assert main(["synth", "--config", str(cfg_path), "--set", "adapt.tau=0.75"]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["adapt"]["tau"] == 0.75

    def test_invalid_override_value(self, tmp_path):
        cfg_path = write_config(tmp_path, tmp_path / "x")
        assert main(["synth", "--config", str(cfg_path), "--set", "adapt.tau=2"]) == cli.EXIT_USAGE

    def test_missing_required_path(self, tmp_path):
        cfg_path = write_config(tmp_path, tmp_path / "x")
        assert main(["pretrain", "--config", str(cfg_path)]) == cli.EXIT_USAGE

    def test_defaults_are_schema_valid(self):
        cli.validate_config(cli.default_config())

    def test_every_config_leaf_is_typed(self):
        # Every key of the golden config is a leaf the schema types, so
        # config.check, and a failure sweep over the annotations, reach it.
        leaves = dict(schema_leaves(cli.RunConfig))
        assert sorted(leaves) == sorted(flatten(GOLDEN_RESOLVED))
        untyped = {key: tp for key, tp in leaves.items() if not is_json_leaf(tp)}
        assert not untyped
        for tp in (tuple[int, int], dict, np.ndarray):
            with pytest.raises(ConfigError, match="unsupported annotation"):
                config.check(tp, [1, 2], "key")

    def test_default_resolved_config_is_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--set", "output.directory=golden"]) == 0
        text = (tmp_path / "golden" / "resolved_config.json").read_text(encoding="utf-8")
        assert text == json.dumps(GOLDEN_RESOLVED, indent=2, sort_keys=True) + "\n"

    def test_lambda_key_sets_lam(self):
        cfg = cli.load_config(None, ["adapt.lambda=0.02"])
        assert cli.validate_config(cfg).adapt.lam == 0.02

    @pytest.mark.parametrize("override", [
        # the first six name settings that are fixed, not keys: Adam's
        # constants, the bandwidth, the stage-1 refit and the vocabulary
        'adapt.kernel.gamma="x"',
        "train.optimizer.beta1=true",
        "adapt.kernel.bogus=1",
        'train.optimizer.name="sgd"',
        "adapt.refresh_pseudo_labels=false",
        'data.synth.vocab_mode="numeric_tokens"',
        "adapt.lam=0.02",
        'data.synth.n_source="abc"',
        "data.synth.class_means_source=5",
        "data.synth.seed=1.5",
        # a boolean for a float, and a wrong inner type under Optional[int]
        "adapt.learning_rate=true",
        'adapt.iterations_per_epoch="x"',
        # non-finite floats, also inside a list[float]
        "adapt.learning_rate=Infinity",
        "adapt.lambda=NaN",
        "train.learning_rate=NaN",
        "data.split_ratios=[0.7, NaN, 0.2]",
        # negative seeds, which numpy's generators reject
        "model.seed=-1",
        "train.seed=-1",
        "adapt.seed=-1",
        "data.synth.seed=-1",
        # class means that are not finite or whose quantized coordinates
        # overflow, of the test scenario's dimension 8
        "data.synth.class_means_source=[[NaN, -1, -1, -1, -1, -1, -1, -1], [1, 1, 1, 1, 1, 1, 1, 1]]",
        "data.synth.class_means_source=[[-1, -1, -1, -1, -1, -1, -1, -1], [Infinity, 1, 1, 1, 1, 1, 1, 1]]",
        "data.synth.class_means_target=[[1e308, -2, -2, -2, -2, -2, -2, -2], [0, 0, 0, 0, 0, 0, 0, 0]]",
        # a noise scale that overflows the coordinates, and integers past the float range
        "data.synth.noise_scale=1e308",
        pytest.param("data.synth.noise_scale=1" + "0" * 400, id="data.synth.noise_scale=10**400"),
        pytest.param("train.learning_rate=1" + "0" * 400, id="train.learning_rate=10**400"),
        # a long override without "=", and a long unknown key
        pytest.param("x" * 500, id="500 characters without ="),
        pytest.param("adapt." + "x" * 500 + "=1", id="adapt.<500 characters>=1"),
        # a value nested past the JSON parser's recursion limit
        pytest.param("adapt.tau=" + "[" * 100_000 + "]" * 100_000, id="adapt.tau=<nested 100,000 deep>"),
        # featurize masks its hashes, so the width must be a power of two
        "model.hash_dim=3000",
        # widths past 2^12, which numpy refuses at once at 2^40
        "model.d_embed=1099511627776",
        "model.d_hidden=1099511627776",
        "model.d_embed=0",
        # past CPython's integer digit limit, which json.loads raises as ValueError
        pytest.param("adapt.epochs=1" + "0" * 5000, id="adapt.epochs=10**5000",
                     marks=NEEDS_DIGIT_LIMIT),
        # run config values that their dataclass refuses
        "data.calib_size=0",
        "data.split_ratios=[0.5, 0.5]",
        "data.synth=null",
        "adapt=5",
        "data.synth.class_means_source=[[-1, -1, -1, -1, -1, -1, -1, -1]]",
        "train.max_epochs=-1",
        # zero-length class mean vectors
        'data.synth={"n_source": 300, "n_target": 360, "source_prior": 0.5, "target_prior": 0.9, '
        '"class_means_source": [[], []], "class_means_target": [[], []]}',
    ])
    def test_bad_key_or_type_exits_2_with_one_line(self, tmp_path, capsys, override):
        cfg_path = write_config(tmp_path, tmp_path / "x")
        assert main(["synth", "--config", str(cfg_path), "--set", override]) == cli.EXIT_USAGE
        err = assert_one_line_error(capsys)
        assert len(err) < 120, err  # a 401-digit value is echoed shortened
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        "adapt.learning_rate=true",
        'adapt.iterations_per_epoch="x"',
        "data.synth.seed=1.5",
    ])
    def test_wrong_type_is_named_not_unknown(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"config key {re.escape(key)} has invalid value"):
            cli.validate_config(cli.load_config(None, [override]))

    @pytest.mark.parametrize("case", [
        "config_file", "dataset", "checkpoint", "evaluate_checkpoint", "single_class_source",
        "correction_not_json", "correction_without_b", "correction_b_not_numeric",
        "correction_w_three_entries", "correction_w_nan", "correction_w_huge_int",
        "correction_discarded_with_bias",
        "checkpoint_not_npz",
        "checkpoint_without_meta", "checkpoint_nan_weight", "adapt_checkpoint_nan_weight",
        "evaluate_empty_dataset", "pretrain_four_examples", "pretrain_empty_test_split",
        "checkpoint_overflows", "adapt_pretraining_diverges", "adapt_contrastive_diverges",
        "pretrain_hash_dim_2_62", "pretrain_d_embed_2_40",
        "config_not_object", "correction_not_object", "correction_bias_discarded_not_bool",
        "dataset_line_without_label", "dataset_text_not_string", "pretrain_zero_split_ratio",
        "checkpoint_bare_npy", "adapt_empty_target", "adapt_empty_calib", "pretrain_empty_source",
        "adapt_checkpoint_differs_from_model", "pretrain_with_checkpoint",
        "evaluate_out_in_missing_directory",
    ])
    def test_expected_failure_exits_2_with_one_line(self, pipeline_dir, tmp_path, capsys, case):
        data_dir, missing = pipeline_dir["data"], str(tmp_path / "missing")
        rows = (data_dir / "source.jsonl").read_text(encoding="utf-8").splitlines()
        ones = tmp_path / "ones.jsonl"
        ones.write_text("".join(r + "\n" for r in rows if json.loads(r)["label"] == 1))
        empty, four, nine = tmp_path / "empty.jsonl", tmp_path / "four.jsonl", tmp_path / "nine.jsonl"
        empty.write_text("")
        four.write_text("".join(r + "\n" for r in rows[:4]))
        nine.write_text("".join(r + "\n" for r in rows[:9]))
        pretrain = ["pretrain", "--config", str(pipeline_dir["cfg"]),
                    "--set", f"output.directory={tmp_path / 'p'}"]
        adapt = with_data_paths(["adapt", "--config", str(pipeline_dir["cfg"]),
                                 "--set", f"output.directory={tmp_path / 'o'}"], data_dir)
        pretrained = pipeline_dir["pre"] / "pretrained.npz"
        with np.load(pretrained) as npz:
            arrays = {k: npz[k] for k in npz.files}
        no_meta, nan_weight = tmp_path / "no_meta.npz", tmp_path / "nan_weight.npz"
        np.savez(no_meta, **{k: v for k, v in arrays.items() if k != "meta"})
        huge_weight = tmp_path / "huge_weight.npz"  # finite, but X @ embed @ hidden_w overflows
        np.savez(huge_weight, **{**arrays, "embed": np.full_like(arrays["embed"], 1e300),
                                 "hidden_w": np.full_like(arrays["hidden_w"], 1e300)})
        arrays["out_w"][0, 0] = np.nan
        np.savez(nan_weight, **arrays)
        evaluate = ["evaluate", "--data", str(pipeline_dir["pre"] / "source_test.jsonl")]

        def text_file(name, text):
            (tmp_path / name).write_text(text, encoding="utf-8")
            return str(tmp_path / name)

        corrections = []

        def with_correction(text):
            # One file per case: the whole table below is built before its case runs.
            corrections.append(text)
            return evaluate + ["--checkpoint", str(pretrained), "--correction",
                               text_file(f"correction{len(corrections)}.json", text)]

        bare_npy = tmp_path / "bare.npy"
        np.save(bare_npy, np.arange(3.0))
        adapt_on_pretrained = adapt + ["--set", f"model.checkpoint={pretrained}"]

        argv = {
            "config_file": ["synth", "--config", missing],
            "config_not_object": ["synth", "--config", text_file("list.json", "[1, 2]")],
            "dataset": adapt + ["--set", f"data.target={missing}"],
            "checkpoint": adapt + ["--set", f"model.checkpoint={missing}"],
            "evaluate_checkpoint": ["evaluate", "--checkpoint", missing,
                                    "--data", str(pipeline_dir["pre"] / "source_test.jsonl")],
            "single_class_source": adapt + [
                "--set", f"model.checkpoint={pipeline_dir['pre']}/pretrained.npz",
                "--set", f"data.source={ones}",
            ],
            "correction_not_json": with_correction("w = [1, 1]"),
            "correction_without_b": with_correction('{"w": [1.0, 1.0]}'),
            "correction_b_not_numeric": with_correction('{"w": [1.0, 1.0], "b": ["x", 0.0]}'),
            "correction_w_three_entries": with_correction('{"w": [1, 1, 1], "b": [0, 0]}'),
            "correction_w_nan": with_correction('{"w": [NaN, 1.0], "b": [0.0, 0.0]}'),
            "correction_w_huge_int": with_correction('{"w": [1%s, 1.0], "b": [0.0, 0.0]}' % ("0" * 400)),
            "correction_discarded_with_bias": with_correction(
                '{"w": [1, 1], "b": [0, 50], "bias_discarded": true}'),
            "correction_not_object": with_correction("[1, 1]"),
            "correction_bias_discarded_not_bool": with_correction(
                '{"w": [1, 1], "b": [0, 0], "bias_discarded": "yes"}'),
            "dataset_line_without_label": ["evaluate", "--checkpoint", str(pretrained), "--data",
                                           text_file("no_label.jsonl", '{"text": "a b"}\n')],
            "dataset_text_not_string": ["evaluate", "--checkpoint", str(pretrained), "--data",
                                        text_file("int_text.jsonl", '{"text": 5, "label": 1}\n')],
            "checkpoint_bare_npy": evaluate + ["--checkpoint", str(bare_npy)],
            "checkpoint_not_npz": evaluate + ["--checkpoint", text_file("ck.npz", "not an npz")],
            "checkpoint_without_meta": evaluate + ["--checkpoint", str(no_meta)],
            "checkpoint_nan_weight": evaluate + ["--checkpoint", str(nan_weight)],
            "checkpoint_overflows": evaluate + ["--checkpoint", str(huge_weight)],
            "adapt_checkpoint_nan_weight": adapt + ["--set", f"model.checkpoint={nan_weight}"],
            "evaluate_empty_dataset": ["evaluate", "--checkpoint", str(pretrained),
                                       "--data", str(empty)],
            "adapt_empty_target": adapt_on_pretrained + ["--set", f"data.target={empty}"],
            "adapt_empty_calib": adapt_on_pretrained + ["--set", f"data.calib={empty}"],
            # 4 rows leave the validation split empty: no epoch could be selected
            "pretrain_four_examples": pretrain + ["--set", f"data.source={four}"],
            # 9 rows at these ratios give 8 train, 1 validation and 0 test rows
            "pretrain_empty_test_split": pretrain + [
                "--set", f"data.source={nine}", "--set", "data.split_ratios=[0.7, 0.2, 0.1]",
            ],
            # Adam steps of 1e300 overflow the next forward's hidden pre-activation
            "adapt_pretraining_diverges": adapt + [
                "--set", "train.learning_rate=1e300", "--set", "train.max_epochs=1",
                "--set", "adapt.epochs=1",
            ],
            # a 1e300 contrastive gradient overflows Adam's second moment
            "adapt_contrastive_diverges": adapt + [
                "--set", "adapt.lambda=1e300", "--set", "adapt.epochs=1",
            ],
            # compact allocates 9 bytes a row, so a width past 2^24 is refused up front
            "pretrain_hash_dim_2_62": with_data_paths(pretrain, data_dir) + [
                "--set", f"model.hash_dim={2 ** 62}"],
            # init's hidden_w would be 2^40 x 32 cells; the width bound refuses it first
            "pretrain_d_embed_2_40": with_data_paths(pretrain, data_dir) + [
                "--set", f"model.d_embed={2 ** 40}"],
            "pretrain_zero_split_ratio": with_data_paths(pretrain, data_dir) + [
                "--set", "data.split_ratios=[0.8, 0.0, 0.2]"],
            "pretrain_empty_source": pretrain + ["--set", f"data.source={empty}"],
            # the checkpoint holds hash_dim 1024 and d_embed 16, and seed 0
            "adapt_checkpoint_differs_from_model": adapt_on_pretrained + [
                "--set", "model.d_embed=8", "--set", "model.seed=3"],
            # pretrain trains from model.*; resolved_config.json would record an unread file
            "pretrain_with_checkpoint": with_data_paths(pretrain, data_dir) + [
                "--set", f"model.checkpoint={pretrained}"],
            # --out is written into a directory that exists; none is made for it
            "evaluate_out_in_missing_directory": evaluate + [
                "--checkpoint", str(pretrained), "--out", str(tmp_path / "p" / "metrics.json")],
        }[case]
        assert main(argv) == cli.EXIT_USAGE
        err = assert_one_line_error(capsys)
        # an empty labelled set is refused by Dataset.labels(), naming the set
        empty_set = {"evaluate_empty_dataset": "empty", "pretrain_four_examples": "four/val",
                     "pretrain_empty_test_split": "nine/test", "adapt_empty_calib": "empty",
                     "pretrain_empty_source": "empty"}
        if case in empty_set:
            assert err == f"error: dataset {empty_set[case]!r} is empty\n"
        if case == "adapt_empty_target":
            assert err == "error: target dataset must be non-empty\n"
        if case == "adapt_checkpoint_differs_from_model":
            assert err == (f"error: {pretrained}: checkpoint differs from the run config: "
                           "d_embed 16 (model.d_embed 8), seed 0 (model.seed 3)\n")
        if case == "pretrain_with_checkpoint":
            assert err == ("error: model.checkpoint is read by adapt only; "
                           "pretrain does not use it\n")
        if case == "correction_w_huge_int":
            assert len(err) < 120, err
        assert not (tmp_path / "p").exists() and not (tmp_path / "o").exists()


# A JSON input that is not UTF-8, nested past the parser's recursion limit
# (RFC 8259 sections 8.1 and 9), or holding an integer past CPython's digit
# limit is malformed input: exit 2 and one line naming the file, and the
# line of a JSONL file.
BAD_JSON = {
    "not_utf8": b'{"text": "caf\xe9 au lait", "label": 1}',
    "nested": b"[" * 100_000 + b"]" * 100_000,
    "long_integer": b'{"text": "a b", "label": 1' + b"0" * 5000 + b"}",
}
JSON_INPUTS = ("data.source", "data.target", "data.calib", "data.target_labels",
               "evaluate --data", "--config", "--correction")


@pytest.mark.parametrize("where, fault", [
    pytest.param(where, fault, marks=NEEDS_DIGIT_LIMIT if fault == "long_integer" else ())
    for where in JSON_INPUTS for fault in sorted(BAD_JSON)
    # a non-UTF-8 correction file already exited 2 as a ValueError
    if (where, fault) != ("--correction", "not_utf8")
])
def test_unreadable_json_input_exits_2_naming_the_file(pipeline_dir, tmp_path, capsys, where, fault):
    data_dir, pre = pipeline_dir["data"], pipeline_dir["pre"]
    bad = tmp_path / "bad.json"
    if where.startswith("data.") or where == "evaluate --data":
        # one good line first, so the message must name line 2
        first = (data_dir / "source.jsonl").read_bytes().splitlines()[0]
        bad.write_bytes(first + b"\n" + BAD_JSON[fault] + b"\n")
    else:
        bad.write_bytes(BAD_JSON[fault])
    evaluate = ["evaluate", "--checkpoint", str(pre / "pretrained.npz"),
                "--data", str(pre / "source_test.jsonl")]
    if where.startswith("data."):
        argv = with_data_paths(["adapt", "--config", str(pipeline_dir["cfg"]),
                                "--set", f"output.directory={tmp_path / 'o'}",
                                "--set", f"model.checkpoint={pre / 'pretrained.npz'}"], data_dir)
        argv += ["--set", f"{where}={bad}"]
    elif where == "evaluate --data":
        argv = evaluate[:3] + ["--data", str(bad)]
    elif where == "--config":
        argv = ["synth", "--config", str(bad)]
    else:
        argv = evaluate + ["--correction", str(bad)]
    assert main(argv) == cli.EXIT_USAGE
    err = assert_one_line_error(capsys)
    jsonl = where != "--config" and where != "--correction"
    assert f"{bad}:2:" in err if jsonl else f"{bad}:" in err, err
    assert len(err) < 300, err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """synth + pretrain executed once; commands under test reuse the artifacts."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    out, cfg_path = run_synth(tmp_path)
    pre_dir = tmp_path / "pre"
    args = ["pretrain", "--config", str(cfg_path), "--set", f"output.directory={pre_dir}"]
    assert main(with_data_paths(args, out)) == 0
    return {"tmp": tmp_path, "data": out, "pre": pre_dir, "cfg": cfg_path}


class TestPretrain:
    def test_outputs_and_separable_ba(self, pipeline_dir):
        pre = pipeline_dir["pre"]
        metrics = json.loads((pre / "pretrain_metrics.json").read_text())
        assert (pre / "pretrained.npz").exists()
        assert (pre / "source_test.jsonl").exists()
        assert metrics["ba"] >= 0.95

    def test_deterministic_metrics(self, pipeline_dir, tmp_path):
        rerun = tmp_path / "pre2"
        args = ["pretrain", "--config", str(pipeline_dir["cfg"]),
                "--set", f"output.directory={rerun}"]
        assert main(with_data_paths(args, pipeline_dir["data"])) == 0
        assert (rerun / "pretrain_metrics.json").read_bytes() == (
            pipeline_dir["pre"] / "pretrain_metrics.json"
        ).read_bytes()

    def test_zero_epochs_band_over_seeds(self, pipeline_dir, tmp_path):
        # untrained model predicts near chance: 5-seed BA band 0.35..0.65
        for seed in range(5):
            out = tmp_path / f"z{seed}"
            args = [
                "pretrain", "--config", str(pipeline_dir["cfg"]),
                "--set", "train.max_epochs=0",
                "--set", f"model.seed={seed}",
                "--set", f"output.directory={out}",
            ]
            assert main(with_data_paths(args, pipeline_dir["data"])) == 0
            ba = json.loads((out / "pretrain_metrics.json").read_text())["ba"]
            assert 0.35 <= ba <= 0.65

    def test_unlabeled_source_rejected(self, pipeline_dir, tmp_path):
        args = ["pretrain", "--config", str(pipeline_dir["cfg"]),
                "--set", f"output.directory={tmp_path/'u'}",
                "--set", f"data.source={pipeline_dir['data']}/target.jsonl"]
        assert main(args) == cli.EXIT_USAGE


class TestAdapt:
    def adapt_args(self, pipeline_dir, out_dir, *extra):
        args = ["adapt", "--config", str(pipeline_dir["cfg"]),
                "--set", f"output.directory={out_dir}",
                "--set", f"model.checkpoint={pipeline_dir['pre']}/pretrained.npz"]
        return with_data_paths(args, pipeline_dir["data"]) + list(extra)

    def test_end_to_end_outputs(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "ad"
        assert main(self.adapt_args(pipeline_dir, out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (out / "adapted.npz").exists()
        assert (out / "trace.csv").exists()
        assert summary["eval_set"] == "target_labels"
        assert 0.0 <= summary["ba_before"] <= 1.0
        assert 0.0 <= summary["ba_after"] <= 1.0  # the gain bound is asserted in acceptance
        assert len(summary["correction"]["w"]) == 2
        assert summary["epoch_detail"][0]["n_pseudo"] > 0
        # each value once: the run's settings are in resolved_config.json,
        # and an epoch's entry is its EpochRecord
        assert set(summary) == {"ba_before", "ba_after", "ba_gain", "eval_set", "best_epoch",
                                "best_calib_ba", "correction", "replacement_batches",
                                "epoch_detail"}
        record_keys = {f.name for f in dataclasses.fields(EpochRecord)}
        assert all(set(e) == record_keys for e in summary["epoch_detail"])
        assert summary["correction"] == summary["epoch_detail"][-1]["correction"]
        assert summary["best_epoch"] > 0 and "warning:" not in capsys.readouterr().err

    def test_pseudo_accuracy_from_target_labels_of_the_same_pool(self, pipeline_dir, tmp_path):
        # target_labels with the pool's texts in order labels the pool for the
        # pseudo-label accuracy; other texts, or no target_labels, leave it null.
        def pseudo_accuracies(name, *extra):
            assert main(self.adapt_args(pipeline_dir, tmp_path / name, *extra)) == 0
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            return [e["pseudo_accuracy"] for e in summary["epoch_detail"]]

        labelled = pseudo_accuracies("labelled")
        assert labelled and all(0.0 <= acc <= 1.0 for acc in labelled)
        other_texts = f"data.target_labels={pipeline_dir['data']}/calib.jsonl"
        for name, extra in (("unlabelled", "data.target_labels=null"), ("other", other_texts)):
            assert pseudo_accuracies(name, "--set", extra) == [None] * len(labelled)

    @pytest.mark.parametrize("labels_file, shared", [("target_labels", True), ("calib", False)])
    def test_pool_featurized_once_when_target_labels_holds_it(self, pipeline_dir, tmp_path,
                                                              monkeypatch, labels_file, shared):
        # target_labels with the pool's texts: its features also feed training,
        # so the pool is featurized once. Other texts: both sets are featurized.
        # Either way, the outputs equal a run that featurizes the pool again.
        extra = ("--set", f"data.target_labels={pipeline_dir['data']}/{labels_file}.jsonl")
        seen = []
        real = data.featurize_dataset
        spy = lambda ds, dim: seen.append(ds.name) or real(ds, dim)
        monkeypatch.setattr(data, "featurize_dataset", spy)
        monkeypatch.setattr(adapt, "featurize_dataset", spy)
        assert main(self.adapt_args(pipeline_dir, tmp_path / "one", *extra)) == 0
        expected = [labels_file, "source/train", "calib"] + ([] if shared else ["target"])
        assert sorted(seen) == sorted(expected)

        real_run = adapt.run_adaptation
        monkeypatch.setattr(adapt, "run_adaptation",
                            lambda *args, **_: real_run(*args))
        seen.clear()
        assert main(self.adapt_args(pipeline_dir, tmp_path / "again", *extra)) == 0
        # shared: the pool is the target_labels dataset, featurized again
        assert sorted(seen) == sorted(expected + ([labels_file] if shared else []))
        for name in ("adapted.npz", "trace.csv", "summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_calib_featurized_once_without_target_labels(self, pipeline_dir, tmp_path,
                                                         monkeypatch):
        # Without target_labels, calib is the evaluation set: its features give
        # both BAs and feed training. The outputs equal a run that featurizes
        # it again.
        extra = ("--set", "data.target_labels=null")
        seen = []
        real = data.featurize_dataset
        spy = lambda ds, dim: seen.append(ds.name) or real(ds, dim)
        monkeypatch.setattr(data, "featurize_dataset", spy)
        monkeypatch.setattr(adapt, "featurize_dataset", spy)
        assert main(self.adapt_args(pipeline_dir, tmp_path / "one", *extra)) == 0
        assert sorted(seen) == ["calib", "source/train", "target"]

        real_run = adapt.run_adaptation
        monkeypatch.setattr(adapt, "run_adaptation",
                            lambda *args, **_: real_run(*args))
        seen.clear()
        assert main(self.adapt_args(pipeline_dir, tmp_path / "again", *extra)) == 0
        assert sorted(seen) == ["calib", "calib", "source/train", "target"]
        for name in ("adapted.npz", "trace.csv", "summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_warns_when_no_epoch_beats_the_input_model(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "kept"
        args = self.adapt_args(pipeline_dir, out, "--set", "adapt.label_correction=false",
                               "--set", "adapt.tau=0.6")
        assert main(args) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best_epoch"] == 0 and summary["ba_gain"] == 0.0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "input model" in warnings[0]

    def test_warns_once_per_correction_fit_message(self, pipeline_dir, tmp_path, capsys):
        rows = (pipeline_dir["data"] / "calib.jsonl").read_text(encoding="utf-8").splitlines()
        ones = tmp_path / "calib_ones.jsonl"
        ones.write_text("".join(r + "\n" for r in rows if json.loads(r)["label"] == 1))
        args = self.adapt_args(pipeline_dir, tmp_path / "one_class", "--set", f"data.calib={ones}")
        assert main(args) == cli.EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "label correction" in line]
        # two epochs refit the correction twice; the message is printed once
        assert warnings == ["warning: label correction: calibration set contains a single class (1)"]

    def test_byte_identical_reruns(self, pipeline_dir, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(self.adapt_args(pipeline_dir, out1)) == 0
        assert main(self.adapt_args(pipeline_dir, out2)) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_lambda_zero_trace(self, pipeline_dir, tmp_path):
        out = tmp_path / "l0"
        assert main(self.adapt_args(pipeline_dir, out, "--set", "adapt.lambda=0.0")) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        for row in rows:
            cols = row.split(",")
            assert float(cols[3]) == float(cols[1])  # combined == nll

    def test_high_tau_weak_model_aborts(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "abort"
        args = [
            "adapt", "--config", str(pipeline_dir["cfg"]),
            "--set", f"output.directory={out}",
            "--set", "train.max_epochs=0",  # weak (untrained) model
            "--set", "adapt.label_correction=false",
            "--set", "adapt.tau=0.99",
        ]
        rc = main(with_data_paths(args, pipeline_dir["data"]))
        assert rc == cli.EXIT_EMPTY_PSEUDO
        assert "lower tau" in capsys.readouterr().err
        assert not out.exists()

    def test_pretrains_when_no_checkpoint(self, pipeline_dir, tmp_path):
        # pretraining in-process gives what pretrain, then adapt on its checkpoint, gives
        out, loaded = tmp_path / "nockpt", tmp_path / "ckpt"
        args = ["adapt", "--config", str(pipeline_dir["cfg"]),
                "--set", f"output.directory={out}"]
        assert main(with_data_paths(args, pipeline_dir["data"])) == 0
        assert main(self.adapt_args(pipeline_dir, loaded)) == 0
        for name in ("adapted.npz", "trace.csv", "summary.json"):
            assert (out / name).read_bytes() == (loaded / name).read_bytes(), name


def digests(directory):
    """Each entry of directory: a file's SHA-256, or "dir"."""
    return {p.name: "dir" if p.is_dir() else hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


@pytest.fixture(scope="module")
def two_adapt_runs(pipeline_dir, tmp_path_factory):
    """adapt at lambda 0.01 and lambda 0, on the pretrained checkpoint; every
    output of the two differs."""
    runs = tmp_path_factory.mktemp("two_adapt_runs")
    argv = {}
    for lam in ("0.01", "0"):
        argv[lam] = TestAdapt().adapt_args(pipeline_dir, runs / lam, "--set", f"adapt.lambda={lam}")
        assert main(argv[lam]) == 0
    first, second = digests(runs / "0.01"), digests(runs / "0")
    assert set(first) == set(second) == {"adapted.npz", "trace.csv", "summary.json",
                                         "resolved_config.json"}
    assert all(first[name] != second[name] for name in first)
    return runs / "0.01", argv["0"]


@pytest.mark.parametrize("fault", ["adapted.npz", "trace.csv", "summary.json",
                                   "resolved_config.json", "save_checkpoint_raises"])
def test_failed_write_keeps_the_previous_outputs(two_adapt_runs, tmp_path, capsys, monkeypatch,
                                                 fault):
    # the rerun at lambda 0 would replace every file of the lambda 0.01 run;
    # one that cannot write an output replaces none and leaves no temporary
    previous, rerun = two_adapt_runs
    out = tmp_path / "ad"
    shutil.copytree(previous, out)
    rerun = [f"output.directory={out}" if a.startswith("output.directory=") else a for a in rerun]
    if fault == "save_checkpoint_raises":
        def no_space(params, path):
            raise OSError("No space left on device")
        monkeypatch.setattr(model, "save_checkpoint", no_space)
    else:
        (out / fault).unlink()
        (out / fault).mkdir()
    before = digests(out)
    capsys.readouterr()
    assert main(rerun) == cli.EXIT_USAGE
    err = assert_one_line_error(capsys)
    assert digests(out) == before
    if fault != "save_checkpoint_raises":
        assert err == f"error: {out / fault}: is a directory; no output replaced\n"


class TestEvaluate:
    def test_matches_pretrain_metrics_exactly(self, pipeline_dir, tmp_path, capsys):
        out_file = tmp_path / "metrics.json"
        rc = main([
            "evaluate",
            "--checkpoint", str(pipeline_dir["pre"] / "pretrained.npz"),
            "--data", str(pipeline_dir["pre"] / "source_test.jsonl"),
            "--out", str(out_file),
        ])
        assert rc == 0
        assert json.loads(out_file.read_text()) == json.loads(
            (pipeline_dir["pre"] / "pretrain_metrics.json").read_text()
        )
        assert capsys.readouterr().out == out_file.read_text()

    def test_logits_wider_apart_than_the_float_range(self, pipeline_dir, tmp_path, capsys):
        # every logit pair is about (1.7e308, -1.7e308): finite, but their
        # gap is not, and class 0 wins every row without a warning
        m = model.load_checkpoint(pipeline_dir["pre"] / "pretrained.npz")
        m.out_b[:] = [1.7e308, -1.7e308]
        checkpoint = tmp_path / "wide.npz"
        model.save_checkpoint(m, checkpoint)
        test_set = pipeline_dir["pre"] / "source_test.jsonl"
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(test_set)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        negatives = sum(ex.label == 0 for ex in data.load_jsonl(test_set).examples)
        assert json.loads(out)["support_neg"] == negatives and json.loads(out)["ba"] == 0.5

    def test_reproduces_the_adapt_summary_exactly(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "ad"
        args = ["adapt", "--config", str(pipeline_dir["cfg"]),
                "--set", f"output.directory={out}",
                "--set", f"model.checkpoint={pipeline_dir['pre']}/pretrained.npz"]
        assert main(with_data_paths(args, pipeline_dir["data"])) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        for checkpoint, key in ((pipeline_dir["pre"] / "pretrained.npz", "ba_before"),
                                (out / "adapted.npz", "ba_after")):
            assert main(["evaluate", "--checkpoint", str(checkpoint),
                         "--data", str(pipeline_dir["data"] / "target_labels.jsonl")]) == 0
            assert json.loads(capsys.readouterr().out)["ba"] == summary[key], key

    def test_accepts_the_adapt_summary_correction(self, pipeline_dir, tmp_path, capsys):
        """The summary's correction block is the file format evaluate --correction reads."""
        out = tmp_path / "ad"
        assert main(TestAdapt().adapt_args(pipeline_dir, out)) == 0
        block = json.loads((out / "summary.json").read_text())["correction"]
        correction_file = tmp_path / "correction.json"
        correction_file.write_text(json.dumps(block))
        labeled = pipeline_dir["data"] / "target_labels.jsonl"
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(out / "adapted.npz"), "--data", str(labeled),
                     "--correction", str(correction_file)]) == 0
        reported = json.loads(capsys.readouterr().out)["ba"]

        params = model.load_checkpoint(out / "adapted.npz")
        dataset = data.load_jsonl(labeled)
        preds = correction.predict_labels(params, data.featurize_dataset(dataset, params.hash_dim),
                                          correction.CorrectionParams.from_dict(block))
        truth = [ex.label for ex in dataset.examples]
        assert reported == metrics.balanced_accuracy(metrics.confusion(preds, truth))

    def test_identity_correction_changes_nothing(self, pipeline_dir, tmp_path, capsys):
        identity = tmp_path / "identity.json"
        identity.write_text(json.dumps({"w": [1.0, 1.0], "b": [0.0, 0.0]}))
        base_args = [
            "evaluate",
            "--checkpoint", str(pipeline_dir["pre"] / "pretrained.npz"),
            "--data", str(pipeline_dir["pre"] / "source_test.jsonl"),
        ]
        assert main(base_args) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(base_args + ["--correction", str(identity)]) == 0
        corrected = json.loads(capsys.readouterr().out)
        assert plain == corrected

    def test_bom_and_crlf_config_and_correction_files(self, pipeline_dir, tmp_path, capsys):
        """A run config and a correction file saved with a UTF-8 byte-order
        mark and CRLF line endings read the same as plain ones."""
        def bom_crlf(name, obj):
            path = tmp_path / name
            text = json.dumps(obj, indent=2).replace("\n", "\r\n")
            path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            return str(path)

        run_cfg = bom_crlf("config.json", {"adapt": {"tau": 0.75}})
        assert cli.load_config(run_cfg, [])["adapt"]["tau"] == 0.75
        base_args = [
            "evaluate",
            "--checkpoint", str(pipeline_dir["pre"] / "pretrained.npz"),
            "--data", str(pipeline_dir["pre"] / "source_test.jsonl"),
        ]
        assert main(base_args) == 0
        plain = json.loads(capsys.readouterr().out)
        identity = bom_crlf("identity.json", {"w": [1.0, 1.0], "b": [0.0, 0.0]})
        assert main(base_args + ["--correction", identity]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    def test_unlabeled_dataset_rejected(self, pipeline_dir):
        rc = main([
            "evaluate",
            "--checkpoint", str(pipeline_dir["pre"] / "pretrained.npz"),
            "--data", str(pipeline_dir["data"] / "target.jsonl"),
        ])
        assert rc == cli.EXIT_USAGE


ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = {"synth", "pretrain", "adapt", "evaluate"}


def load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


class TestEntryPoint:
    def test_console_script_help(self, tmp_path):
        """Run the `shiftadapt` console script the way pip's generated wrapper
        does, through the current interpreter against this checkout's `src`,
        so the test needs no install and ignores any `shiftadapt` on PATH."""
        scripts = load_toml(ROOT / "pyproject.toml")["project"]["scripts"]
        module, _, func = scripts["shiftadapt"].partition(":")
        assert module and func.isidentifier(), scripts["shiftadapt"]
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        choices = re.search(r"^usage: shiftadapt\b[^{]*\{([^}]*)\}", proc.stdout, re.M)
        assert choices, proc.stdout
        assert SUBCOMMANDS <= set(choices.group(1).split(",")), proc.stdout


class TestReadme:
    def test_python_examples_run(self, tmp_path):
        """The README's two Python blocks, the second continuing the first,
        run against this checkout's `src` with numpy warnings as errors."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
        assert len(blocks) == 2
        pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", "\n".join(blocks)],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
