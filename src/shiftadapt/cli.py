"""Command-line pipeline: synth, pretrain, adapt, evaluate.

Every command is driven by a JSON run config plus --set key=value overrides.
Its sections, keys, types and defaults are those of `RunConfig` and the
config dataclasses under it; unknown keys are rejected. Commands compute and
main writes: `_commit` commits a command's outputs and its resolved config
together. All commands are deterministic given the resolved config.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import adapt as adapt_mod
from . import correction as correction_mod
from . import data as data_mod
from . import metrics as metrics_mod
from . import model as model_mod
from .config import build, to_dict
from .errors import AdaptationError, ConfigError, DatasetError, EmptyPseudoLabelSetError

EXIT_OK = 0
EXIT_USAGE = 2  # bad config, bad or missing input file, unusable source
EXIT_EMPTY_PSEUDO = 3  # no pseudo label survived filtering; lower tau

_CALIB_SPLIT_TAG = 0xCA11B  # mixed into the synth seed for the calib split


def default_synth_dict(seed: int = 7) -> dict:
    """Default synthetic scenario: conditional shift (means moved by -1 per
    coordinate) plus label shift (prior 0.5 -> 0.9)."""
    return {
        "n_source": 1200,
        "n_target": 1200,
        "source_prior": 0.5,
        "target_prior": 0.9,
        "class_means_source": [[-1.0] * 8, [1.0] * 8],
        "class_means_target": [[-2.0] * 8, [0.0] * 8],
        "noise_scale": 1.0,
        "seed": seed,
    }


@dataclass
class DataConfig:
    source: Optional[str] = None  # JSONL paths
    target: Optional[str] = None
    calib: Optional[str] = None
    target_labels: Optional[str] = None
    # A run config's synth replaces this default whole: merged, a synth that
    # leaves out seed would take the default scenario's 7, not SynthConfig's 0.
    synth: Optional[data_mod.SynthConfig] = field(
        default_factory=lambda: data_mod.SynthConfig(**default_synth_dict()))
    calib_size: int = 200
    split_ratios: list[float] = field(default_factory=lambda: [0.7, 0.1, 0.2])

    def __post_init__(self):
        if self.calib_size < 1:
            raise ConfigError("data.calib_size must be positive")
        if len(self.split_ratios) != 3:
            raise ConfigError("data.split_ratios must have exactly three entries")


@dataclass
class ModelConfig:
    checkpoint: Optional[str] = None  # npz path; adapt pretrains first when None
    hash_dim: int = 4096
    d_embed: int = 32
    d_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        model_mod._check_shape("model.", self.hash_dim, self.d_embed, self.d_hidden, self.seed)


@dataclass
class OutputConfig:
    directory: str = "runs/default"


@dataclass
class RunConfig:
    """A run config, one dataclass per section; its dict form (`to_dict`) is
    the JSON a user writes and what resolved_config.json holds."""

    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: model_mod.TrainConfig = field(default_factory=model_mod.TrainConfig)
    adapt: adapt_mod.AdaptConfig = field(default_factory=adapt_mod.AdaptConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def default_config() -> dict:
    return to_dict(RunConfig())


def validate_config(cfg: dict) -> RunConfig:
    """Build the typed run config from its dict form; an unknown key, a wrong
    type or an out-of-range value raises ConfigError."""
    return build(RunConfig, cfg)


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict) and key != "synth":
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {reprlib.repr(item)}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"--set {reprlib.repr(dotted)}: JSON nested too deeply") from exc
        except ValueError as exc:  # past CPython's integer digit limit
            raise ConfigError(f"--set {reprlib.repr(dotted)}: an integer with too many digits "
                              "to read") from exc
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = value
    return cfg


def _load_run(path, overrides) -> RunConfig:
    cfg = default_config()
    if path is not None:
        user = _read_json(path)
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: run config must be a JSON object")
        cfg = _deep_merge(cfg, user)
    return validate_config(_apply_overrides(cfg, overrides))


def _read_json(path):
    return data_mod._parse_json(data_mod._file_bytes(path), ConfigError, path)


def load_config(path, overrides) -> dict:
    """The defaults, merged with the JSON file at path and the --set
    overrides, validated, in dict form."""
    return to_dict(_load_run(path, overrides))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj) + "\n")


def _commit(directory: Path, outputs: dict, make: bool) -> None:
    """Write outputs, each a file name mapped to a writer of a path, to temporary
    names in directory (made first if make), then rename each onto its name. A
    failure, or a name that is a directory, leaves the previous outputs as they were."""
    if make:
        directory.mkdir(parents=True, exist_ok=True)
    temps = []
    try:
        for name, write in outputs.items():
            if (directory / name).is_dir():
                raise IsADirectoryError(f"{directory / name}: is a directory; no output replaced")
            temps.append(directory / f".{name}.tmp")
            write(temps[-1])
        for temp, name in zip(temps, outputs):
            os.replace(temp, directory / name)
    finally:  # a renamed temporary is gone already
        for temp in temps:
            temp.unlink(missing_ok=True)


def _require_path(run: RunConfig, key):
    value = getattr(run.data, key)
    if value is None:
        raise ConfigError(f"data.{key} is required for this command")
    return value


def _pretrain(run: RunConfig, train, val) -> model_mod.Model:
    m = run.model
    params = model_mod.init(m.hash_dim, m.d_embed, m.d_hidden, m.seed)
    return model_mod.pretrain(params, train, val, run.train)


def cmd_synth(run: RunConfig) -> tuple[dict, dict]:
    """The configured synthetic scenario's priors and sizes, and its outputs:
    source.jsonl, target.jsonl (unlabeled pool), target_labels.jsonl and calib.jsonl."""
    synth_cfg = run.data.synth
    if synth_cfg is None:
        raise ConfigError("data.synth is required for the synth command")
    calib_size = run.data.calib_size
    if calib_size >= synth_cfg.n_target:
        raise ConfigError(
            f"data.calib_size ({calib_size}) must be smaller than n_target "
            f"({synth_cfg.n_target})"
        )
    source, target = data_mod.gen_synthetic(synth_cfg)
    for message in synth_cfg.warnings():
        print(f"warning: {message}", file=sys.stderr)

    rng = np.random.default_rng(np.random.SeedSequence([synth_cfg.seed, _CALIB_SPLIT_TAG]))
    perm = rng.permutation(synth_cfg.n_target)
    calib_idx = sorted(int(i) for i in perm[:calib_size])
    pool_idx = sorted(int(i) for i in perm[calib_size:])
    calib = data_mod.Dataset([target.examples[i] for i in calib_idx], name="synthetic-calib")
    pool = data_mod.Dataset([target.examples[i] for i in pool_idx], name="synthetic-target")
    return {
        "source_prior": source.class_prior(),
        "target_prior": pool.class_prior(),
        "calib_prior": calib.class_prior(),
        "n_source": len(source),
        "n_target": len(pool),
        "n_calib": len(calib),
    }, {
        "source.jsonl": lambda path: data_mod.write_jsonl(source, path),
        "target.jsonl": lambda path: data_mod.write_jsonl(pool, path, drop_labels=True),
        "target_labels.jsonl": lambda path: data_mod.write_jsonl(pool, path),
        "calib.jsonl": lambda path: data_mod.write_jsonl(calib, path),
    }


def _load_source_splits(run: RunConfig):
    source = data_mod.load_jsonl(_require_path(run, "source"))
    source.labels()  # DatasetError when a label is missing
    ratios = tuple(run.data.split_ratios)
    # The split seed is the training seed so pretrain and adapt agree on it.
    return data_mod.split(source, ratios, seed=run.train.seed)


def _evaluate(params, feats, truth, cp=None) -> metrics_mod.MetricsReport:
    preds = correction_mod.predict_labels(params, feats, cp)
    return metrics_mod.metrics_report(metrics_mod.confusion(preds, truth))


def cmd_pretrain(run: RunConfig) -> tuple[dict, dict]:
    """Train on the source train split; report source test metrics, output a checkpoint."""
    if run.model.checkpoint is not None:  # resolved_config.json would record a file not read
        raise ConfigError("model.checkpoint is read by adapt only; pretrain does not use it")
    train, val, test = _load_source_splits(run)
    trained = _pretrain(run, train, val)
    test_feats = data_mod.featurize_dataset(test, trained.hash_dim)
    report = to_dict(_evaluate(trained, test_feats, test.labels()))
    return report, {
        "pretrained.npz": lambda path: model_mod.save_checkpoint(trained, path),
        "source_test.jsonl": lambda path: data_mod.write_jsonl(test, path),
        "pretrain_metrics.json": lambda path: _dump_json(report, path),
    }


def cmd_adapt(run: RunConfig) -> tuple[dict, dict]:
    """Run stage 1 + stage 2; report the summary, output the adapted checkpoint and trace."""
    train, val, _test = _load_source_splits(run)
    target = data_mod.load_jsonl(_require_path(run, "target"))
    calib = data_mod.load_jsonl(_require_path(run, "calib"))
    calib_truth = calib.labels()

    if run.model.checkpoint is not None:
        pretrained = model_mod.load_checkpoint(run.model.checkpoint)
        held = {"hash_dim": pretrained.hash_dim, "d_embed": pretrained.d_embed,
                "d_hidden": pretrained.hidden_w.shape[1], "seed": pretrained.seed}
        differ = [f"{k} {v} (model.{k} {getattr(run.model, k)})"
                  for k, v in held.items() if v != getattr(run.model, k)]
        if differ:  # resolved_config.json would record settings the run did not use
            raise ConfigError(f"{run.model.checkpoint}: checkpoint differs from the run config: "
                              + ", ".join(differ))
    else:
        pretrained = _pretrain(run, train, val)

    if run.data.target_labels is not None:
        eval_set = data_mod.load_jsonl(run.data.target_labels)
        eval_truth, eval_name = eval_set.labels(), "target_labels"
        # The same pool with labels: training ignores them, and the
        # pseudo-label accuracy reads them.
        if [ex.text for ex in eval_set.examples] == [ex.text for ex in target.examples]:
            target = eval_set
    else:
        eval_set, eval_truth, eval_name = calib, calib_truth, "calib"

    eval_feats = data_mod.featurize_dataset(eval_set, pretrained.hash_dim)
    ba_before = _evaluate(pretrained, eval_feats, eval_truth).ba
    # The pool or the calibration set, whichever is the evaluation set, is featurized once.
    adapted, trace = adapt_mod.run_adaptation(
        pretrained, train, target, calib, run.adapt,
        target_feats=eval_feats if target is eval_set else None,
        calib_feats=eval_feats if calib is eval_set else None)
    ba_after = _evaluate(adapted, eval_feats, eval_truth).ba
    for message in dict.fromkeys(trace.correction_warnings):
        print(f"warning: label correction: {message}", file=sys.stderr)
    if trace.best_epoch == 0:
        print("warning: no adaptation epoch beat the input model on calibration BA; "
              "adapted.npz is the input model", file=sys.stderr)

    # The top-level correction repeats the last epoch's: it is the file
    # that evaluate --correction reads.
    summary = {
        "ba_before": ba_before,
        "ba_after": ba_after,
        "ba_gain": ba_after - ba_before,
        "eval_set": eval_name,
        "best_epoch": trace.best_epoch,
        "best_calib_ba": trace.best_calib_ba,
        "correction": trace.epochs[-1].correction,
        "replacement_batches": trace.replacement_batches,
        "epoch_detail": [to_dict(e) for e in trace.epochs],
    }

    return summary, {
        "adapted.npz": lambda path: model_mod.save_checkpoint(adapted, path),
        "trace.csv": trace.write_csv,
        "summary.json": lambda path: _dump_json(summary, path),
    }


def cmd_evaluate(checkpoint, dataset_path, correction_path=None) -> dict:
    """Metrics of a checkpoint on a labeled JSONL dataset, optionally through a correction."""
    params = model_mod.load_checkpoint(checkpoint)
    dataset = data_mod.load_jsonl(dataset_path)
    truth = dataset.labels()
    cp = None
    if correction_path is not None:
        cp = correction_mod.CorrectionParams.from_dict(_read_json(correction_path))
    feats = data_mod.featurize_dataset(dataset, params.hash_dim)
    return to_dict(_evaluate(params, feats, truth, cp))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftadapt",
        description="Two-stage domain adaptation pipeline for binary text classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("synth", "generate the synthetic source/target/calib datasets"),
        ("pretrain", "pretrain the classifier on the labeled source"),
        ("adapt", "run label correction, pseudo labeling, and contrastive adaptation"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="path to a JSON run config")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key, e.g. --set adapt.tau=0.8",
        )
    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a labeled JSONL dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="labeled JSONL dataset")
    p.add_argument("--correction", default=None, help="optional correction JSON file")
    p.add_argument("--out", default=None, help="optional path for the metrics JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            report = cmd_evaluate(args.checkpoint, args.data, args.correction)
            if args.out is not None:  # into a directory that exists
                directory, name = os.path.split(args.out)
                _commit(Path(directory), {name: lambda path: _dump_json(report, path)}, make=False)
        else:
            run = _load_run(args.config, args.set)
            command = {"synth": cmd_synth, "pretrain": cmd_pretrain, "adapt": cmd_adapt}
            report, outputs = command[args.command](run)
            outputs["resolved_config.json"] = lambda path: _dump_json(to_dict(run), path)
            _commit(Path(run.output.directory), outputs, make=True)
        print(_json_text(report))
        return EXIT_OK
    except EmptyPseudoLabelSetError as exc:
        print(f"adaptation aborted: {exc}", file=sys.stderr)
        return EXIT_EMPTY_PSEUDO
    except (ConfigError, DatasetError, AdaptationError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
