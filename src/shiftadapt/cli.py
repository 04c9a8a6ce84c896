"""Command-line pipeline: synth, pretrain, adapt, evaluate.

Every command is driven by a JSON run config plus --set key=value overrides.
Its sections, keys, types and defaults are those of `RunConfig` and the
config dataclasses under it; unknown keys are rejected. Each command writes
the resolved config next to its outputs. All commands are deterministic
given the resolved config.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
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

OUTPUT_ROOT_ENV = "SHIFTADAPT_OUTPUT_ROOT"

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
        "vocab_mode": "numeric_tokens",
        "seed": seed,
    }


@dataclass
class DataConfig:
    source: Optional[str] = None  # JSONL paths
    target: Optional[str] = None
    calib: Optional[str] = None
    target_labels: Optional[str] = None
    # A SynthConfig in dict form, kept as written so that resolved_config.json
    # echoes it; a run config replaces it wholesale instead of merging into it.
    synth: Optional[dict] = field(default_factory=default_synth_dict)
    calib_size: int = 200
    split_ratios: list[float] = field(default_factory=lambda: [0.7, 0.1, 0.2])

    def __post_init__(self):
        if self.synth is not None:
            build(data_mod.SynthConfig, self.synth, "data.synth")
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


def _deep_merge(base: dict, override: dict, path="") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, dict) and isinstance(merged.get(key), dict) and key != "synth":
            merged[key] = _deep_merge(merged[key], value, dotted)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
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
        with open(path, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: run config must be a JSON object")
        cfg = _deep_merge(cfg, user)
    return validate_config(_apply_overrides(cfg, overrides))


def load_config(path, overrides) -> dict:
    """The defaults, merged with the JSON file at path and the --set
    overrides, validated, in dict form."""
    return to_dict(_load_run(path, overrides))


def _output_dir(run: RunConfig) -> Path:
    directory = Path(run.output.directory)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not directory.is_absolute():
        directory = Path(root) / directory
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_resolved_config(run: RunConfig, out_dir: Path) -> None:
    _dump_json(to_dict(run), out_dir / "resolved_config.json")


def _require_path(run: RunConfig, key):
    value = getattr(run.data, key)
    if value is None:
        raise ConfigError(f"data.{key} is required for this command")
    return value


def _pretrain(run: RunConfig, train, val) -> model_mod.ModelParams:
    m = run.model
    params = model_mod.init(m.hash_dim, m.d_embed, m.d_hidden, m.seed)
    return model_mod.pretrain(params, train, val, run.train)


def cmd_synth(run: RunConfig) -> int:
    """Write source.jsonl, target.jsonl (unlabeled pool), target_labels.jsonl,
    and calib.jsonl for the configured synthetic scenario."""
    if run.data.synth is None:
        raise ConfigError("data.synth is required for the synth command")
    synth_cfg = data_mod.SynthConfig.from_dict(run.data.synth)
    calib_size = run.data.calib_size
    if calib_size >= synth_cfg.n_target:
        raise ConfigError(
            f"data.calib_size ({calib_size}) must be smaller than n_target "
            f"({synth_cfg.n_target})"
        )
    out_dir = _output_dir(run)
    source, target = data_mod.gen_synthetic(synth_cfg)
    for ds in (source, target):
        if ds.warning:
            print(f"warning: {ds.warning}", file=sys.stderr)

    rng = np.random.default_rng(np.random.SeedSequence([synth_cfg.seed, _CALIB_SPLIT_TAG]))
    perm = rng.permutation(synth_cfg.n_target)
    calib_idx = sorted(int(i) for i in perm[:calib_size])
    pool_idx = sorted(int(i) for i in perm[calib_size:])
    calib = data_mod.Dataset(
        [target.examples[i] for i in calib_idx], domain_tag="target", name="synthetic-calib"
    )
    pool = data_mod.Dataset(
        [target.examples[i] for i in pool_idx], domain_tag="target", name="synthetic-target"
    )

    data_mod.write_jsonl(source, out_dir / "source.jsonl")
    data_mod.write_jsonl(pool, out_dir / "target.jsonl", drop_labels=True)
    data_mod.write_jsonl(pool, out_dir / "target_labels.jsonl")
    data_mod.write_jsonl(calib, out_dir / "calib.jsonl")
    _write_resolved_config(run, out_dir)

    print(json.dumps(
        {
            "source_prior": source.class_prior(),
            "target_prior": pool.class_prior(),
            "calib_prior": calib.class_prior(),
            "n_source": len(source),
            "n_target": len(pool),
            "n_calib": len(calib),
        },
        indent=2, sort_keys=True,
    ))
    return EXIT_OK


def _load_source_splits(run: RunConfig):
    source = data_mod.load_jsonl(_require_path(run, "source"), domain_tag="source")
    if not source.is_fully_labeled():
        raise DatasetError("source dataset must be fully labeled")
    ratios = tuple(run.data.split_ratios)
    # The split seed is the training seed so pretrain and adapt agree on it.
    return data_mod.split(source, ratios, seed=run.train.seed)


def _evaluate(params, dataset, cp=None) -> metrics_mod.MetricsReport:
    feats = data_mod.featurize_dataset(dataset, params.hash_dim)
    preds = correction_mod.predict_labels(params, feats, cp)
    truth = [ex.label for ex in dataset.examples]
    return metrics_mod.metrics_report(metrics_mod.confusion(preds, truth))


def cmd_pretrain(run: RunConfig) -> int:
    """Train on the source train split, report source test metrics, write a checkpoint."""
    out_dir = _output_dir(run)
    train, val, test = _load_source_splits(run)
    trained = _pretrain(run, train, val)
    report = _evaluate(trained, test)

    model_mod.save_checkpoint(trained, out_dir / "pretrained.npz")
    data_mod.write_jsonl(test, out_dir / "source_test.jsonl")
    _dump_json(report.to_dict(), out_dir / "pretrain_metrics.json")
    _write_resolved_config(run, out_dir)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_adapt(run: RunConfig) -> int:
    """Run stage 1 + stage 2 and write the adapted checkpoint, trace, and summary."""
    out_dir = _output_dir(run)
    train, val, _test = _load_source_splits(run)
    target = data_mod.load_jsonl(_require_path(run, "target"), domain_tag="target")
    calib = data_mod.load_jsonl(_require_path(run, "calib"), domain_tag="target")
    if not calib.is_fully_labeled():
        raise DatasetError("calibration dataset must be fully labeled")

    if run.model.checkpoint is not None:
        pretrained = model_mod.load_checkpoint(run.model.checkpoint)
    else:
        pretrained = _pretrain(run, train, val)

    if run.data.target_labels is not None:
        eval_set = data_mod.load_jsonl(run.data.target_labels, domain_tag="target")
        if not eval_set.is_fully_labeled():
            raise DatasetError("target_labels dataset must be fully labeled")
        eval_name = "target_labels"
    else:
        eval_set = calib
        eval_name = "calib"

    ba_before = _evaluate(pretrained, eval_set).ba
    adapted, trace = adapt_mod.run_adaptation(pretrained, train, target, calib, run.adapt)
    ba_after = _evaluate(adapted, eval_set).ba

    last_epoch = trace.epochs[-1]
    summary = {
        "ba_before": ba_before,
        "ba_after": ba_after,
        "ba_gain": ba_after - ba_before,
        "eval_set": eval_name,
        "best_epoch": trace.best_epoch,
        "best_calib_ba": trace.best_calib_ba,
        "tau": run.adapt.tau,
        "lambda": run.adapt.lam,
        "epochs": run.adapt.epochs,
        "label_correction": run.adapt.label_correction,
        "correction": {
            "w": list(last_epoch.correction_w),
            "b": list(last_epoch.correction_b),
            "bias_discarded": last_epoch.bias_discarded,
        },
        "bias_discarded": last_epoch.bias_discarded,
        "n_pseudo_final": last_epoch.n_pseudo,
        "pseudo_prior_final": last_epoch.pseudo_prior,
        "replacement_batches": trace.replacement_batches(),
        "epoch_detail": [
            {
                "epoch": e.epoch,
                "n_pseudo": e.n_pseudo,
                "pseudo_prior": e.pseudo_prior,
                "pseudo_accuracy": e.pseudo_accuracy,
                "calib_ba": e.calib_ba,
                "bias_discarded": e.bias_discarded,
            }
            for e in trace.epochs
        ],
    }

    model_mod.save_checkpoint(adapted, out_dir / "adapted.npz")
    trace.write_csv(out_dir / "trace.csv")
    _dump_json(summary, out_dir / "summary.json")
    _write_resolved_config(run, out_dir)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(checkpoint, dataset_path, correction_path=None, out_path=None) -> int:
    """Evaluate a checkpoint on a labeled JSONL dataset, optionally through a correction."""
    params = model_mod.load_checkpoint(checkpoint)
    dataset = data_mod.load_jsonl(dataset_path)
    if not dataset.is_fully_labeled():
        raise DatasetError("evaluation dataset must be fully labeled")
    cp = None
    if correction_path is not None:
        with open(correction_path, encoding="utf-8") as fh:
            cp = correction_mod.CorrectionParams.from_dict(json.load(fh))
    report = _evaluate(params, dataset, cp)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    return EXIT_OK


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
            return cmd_evaluate(args.checkpoint, args.data, args.correction, args.out)
        run = _load_run(args.config, args.set)
        if args.command == "synth":
            return cmd_synth(run)
        if args.command == "pretrain":
            return cmd_pretrain(run)
        return cmd_adapt(run)
    except EmptyPseudoLabelSetError as exc:
        print(f"adaptation aborted: {exc}", file=sys.stderr)
        return EXIT_EMPTY_PSEUDO
    except (ConfigError, DatasetError, AdaptationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
