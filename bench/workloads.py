"""Benchmark workloads: run-config overrides on top of the CLI defaults.

Each workload pins ``adapt.iterations_per_epoch`` so the work per run does
not depend on how many pseudo labels survive filtering. The seed given on
the benchmark's command line becomes the synthetic generator's seed; the
program sees only the generated JSONL inputs.
"""
from __future__ import annotations

import copy


def _means(dim: int, shift: float) -> list[list[float]]:
    return [[-1.0 + shift] * dim, [1.0 + shift] * dim]


WORKLOADS = {
    # The paper's scenario with every CLI default (1200/1200 examples, prior
    # 0.5 -> 0.9, 8-token texts, hash_dim 4096, batch 24). Time is spread
    # over the per-example training loop: the baseline every layer shares.
    "paper_default": {
        "why": "the paper's default scenario; time spread over the per-example training loop",
        "synth": {},
        "config": {"adapt": {"iterations_per_epoch": 40}},
    },
    # hash_dim 2^18, the data module's default width: the dense Adam step
    # over a 2^18 x 32 embedding dominates, so row-sparse gradient and
    # optimizer work show here while featurize and mmd changes should not.
    # Each step costs about 250 ms, so pretraining takes five large steps at
    # a higher rate; one epoch of batch 96 at 1e-3 left BA before adaptation
    # anywhere from 0.62 to 0.84, depending on the seed.
    "wide_hash": {
        "why": "hash_dim 2^18: the dense optimizer step and 64 MB checkpoints dominate",
        "synth": {},
        "config": {
            "model": {"hash_dim": 2 ** 18},
            "train": {"max_epochs": 1, "batch_size": 168, "learning_rate": 0.02},
            "adapt": {"epochs": 2, "iterations_per_epoch": 3},
        },
    },
    # Adapt batches of 192 + 192: the O(B^2) pairwise kernel work of
    # bandwidth, contrastive value and gradient dominates, so a single
    # discrepancy pass shows here. Pretraining is one epoch, not five, so
    # the model layer's share stays below mmd's.
    "big_batch": {
        "why": "adapt batch 192+192: the quadratic pairwise discrepancy work dominates",
        "synth": {},
        "config": {
            "train": {"max_epochs": 1},
            "adapt": {"batch_size": 192, "epochs": 3, "iterations_per_epoch": 8},
        },
    },
    # 48-token texts (95 hashed unigrams and bigrams each): featurize
    # dominates and model.forward serves inference, the read path beside
    # paper_default's training path. The target means move by -0.5 per
    # coordinate, not -1: over 48 coordinates -1 leaves some seeds with no
    # pseudo label above tau, and adapt exits 3. A 1000-text pool and 3
    # pretraining epochs keep a pipeline near 5 s, so a run holds five or
    # six of them; featurize stays the largest function.
    "long_docs": {
        "why": "48-token texts: featurize and inference dominate; the read path beside the training path",
        "synth": {
            "n_target": 1000,
            "class_means_source": _means(48, 0.0),
            "class_means_target": _means(48, -0.5),
        },
        "config": {
            "data": {"calib_size": 400},
            "train": {"max_epochs": 3},
            "adapt": {"epochs": 3, "iterations_per_epoch": 10},
        },
    },
}


def run_config(cli, name: str, seed: int, inputs_dir: str) -> dict:
    """The run config a user would write for this workload: the workload's
    overrides, its synthetic scenario with this seed, and the input paths."""
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    data = cfg.setdefault("data", {})
    data["synth"] = {**cli.default_synth_dict(seed), **copy.deepcopy(spec["synth"])}
    for key in ("source", "target", "calib", "target_labels"):
        data[key] = f"{inputs_dir}/{key}.jsonl"
    cfg["output"] = {"directory": inputs_dir}
    return cfg
