import numpy as np
import pytest

from shiftadapt import data, model


def make_scenario(
    seed=7,
    n_source=600,
    n_target=600,
    n_calib=100,
    target_prior=0.9,
    shift=-1.0,
    noise=1.0,
    dim=8,
):
    """Small shifted-domain scenario: separable source, target means offset by
    `shift` per coordinate, label shift 0.5 -> target_prior."""
    cfg = data.SynthConfig(
        n_source=n_source,
        n_target=n_target,
        source_prior=0.5,
        target_prior=target_prior,
        class_means_source=([-1.0] * dim, [1.0] * dim),
        class_means_target=([-1.0 + shift] * dim, [1.0 + shift] * dim),
        noise_scale=noise,
        seed=seed,
    )
    source, target = data.gen_synthetic(cfg)
    calib = data.Dataset(target.examples[:n_calib], name="calib")
    pool = data.Dataset(target.examples[n_calib:], name="pool")
    return source, pool, calib


@pytest.fixture(scope="session")
def small_scenario():
    return make_scenario()


@pytest.fixture(scope="session")
def small_pretrained(small_scenario):
    """Source splits plus a model pretrained on them (hash_dim 1024 for speed)."""
    source, pool, calib = small_scenario
    train, val, test = data.split(source, (0.7, 0.1, 0.2), seed=0)
    params = model.init(1024, 16, 16, seed=0)
    trained = model.pretrain(params, train, val, model.TrainConfig(max_epochs=5, seed=0))
    return {
        "train": train,
        "val": val,
        "test": test,
        "pool": pool,
        "calib": calib,
        "params": trained,
    }


def oracle_embed(seed, hash_dim, d_embed):
    """init's whole (hash_dim, d_embed) embedding table, drawn in one call as
    default_rng(seed) draws it first: the oracle that model._init_rows redraws
    rows of."""
    bound = 1.0 / np.sqrt(hash_dim)
    return np.random.default_rng(seed).uniform(-bound, bound, size=(hash_dim, d_embed))


def dense(m):
    """model.Model m holding every row: its held rows, every other row from
    the oracle table, and copies of its other blocks."""
    embed = oracle_embed(m.seed, m.hash_dim, m.d_embed)
    embed[m.rows] = m.embed
    return model.Model(m.hash_dim, m.seed, np.arange(m.hash_dim), embed,
                       *(getattr(m, b).copy() for b in model.PARAM_BLOCKS[1:]))


def ba_on(m, dataset):
    return model.logits_ba(*logits_and_labels(m, dataset))


def logits_and_labels(m, dataset):
    """(n, 2) logits of model m on dataset, and its labels: stage 1's inputs."""
    feats = data.featurize_dataset(dataset, m.hash_dim)
    return model.forward(dense(m), feats).logits, [ex.label for ex in dataset.examples]


def same_params(a, b):
    """Whether two models, in their dense form, hold bit-identical blocks."""
    a, b = dense(a), dense(b)
    return all(np.array_equal(x, y) for x, y in zip(a.blocks(), b.blocks()))
