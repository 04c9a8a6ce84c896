"""The golden run: one small scenario through synth, pretrain, adapt (the
full, no-label-correction and lambda = 0 arms) and evaluate, reduced to the
numbers that pin its behaviour.

`observe` returns two sections. "exact" holds integers, strings, BAs,
`best_epoch` and file digests, compared with ==. "close" holds every
trace.csv number, the fitted corrections and each checkpoint block's sum
and norm, compared at a relative tolerance of RTOL: byte digests of
float output would not survive another BLAS. A value within ATOL of zero is
rounding left by a cancelling sum (out_b's two entries are close to each
other's negatives), so it is compared at that absolute tolerance.

Regenerate expected.json, from the repository root, with

    PYTHONPATH=src python -m tests.golden.regen

A change that moves expected.json changes behaviour: show the old and new
values with it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from shiftadapt import cli

EXPECTED = Path(__file__).with_name("expected.json")
RTOL = 1e-9
ATOL = 1e-12

SCENARIO = {
    "data": {
        "synth": {
            "n_source": 300, "n_target": 360, "source_prior": 0.5, "target_prior": 0.9,
            "class_means_source": [[-1.0] * 8, [1.0] * 8],
            "class_means_target": [[-2.0] * 8, [0.0] * 8],
            "noise_scale": 1.0, "seed": 7,
        },
        "calib_size": 60,
    },
    "model": {"hash_dim": 1024, "d_embed": 16, "d_hidden": 16},
    "train": {"max_epochs": 5},
    "adapt": {"epochs": 2, "batch_size": 16, "tau": 0.6},
}
ARMS = {
    "full": [],
    "no_label_correction": ["--set", "adapt.label_correction=false"],
    "lambda_0": ["--set", "adapt.lambda=0"],
}


def _run(argv) -> tuple[dict, list[str]]:
    """cli.main(argv), which must exit 0: its stdout JSON and its stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue()), err.getvalue().splitlines()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _checkpoint(path) -> tuple[dict, dict]:
    """A checkpoint's header and rows (exact) and each block's sum and norm (close)."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    rows = arrays.pop("rows")
    exact = {
        "meta": json.loads(arrays.pop("meta").tobytes()),
        "rows": {"n": int(rows.size), "sum": int(rows.sum()),
                 "sha256": hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()},
    }
    close = {name: [float(block.sum()), float(np.linalg.norm(block))]
             for name, block in sorted(arrays.items())}
    return exact, close


def _trace(path) -> tuple[dict, dict]:
    """trace.csv's iteration numbers and skipped terms (exact), and its
    float columns (close)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    exact = {"iteration": [int(r["iteration"]) for r in rows],
             "skipped_terms": [r["skipped_terms"] for r in rows]}
    close = {col: [float(r[col]) for r in rows] for col in ("nll", "contrastive", "combined", "gamma")}
    return exact, close


def observe(workdir) -> dict:
    """Run the scenario under workdir; {"exact": ..., "close": ...}."""
    workdir = Path(workdir)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(SCENARIO), encoding="utf-8")
    data_dir, pre = workdir / "data", workdir / "pre"
    exact: dict = {}
    close: dict = {}

    def command(name, out_dir, *extra):
        return [name, "--config", str(cfg), "--set", f"output.directory={out_dir}", *extra]

    stdout, stderr = _run(command("synth", data_dir))
    exact["synth"] = {"stdout": stdout, "stderr": stderr, "sha256": {
        name: _sha256(data_dir / name)
        for name in ("source.jsonl", "target.jsonl", "target_labels.jsonl", "calib.jsonl")}}

    paths = [f"--set=data.{key}={data_dir / key}.jsonl"
             for key in ("source", "target", "calib", "target_labels")]
    stdout, stderr = _run(command("pretrain", pre, *paths))
    ck_exact, close["pretrain"] = _checkpoint(pre / "pretrained.npz")
    exact["pretrain"] = {"stdout": stdout, "stderr": stderr, "checkpoint": ck_exact,
                         "source_test_sha256": _sha256(pre / "source_test.jsonl")}

    correction = workdir / "correction.json"  # the full arm's, for evaluate --correction
    for arm, extra in ARMS.items():
        out = workdir / arm
        summary, stderr = _run(command("adapt", out, *paths,
                                       f"--set=model.checkpoint={pre / 'pretrained.npz'}", *extra))
        corrections = [summary.pop("correction")]
        for detail in summary["epoch_detail"]:
            corrections.append(detail.pop("correction"))
        if arm == "full":
            correction.write_text(json.dumps(corrections[0]), encoding="utf-8")
        ck_exact, ck_close = _checkpoint(out / "adapted.npz")
        trace_exact, trace_close = _trace(out / "trace.csv")
        exact[f"adapt_{arm}"] = {
            "summary": summary, "stderr": stderr, "checkpoint": ck_exact, "trace": trace_exact,
            "bias_discarded": [c["bias_discarded"] for c in corrections],
        }
        close[f"adapt_{arm}"] = {
            "checkpoint": ck_close, "trace": trace_close,
            "correction": [[*c["w"], *c["b"]] for c in corrections],
        }

    evaluated = {}
    for name, args in {
        "pretrained": ["--checkpoint", str(pre / "pretrained.npz")],
        "adapted": ["--checkpoint", str(workdir / "full" / "adapted.npz")],
        "adapted_corrected": ["--checkpoint", str(workdir / "full" / "adapted.npz"),
                              "--correction", str(correction)],
    }.items():
        evaluated[name] = _run(["evaluate", "--data", str(data_dir / "target_labels.jsonl"),
                                *args])
    exact["evaluate"] = evaluated
    return {"exact": exact, "close": close}


def _leaves(node, path=""):
    """(dotted path, leaf) for each non-container value of a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def differences(got: dict, want: dict) -> list[str]:
    """One line per leaf where got departs from want: "exact" leaves must be
    equal, "close" leaves within RTOL (or ATOL) of each other."""
    out = []
    for section in ("exact", "close"):
        g, w = dict(_leaves(got[section])), dict(_leaves(want[section]))
        for path in sorted(g.keys() | w.keys()):
            if path not in g or path not in w:
                out.append(f"{section}.{path}: only in {'expected' if path in w else 'observed'}")
                continue
            a, b = g[path], w[path]
            same = (a == b and type(a) is type(b) if section == "exact"
                    else math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL))
            if not same:
                out.append(f"{section}.{path}: observed {a!r}, expected {b!r}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        result = observe(tmp)
    EXPECTED.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
