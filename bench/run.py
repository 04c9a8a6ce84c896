#!/usr/bin/env python3
"""Pipeline benchmark: synth -> pretrain -> adapt -> evaluate through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_default --seed 1 --seconds 30 --trace 0

Each run imports ``shiftadapt`` from this checkout's ``src/``, generates the
workload's inputs from ``--seed`` and then, in a closed loop (one pipeline at
a time, one process), drives ``shiftadapt.cli.main`` through ``pretrain``,
``adapt`` and ``evaluate`` until ``--seconds`` are used up. Every output is
checked. Times are reference-scaled seconds (see ``bench/reference.py``).
With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced pipelines alternate and it reports the
per-layer metrics. Each run also appends a full record
(environment, samples, output digests) to ``.bench_out/results.jsonl``,
which ``bench/compare.py`` reads. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

# One BLAS thread: the load is one closed loop, and on a two-processor host a
# second BLAS thread adds scheduling noise rather than work. Set before numpy
# is imported; a caller's own setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from reference import Clock  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402

# A run's inputs come from SUBSEEDS synthetic datasets, seeds seed*SUBSEEDS+k.
# BA depends on the data, so a run reports BA averaged over its sub-seeds.
SUBSEEDS = 3
SETUP_REPS = 9  # set-up is short; its median is taken over this many repeats
MIN_REPS = SUBSEEDS  # pipelines per run at least, untraced (and traced, with --trace 1)

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "pipeline_s": ("s", "lower"),
    "pretrain_s": ("s", "lower"),
    "adapt_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ba_before": ("ratio", "higher"),
    "ba_after": ("ratio", "higher"),
}

# Per-layer metrics from the traced run. Function names follow the span
# names the tracer gives them: "<layer>.<function>" or "<layer>.<Class>.<method>".
_LAYER_TOTALS = {
    f"{layer}.{kind}": ("count" if kind == "calls" else "s", "lower")
    for layer in LAYERS
    for kind in ("calls", "self_s")
}
PER_LAYER = {
    **_LAYER_TOTALS,
    "data.featurize.calls": ("count", "lower"),
    "data.featurize.self_s": ("s", "lower"),
    "data.featurize.repeat_ratio": ("ratio", "lower"),
    "data.preprocess.self_s": ("s", "lower"),
    "data.io_s": ("s", "lower"),
    "model.forward.calls": ("count", "lower"),
    "model.forward.self_s": ("s", "lower"),
    "model.backward.self_s": ("s", "lower"),
    "model.optimizer_step.calls": ("count", "lower"),
    "model.optimizer_step.self_s": ("s", "lower"),
    "model.embed_grad_rows_frac": ("ratio", "lower"),
    "model.checkpoint_io_s": ("s", "lower"),
    "model.checkpoint_bytes": ("bytes", "lower"),
    "correction.fit_correction.self_s": ("s", "lower"),
    "correction.fit_iters": ("count", "lower"),
    "correction.apply_correction.calls": ("count", "lower"),
    "correction.pseudo_kept_frac": ("ratio", "higher"),
    "mmd.median_bandwidth.self_s": ("s", "lower"),
    "mmd.contrastive_loss.self_s": ("s", "lower"),
    "mmd.class_mmd.self_s": ("s", "lower"),
    "mmd.contrastive_grad.self_s": ("s", "lower"),
    "mmd.pairwise_entries": ("computed_count", "lower"),
    "mmd.pairwise_bytes": ("computed_bytes", "lower"),
    "adapt.iterations": ("count", "lower"),
    "adapt.replacement_batches": ("count", "lower"),
    "adapt.run_adaptation.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

# Per-layer metric prefix -> the span whose call count and self time it reports.
_SPAN_METRICS = {
    "data.featurize": "data.featurize",
    "data.preprocess": "data.preprocess",
    "model.forward": "model.forward",
    "model.backward": "model.backward",
    "model.optimizer_step": "model.Optimizer.step",
    "correction.fit_correction": "correction.fit_correction",
    "correction.apply_correction": "correction.apply_correction",
    "mmd.median_bandwidth": "mmd.median_bandwidth",
    "mmd.contrastive_loss": "mmd.contrastive_loss",
    "mmd.class_mmd": "mmd.class_mmd",
    "mmd.contrastive_grad": "mmd.contrastive_grad",
    "adapt.run_adaptation": "adapt.run_adaptation",
}
# Inclusive time: these spans' own durations, children included.
_IO_SPANS = {
    "data.io_s": ("data.load_jsonl", "data.write_jsonl"),
    "model.checkpoint_io_s": ("model.save_checkpoint", "model.load_checkpoint"),
}

STAGES = ("pretrain", "adapt", "evaluate")
DIGESTED = ("adapt/summary.json", "adapt/trace.csv", "adapt/adapted.npz")
# evaluate runs on both checkpoints, as a user reads BA before and after;
# each result must match summary.json.
EVALUATED = (("pretrain", "pretrained.npz", "ba_before"), ("adapt", "adapted.npz", "ba_after"))
DECLARED = {
    "synth": ("source.jsonl", "target.jsonl", "target_labels.jsonl", "calib.jsonl",
              "resolved_config.json"),
    "pretrain": ("pretrained.npz", "source_test.jsonl", "pretrain_metrics.json",
                 "resolved_config.json"),
    "adapt": ("adapted.npz", "trace.csv", "summary.json", "resolved_config.json"),
}


class OperationFailed(Exception):
    """A CLI command failed one of the benchmark's output checks."""


class Operations:
    """Runs and counts CLI commands, attempted and failed; each failure is logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.clock = Clock()

    def run(self, cli, argv) -> None:
        """Run one command in-process, its stdout discarded."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            self.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        if rc != 0:
            self.fail(f"{argv[0]} exited {rc}")

    def timed(self, cli, argv) -> tuple[float, float]:
        """Run one command; (reference-scaled seconds, wall seconds)."""
        gc.collect()  # start each command with no garbage left by the previous one
        return self.clock.time(lambda: self.run(cli, argv))

    def fail(self, message):
        self.failed += 1
        print(f"bench: failed operation: {message}", file=sys.stderr)
        raise OperationFailed(message)


def _require(ops, directory: Path, names):
    missing = [n for n in names if not (directory / n).is_file()]
    if missing:
        ops.fail(f"missing outputs in {directory.name}: {missing}")


def _require_finite(ops, path: Path):
    with np.load(path) as npz:
        bad = [k for k in npz.files if k != "meta" and not np.all(np.isfinite(npz[k]))]
    if bad:
        ops.fail(f"{path.name} has non-finite arrays {bad}")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- set-up ---------------------------------------------------------------
def forget_shiftadapt() -> None:
    """Drop shiftadapt from sys.modules, so the next import runs it again."""
    for name in [n for n in sys.modules if n == "shiftadapt" or n.startswith("shiftadapt.")]:
        del sys.modules[name]
    gc.collect()  # the old modules are garbage; collect it before any timing


def import_shiftadapt():
    """Import the package from this checkout's src/, and its CLI."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("shiftadapt")
    cli = importlib.import_module("shiftadapt.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "shiftadapt").resolve():
        raise RuntimeError(f"imported shiftadapt from {cli.__file__}, not from {SRC}")
    return cli


def setup(ops, work: Path, workload: str, seed: int, k: int):
    """import shiftadapt, write sub-seed k's run config, synth its inputs; timed together."""
    inputs = work / f"inputs-{k}"
    shutil.rmtree(inputs, ignore_errors=True)
    forget_shiftadapt()
    imported = []

    def steps():
        cli = import_shiftadapt()
        with open(work / f"run_config-{k}.json", "w", encoding="utf-8") as fh:
            json.dump(run_config(cli, workload, seed * SUBSEEDS + k, str(inputs)), fh,
                      indent=2, sort_keys=True)
        ops.run(cli, ["synth", "--config", work / f"run_config-{k}.json"])
        imported.append(cli)

    seconds, _ = ops.clock.time(steps)
    _require(ops, inputs, DECLARED["synth"])
    return imported[0], seconds


def config_sha256(cli, work: Path, workload: str) -> str:
    """Hash of the workload's resolved config (seed 0, paths neutralised)."""
    probe = work / "config_probe.json"
    with open(probe, "w", encoding="utf-8") as fh:
        json.dump(run_config(cli, workload, 0, "INPUTS"), fh)
    resolved = cli.load_config(probe, [])
    probe.unlink()
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


# -- one pipeline -------------------------------------------------------------
def pipeline(ops, cli, work: Path, k: int, stage_span=None):
    """pretrain -> adapt -> evaluate on sub-seed k's inputs; returns the checked sample."""
    span = stage_span or (lambda name: contextlib.nullcontext())
    cfg_path, inputs, rep = work / f"run_config-{k}.json", work / f"inputs-{k}", work / "rep"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir(parents=True, exist_ok=True)
    times, wall = {}, {}
    with span("bench.pretrain"):
        times["pretrain"], wall["pretrain"] = ops.timed(
            cli, ["pretrain", "--config", cfg_path, "--set", f"output.directory={rep}/pretrain"])
    _require(ops, rep / "pretrain", DECLARED["pretrain"])
    _require_finite(ops, rep / "pretrain" / "pretrained.npz")
    with span("bench.adapt"):
        times["adapt"], wall["adapt"] = ops.timed(
            cli, ["adapt", "--config", cfg_path, "--set", f"output.directory={rep}/adapt",
                  "--set", f"model.checkpoint={rep}/pretrain/pretrained.npz"])
    _require(ops, rep / "adapt", DECLARED["adapt"])
    _require_finite(ops, rep / "adapt" / "adapted.npz")
    with span("bench.evaluate"):
        evaluated = [
            ops.timed(cli, ["evaluate", "--checkpoint", rep / stage / checkpoint,
                            "--data", inputs / "target_labels.jsonl",
                            "--out", rep / f"evaluate-{stage}.json"])
            for stage, checkpoint, _ in EVALUATED]
        times["evaluate"] = sum(scaled for scaled, _ in evaluated)
        wall["evaluate"] = sum(seconds for _, seconds in evaluated)
    _require(ops, rep, [f"evaluate-{stage}.json" for stage, _, _ in EVALUATED])

    with open(rep / "adapt" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    for stage, _, key in EVALUATED:
        with open(rep / f"evaluate-{stage}.json", encoding="utf-8") as fh:
            ba = json.load(fh)["ba"]
        if ba != summary[key]:
            ops.fail(f"evaluate BA {ba!r} of the {stage} checkpoint != summary {key} "
                     f"{summary[key]!r}")
    with open(rep / "adapt" / "trace.csv", encoding="utf-8") as fh:
        iterations = sum(1 for _ in fh) - 1
    with open(inputs / "target.jsonl", encoding="utf-8") as fh:
        n_pool = sum(1 for _ in fh)
    return {
        "subseed": k,
        "times": times,
        "wall": wall,
        "pipeline_s": sum(times.values()),
        "ba_before": summary["ba_before"],
        "ba_after": summary["ba_after"],
        "digests": {name: sha256_file(rep / name) for name in DIGESTED},
        "iterations": iterations,
        "replacement_batches": summary["replacement_batches"],
        "n_pseudo": [e["n_pseudo"] for e in summary["epoch_detail"]],
        "n_pool": n_pool,
    }


def by_subseed(ops, samples) -> dict:
    """First sample of each sub-seed; pipelines of one sub-seed must agree."""
    first = {}
    for s in samples:
        ref = first.setdefault(s["subseed"], s)
        for key in ("digests", "ba_before", "ba_after"):
            if s[key] != ref[key]:
                ops.failed += 1
                print(f"bench: {key} differ between pipelines of sub-seed {s['subseed']}",
                      file=sys.stderr)
    return first


# -- traced pipeline ----------------------------------------------------------
class Observed:
    """Counts gathered by tracer observers during one traced pipeline."""

    def __init__(self):
        self.texts = set()
        self.grad_rows = []
        self.checkpoint_bytes = 0
        self.fit_iters = 0
        self.pairwise_entries = 0

    def observers(self):
        def featurize(args, kwargs):
            self.texts.add(tuple(args[0]))

        def backward(args, kwargs, grads):
            embed = grads.embed
            self.grad_rows.append(np.count_nonzero(embed.any(axis=1)) / embed.shape[0])

        def saved(args, kwargs, _):
            self.checkpoint_bytes += os.path.getsize(args[1])

        def fitted(args, kwargs, cp):
            self.fit_iters += len(cp.fit_nll_history)

        def union(args, kwargs):  # one (n+m)^2 distance matrix
            n, m = len(args[0].vectors), len(args[1].vectors)
            self.pairwise_entries += (n + m) ** 2

        def blocks(args, kwargs):  # source-source, target-target, cross blocks
            n, m = len(args[0].vectors), len(args[1].vectors)
            self.pairwise_entries += n * n + m * m + n * m

        return {
            "data.featurize": (featurize, None),
            "model.backward": (None, backward),
            "model.save_checkpoint": (None, saved),
            "correction.fit_correction": (None, fitted),
            "mmd.median_bandwidth": (union, None),
            "mmd.contrastive_loss": (blocks, None),
            "mmd.contrastive_grad": (blocks, None),
        }


def layer_metrics(tracer: Tracer, run: int, observed: Observed, sample) -> dict:
    """Per-layer metrics of one traced pipeline (spans with this run id)."""
    names, nid, parent, run_id, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    mask = run_id == run
    nid, own, dur = nid[mask], own[mask], (end - start)[mask]
    by_name = {name: nid == i for i, name in enumerate(names)}

    def calls(*spans):
        return int(sum(np.count_nonzero(by_name[s]) for s in spans if s in by_name))

    def self_s(*spans):
        return float(sum(own[by_name[s]].sum() for s in spans if s in by_name))

    def inclusive_s(*spans):
        return float(sum(dur[by_name[s]].sum() for s in spans if s in by_name))

    out = {}
    for layer in LAYERS:
        spans = [n for n in names if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = calls(*spans)
        out[f"{layer}.self_s"] = self_s(*spans)
    for metric, span in _SPAN_METRICS.items():
        out[f"{metric}.calls"] = calls(span)
        out[f"{metric}.self_s"] = self_s(span)
    for metric, spans in _IO_SPANS.items():
        out[metric] = inclusive_s(*spans)
    out["data.featurize.repeat_ratio"] = out["data.featurize.calls"] / max(1, len(observed.texts))
    out["model.embed_grad_rows_frac"] = float(np.mean(observed.grad_rows)) if observed.grad_rows else 0.0
    out["model.checkpoint_bytes"] = observed.checkpoint_bytes
    out["correction.fit_iters"] = observed.fit_iters
    out["correction.pseudo_kept_frac"] = float(np.mean(sample["n_pseudo"])) / sample["n_pool"]
    out["mmd.pairwise_entries"] = observed.pairwise_entries
    out["mmd.pairwise_bytes"] = observed.pairwise_entries * 8  # float64 entries
    out["adapt.iterations"] = sample["iterations"]
    out["adapt.replacement_batches"] = sample["replacement_batches"]
    return out


# -- environment --------------------------------------------------------------
def git_sha():
    """HEAD's commit from .git when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(cli, work: Path, workload: str) -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "shiftadapt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "config_sha256": config_sha256(cli, work, workload),
    }


# -- a run --------------------------------------------------------------------
def _median(values):
    return float(statistics.median(values))


def _metric_block(values: dict, table: dict) -> dict:
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def _traced_pipeline(ops, cli, tracer: Tracer, work: Path, k: int):
    """synth + pipeline with every layer wrapped; (sample, per-layer metrics)."""
    observed = Observed()
    tracer.run += 1
    tracer.install(observed.observers())
    try:
        with tracer.span("bench.synth"):
            ops.timed(cli, ["synth", "--config", work / f"run_config-{k}.json"])
        sample = pipeline(ops, cli, work, k, tracer.span)
    finally:
        tracer.uninstall()
    return sample, layer_metrics(tracer, tracer.run, observed, sample)


def measure(workload: str, seed: int, seconds: float, trace: bool, out_root: Path = ROOT) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    work = out_root / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Operations()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    tracer = Tracer()
    try:
        setups = []
        for i in range(SETUP_REPS):
            cli, elapsed = setup(ops, work, workload, seed, i % SUBSEEDS)
            setups.append(elapsed)
        record["env"] = environment(cli, work, workload)

        # Closed loop: the next pipeline starts when the previous one ends,
        # while the median pipeline still fits before the deadline.
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            if trace and len(plain) > len(traced):
                sample, metrics = _traced_pipeline(ops, cli, tracer, work, len(traced) % SUBSEEDS)
                traced.append(sample)
                layers.append(metrics)
            else:
                plain.append(pipeline(ops, cli, work, len(plain) % SUBSEEDS))
            done = plain + traced
            enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
            next_wall = _median([sum(s["wall"].values()) for s in done])
            if enough and time.perf_counter() + next_wall > deadline:
                break
        firsts = by_subseed(ops, done)
        record["samples"] = {
            "setup_s": setups,
            "pipeline": [{k: s[k] for k in ("subseed", "times", "wall", "pipeline_s")}
                         for s in plain],
        }
        record["subseeds"] = {
            k: {key: s[key] for key in ("ba_before", "ba_after", "digests")}
            for k, s in sorted(firsts.items())
        }
        if trace:
            values = {name: _median([m[name] for m in layers]) for name in PER_LAYER
                      if name != "trace_overhead_frac"}
            values["trace_overhead_frac"] = (
                _median([s["pipeline_s"] for s in traced])
                / _median([s["pipeline_s"] for s in plain]) - 1.0
            )
            record["samples"]["traced_pipeline_s"] = [s["pipeline_s"] for s in traced]
            spans_path = out_root / ".bench_out" / f"spans-{workload}-s{seed}.csv"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(spans_path)
            metrics = _metric_block(values, PER_LAYER)
        else:
            values = {f"{stage}_s": _median([s["times"][stage] for s in plain]) for stage in STAGES}
            values["pipeline_s"] = _median([s["pipeline_s"] for s in plain])
            values["setup_s"] = _median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for key in ("ba_before", "ba_after"):
                values[key] = statistics.fmean(s[key] for s in firsts.values())
            metrics = _metric_block(values, END_TO_END)
        record["result"] = {"correct": ops.failed == 0, "attempted": ops.attempted,
                            "failed": ops.failed, "metrics": metrics}
    except OperationFailed:
        record["result"] = {"correct": False, "attempted": ops.attempted,
                            "failed": ops.failed, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = out_root / ".bench_out" / "results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, out_root: Path = ROOT) -> int:
    args = parse_args(argv)
    if not (SRC / "shiftadapt" / "cli.py").is_file():
        print(f"bench: no shiftadapt sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_root)
    result = record["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
