"""Tests of the benchmark itself: span arithmetic, tracer installation,
metric names, workload configs, a smoke run, the bare-directory failure and
the comparison verdicts."""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A pipeline small enough to run in a second or two.
SMOKE = {
    "why": "smoke test",
    "synth": {"n_source": 200, "n_target": 200},
    "config": {
        "data": {"calib_size": 50},
        "model": {"hash_dim": 256, "d_embed": 8, "d_hidden": 8},
        "train": {"max_epochs": 2},
        "adapt": {"epochs": 2, "iterations_per_epoch": 2, "batch_size": 8},
    },
}


def test_self_times_on_nested_fake_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # a second root [20, 21] has no children.
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_clock_scales_wall_time_by_the_reference(monkeypatch):
    # The reference takes 2x and then 4x its nominal time around a step:
    # the step ran on a processor three times slower than nominal.
    refs = iter([2 * reference.NOMINAL_S, 4 * reference.NOMINAL_S])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(refs))
    clock = reference.Clock()
    scaled, wall = clock.time(lambda: None)
    assert wall >= 0 and scaled == pytest.approx(wall / 3)


def test_clock_reuses_a_fresh_reference(monkeypatch):
    calls = []
    monkeypatch.setattr(reference, "reference_seconds",
                        lambda: calls.append(1) or reference.NOMINAL_S)
    clock = reference.Clock()
    clock.time(lambda: None)
    clock.time(lambda: None)  # reuses the previous step's "after" reference
    assert len(calls) == 3


def test_span_csv_holds_plain_numbers(tmp_path):
    tracer = Tracer()
    with tracer.span("bench.outer"):
        with tracer.span("bench.inner"):
            pass
    tracer.write_csv(tmp_path / "spans.csv")
    rows = [line.split(",") for line in (tmp_path / "spans.csv").read_text().splitlines()]
    assert rows[0] == ["span", "name", "parent", "run", "start_s", "end_s"]
    assert [r[1:3] for r in rows[1:]] == [["bench.outer", "-1"], ["bench.inner", "0"]]
    for r in rows[1:]:
        assert float(r[5]) >= float(r[4])


def test_tracer_rebinds_every_namespace_and_restores():
    from shiftadapt import adapt, cli, correction, data, model

    originals = (model.forward, adapt.forward, correction.forward, model.Optimizer.step)
    tracer = Tracer()
    tracer.install()
    try:
        assert adapt.forward is model.forward is correction.forward
        assert model.forward is not originals[0]
        params = model.init(64, 4, 4, seed=0)
        feats = [data.featurize(["a", "b"], 64)]
        correction.predict_labels(params, feats)
    finally:
        tracer.uninstall()
    assert (model.forward, adapt.forward, correction.forward, model.Optimizer.step) == originals
    assert cli.main.__module__ == "shiftadapt.cli" and not hasattr(cli.main, "__wrapped__")
    names, nid, parent, _, start, end = tracer.arrays()
    spans = [names[i] for i in nid]
    assert spans[:3] == ["model.init", "data.featurize", "correction.predict_labels"]
    assert "data.fnv1a_64" not in spans
    inner = spans.index("model.forward")
    assert spans[parent[inner]] == "correction.predict_labels"
    assert np.all(end >= start)


@pytest.mark.parametrize("name", sorted(run.END_TO_END) + sorted(run.PER_LAYER)
                         + sorted(WORKLOADS))
def test_names_are_valid(name):
    assert NAME.fullmatch(name)


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(name, tmp_path):
    from shiftadapt import cli

    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(run_config(cli, name, 1, str(tmp_path))))
    cfg = cli.load_config(path, [])
    cli.validate_config(cfg)
    assert cfg["adapt"]["iterations_per_epoch"] is not None


def _smoke(tmp_path, trace):
    # A separate interpreter: each set-up re-imports shiftadapt, and the
    # traced run rebinds its functions; neither may touch this process.
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from pathlib import Path\n"
        "import run, workloads\n"
        f"workloads.WORKLOADS['smoke'] = json.loads({json.dumps(SMOKE)!r})\n"
        f"record = run.measure('smoke', 1, 0.0, {bool(trace)}, Path({str(tmp_path)!r}))\n"
        "print(json.dumps(record['result']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(tmp_path, trace):
    result = _smoke(tmp_path, trace)
    assert result["correct"] and result["failed"] == 0
    # the set-ups plus, per pipeline, pretrain, adapt and evaluate (traced: and synth)
    assert result["attempted"] >= run.SETUP_REPS + 3 * run.MIN_REPS
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert np.isfinite(metric["value"])
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["adapt.iterations"] == 4 and m["model.optimizer_step.calls"] > 0
        assert m["mmd.pairwise_entries"] == 4 * (16 ** 2 + 2 * 3 * 8 ** 2)
        assert m["data.featurize.repeat_ratio"] > 1
    else:
        assert 0 < result["metrics"]["ba_after"]["value"] <= 1
    records = [json.loads(line) for line in open(tmp_path / ".bench_out" / "results.jsonl")]
    assert records[-1]["env"]["nproc"] >= 1
    assert set(records[-1]["subseeds"]["0"]["digests"]) == set(run.DIGESTED)
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = {seed: 10.0 + 0.1 * (seed % 3) for seed in range(10)}
    faster = {seed: v * 0.8 for seed, v in base.items()}
    slower = {seed: v * 1.3 for seed, v in base.items()}
    noisy = {seed: v * (0.5 if seed % 2 else 1.5) for seed, v in base.items()}
    assert compare.verdict(base, faster, "lower", 0.1) == ("gain", 10, 10)
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "regression"
    assert compare.verdict(base, dict(base), "lower", 0.1)[0] == "no regression"
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, slower, "higher", 0.1)[0] == "gain"
