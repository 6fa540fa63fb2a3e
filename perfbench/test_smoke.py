"""Self-check of the benchmark harness (not part of the package's tests).

    python3 -m pytest perfbench/test_smoke.py -q
    python3 perfbench/test_smoke.py

Each run test makes a reduced cli-small run: ten seconds, thirty when
traced.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
LAYERS = {"fields", "linalg", "algebra", "regularity", "commutator", "catalog", "cli"}


def _run(cwd=ROOT, script=os.path.join(HERE, "run.py"), trace="0", env=None):
    argv = [sys.executable, script, "--workload", "cli-small", "--seed", "7",
            "--seconds", "0", "--passes", "1", "--trace", trace]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


def _copy(tmp, with_sources):
    """A checkout in tmp holding BENCHMARK.json and a copy of the benchmark,
    and, with_sources, a link to this checkout's src/."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
    if with_sources:
        os.symlink(os.path.join(ROOT, "src"), os.path.join(tmp, "src"))
    return os.path.join(tmp, "perfbench", "run.py")


def test_reduced_pass_prints_every_metric():
    # a budget override in the environment must not reach the package:
    # with it, regular.sl2f5 (25 points) would end unanswered
    proc = _run(env=dict(os.environ, LIELAB_EXHAUSTIVE_CAP="1"))
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert len(E2E) == 7 and set(result["metrics"]) == E2E
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 16
    assert result["metrics"]["answered_frac"]["value"] == 1
    assert record["metrics"]["failed_frac"]["value"] == 0
    assert record["conditions"]["lielab_env_removed"] == ["LIELAB_EXHAUSTIVE_CAP"]
    assert record["seed"] == 7 and len(record["inputs_sha256"]) == 64


def test_corrupted_pin_fails_the_run():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        script = _copy(tmp, with_sources=True)
        path = os.path.join(tmp, "perfbench", "pins.json")
        with open(path, encoding="utf-8") as fh:
            pins = json.load(fh)
        pins["cli-small"]["rank.sl3q"]["stdout_sha256"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pins, fh)
        proc = _run(cwd=tmp, script=script)
    assert proc.returncode != 0
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is False and result["failed"] == 1
    assert record["metrics"]["failed_frac"]["value"] > 0
    assert any(f.startswith("rank.sl3q:") for f in record["failures"])


def test_traced_run_reports_every_layer_metric():
    proc = _run(trace="1")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result["metrics"]) == PER_LAYER
    for key, (first, second) in record["exact_counts"].items():
        assert first == second, key
    measured = {name.split(".")[0] for name, m in result["metrics"].items() if m["value"]}
    assert LAYERS <= measured, LAYERS - measured


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        proc = _run(cwd=tmp, script=_copy(tmp, with_sources=False))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_interactions_name_the_benchmark_metrics():
    with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(doc["workloads"]) == workloads
    assert set(doc["end_to_end"]) == E2E
    assert [entry["metric"] for entry in doc["layers"]] == [m["name"] for m in SPEC["per_layer"]]
    for entry in doc["layers"]:
        for metric, workload in entry["moves"]:
            assert metric in E2E and workload in workloads, entry


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
