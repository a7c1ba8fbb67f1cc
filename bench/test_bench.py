"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest bench/test_bench.py -q

Takes a few minutes: the first call trains the fixture checkpoints, and each
workload then runs twice under the tracer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    fixtures = run.ensure_fixtures(run.source_digest(), workloads.FIXTURES[workload])
    out = run.BUILD / "test-runs" / workload
    shutil.rmtree(out, ignore_errors=True)
    args = argparse.Namespace(workload=workload, seed=3)
    counts = []
    for k in range(2):
        rec = run.run_iteration(args, fixtures, out / f"iter-{k}", traced=True)
        assert "worker_error" not in rec, rec.get("worker_error")
        assert rec["exit_codes"] and not any(rec["exit_codes"])
        counts.append({name: rec["layers"][name] for name in tracer.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.nodes"] > 0 and counts[0]["autodiff.tapes"] > 0
    assert counts[0]["captioner.steps"] > 0 and counts[0]["captioner.binds"] > 0
    shutil.rmtree(out, ignore_errors=True)


_PATCH_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from seqgan import captioner, cli, training
plain = {n: getattr(captioner, n) for n in ("greedy_decode", "sample_sentence")}
tracer.Tracer().install()
print(json.dumps({
    "training.greedy_decode": training.greedy_decode is captioner.greedy_decode,
    "training.sample_sentence": training.sample_sentence is captioner.sample_sentence,
    "cli.greedy_decode": cli.greedy_decode is captioner.greedy_decode,
    "cli.ensemble_decode": cli.ensemble_decode is captioner.ensemble_decode,
    "captioner.greedy_decode wrapped":
        captioner.greedy_decode is not plain["greedy_decode"],
    "training.sample_sentence wrapped":
        training.sample_sentence is not plain["sample_sentence"],
}))
"""


def test_tracer_patches_names_imported_by_name():
    proc = subprocess.run(
        [sys.executable, "-c", _PATCH_PROBE, str(run.HERE), str(run.ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout)
    assert all(result.values()), result


def test_floor_seconds_takes_fastest_repetition():
    records = [
        {"segments": [0.5, None, 0.2], "units": {"ce": {"1 2": [0.3, 0.1], "adam": [0.05]}}},
        {"segments": [0.4, None, 0.3], "units": {"ce": {"1 2": [0.2, 0.2], "adam": [0.04]}}},
    ]
    assert run.floor_seconds(records, "segments") == pytest.approx(0.4 + 0.2)
    assert run.floor_seconds(records, "ce") == pytest.approx(2 * 0.1 + 0.04)
    records[1]["segments"].append(0.1)  # iterations that made different calls
    assert run.floor_seconds(records, "segments") is None
