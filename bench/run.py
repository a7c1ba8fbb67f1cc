"""seqgan-lab benchmark: one workload, one run.

    python3 bench/run.py --workload train-scst --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout.  The run builds its fixture
checkpoints with the code under test (once per source version, untimed),
then starts fresh worker processes one after another (closed loop, one
process at a time, no threads) until ``--seconds`` have passed, checks every
iteration's outputs, and prints the metrics.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Everything it writes goes under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BENCH_VERSION = 1

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
ITERATION_TIMEOUT_S = 170
# Stop starting iterations once this much of the run is spent, so a run ends
# within its time limit even on a host running at half speed.
RUN_BUDGET_S = 120
MIN_ITERATIONS = 2
# setup_s is the median of at least this many set-ups; runs with fewer
# iterations add set-up-only processes
SETUP_SAMPLES = 7

END_TO_END = {  # name -> unit; the gated metrics, reported for every workload
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
WORK_UNIT = {"train-scst": "captions/s", "probe-gumbel": "batches/s",
             "eval-ensemble": "images/s"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["SEQGAN_LOG"] = "error"
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqgan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# provenance and calibration
# ---------------------------------------------------------------------------


def provenance(args, src_sha: str) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                     capture_output=True, text=True, timeout=10,
                                     check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "bench_version": BENCH_VERSION,
        "git_sha": git_sha, "source_sha256": src_sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS, "platform": platform.platform(),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus small-numpy loop (best of 3).

    Uses no seqgan code, so no change to the program moves it; compare it
    across runs to tell a slow host from a slow program.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc = (acc + i * i) % 1_000_003
        a = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
        for _ in range(6_000):
            a = np.tanh(a @ a.T + 0.1)
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def ensure_fixtures(src_sha: str, needed) -> Path:
    """Fixture checkpoints for this source version, trained once, untimed."""
    key = hashlib.sha256(f"{src_sha}:{BENCH_VERSION}".encode()).hexdigest()[:16]
    root = BUILD / "fixtures" / key
    if root.parent.exists():
        for stale in root.parent.iterdir():
            if stale != root:
                shutil.rmtree(stale)
    root.mkdir(parents=True, exist_ok=True)
    workloads.write_train_config(root)
    for fixture in needed:
        spec = json.dumps(fixture, sort_keys=True)
        final = root / fixture["name"]
        done = final / "fixture.json"
        if done.exists() and done.read_text() == spec:
            continue
        tmp = root / f"tmp-{fixture['name']}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(fixture["config"]))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "seqgan", "train", "--config", str(cfg),
             "--seed-override", str(fixture["seed"]), "--out-dir", str(tmp)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0 or not (tmp / fixture["checkpoint"]).exists():
            raise RuntimeError(f"fixture {fixture['name']} failed: {proc.stderr.strip()}")
        (tmp / "fixture.json").write_text(spec)
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
        print(f"fixture {fixture['name']}: trained in {time.perf_counter() - t0:.1f} s",
              flush=True)
    return root


def check_context(args, fixtures: Path) -> dict:
    """Facts the output checks compare against, computed with the program."""
    ctx = {"seed": args.seed}
    if args.workload == "eval-ensemble":
        from seqgan import cli, data as dat

        ckpt = dat.load_checkpoint(
            workloads.fixture_checkpoint(fixtures, workloads.EVAL_FIXTURES[0]))
        dataset = cli.build_dataset(cli.parse_config(ckpt.config))
        ctx["split_sizes"] = {s: len(dataset.split(s)) for s in workloads.EVAL_SPLITS}
    return ctx


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------


def run_iteration(args, fixtures: Path, out: Path, traced: bool,
                  setup_only: bool = False) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--out", str(out),
           "--fixtures", str(fixtures)] + (["--setup-only"] if setup_only else [])
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"worker_error": f"timed out after {ITERATION_TIMEOUT_S} s"}
    record_path = out / "record.json"
    if proc.returncode != 0 or not record_path.exists():
        return {"worker_error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record = json.loads(record_path.read_text())
    (out / "stderr.txt").write_text(proc.stderr)
    return record


def end_to_end(workload: str, rec: dict, out: Path) -> dict:
    """End-to-end values of one untraced iteration, gated or not."""
    phase, work = rec["phase_s"], rec["work"]
    values = {"wall_s": rec["wall_s"], "setup_s": rec["setup_s"],
              "peak_rss_mb": rec["peak_rss_mb"]}
    if workload == "train-scst":
        values["ce_captions_per_s"] = work["ce_captions"] / phase["ce_pretrain"]
        values["gan_images_per_s"] = work["gan_images"] / phase["train_gan"]
        values["ce_final_nats"] = rec["ce_final_nats"]
        last = (out / "metrics.jsonl").read_text().splitlines()[-1]
        values["cider"] = json.loads(last)["cider"]
    elif workload == "probe-gumbel":
        values["probe_batches_per_s"] = work["probe_batches"] / phase["grad_norm_probe"]
    else:
        values["eval_images_per_s"] = work["eval_images"] / (rec["wall_s"] - rec["setup_s"])
        reports = [json.loads(ln) for s in rec["stdouts"] for ln in s.splitlines()
                   if ln.startswith("{")]
        values["cider"] = sum(r["cider"] for r in reports) / len(reports)
    return values


def floor_seconds(records: list, part: str):
    """Noise-floor time of one part of one iteration's work after set-up.

    The host slows programs down by up to 2x, in phases of a tenth of a
    second to tens of seconds; it never speeds them up.  So each piece of work that repeats
    exactly within a run is timed at its fastest repetition, and the floors
    are summed over one iteration's pieces (see ``tracer.PhaseTimers``):

    - ``segments``: the k-th stretch between marks, repeated once per
      iteration, since every iteration runs the same calls;
    - ``ce``, ``decode``: keyed units, each key repeated many times per
      iteration; they cover the calls that the segments leave out.

    Returns None when the iterations' segment counts differ, which would
    mean they did not repeat the same calls.
    """
    if part == "segments":
        runs = [r["segments"] for r in records]
        if len({len(s) for s in runs}) != 1:
            return None
        return sum(min(column) for column in zip(*runs) if None not in column)
    best = {}
    for rec in records:
        for key, durations in rec["units"][part].items():
            best[key] = min(best.get(key, float("inf")), *durations)
    return sum(len(durations) * best[key]
               for key, durations in records[0]["units"][part].items())


# work counted by work_per_s, and the part of the floor it is divided by
# (None: everything after set-up)
FLOOR_WORK = {"train-scst": ("ce_captions", "ce"),
              "probe-gumbel": ("probe_batches", None),
              "eval-ensemble": ("eval_images", None)}


UNITS = {"wall_s": "s", "wall_median_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "fail_share": "ratio",
         "ce_captions_per_s": "captions/s", "gan_images_per_s": "images/s",
         "probe_batches_per_s": "batches/s", "eval_images_per_s": "images/s",
         "ce_final_nats": "nats/token", "cider": "CIDEr-D"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "seqgan" / "cli.py").is_file():
        print(f"error: no seqgan sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(THREAD_PINS)  # before numpy loads in this process too

    src_sha = source_digest()
    prov = provenance(args, src_sha)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    try:
        fixtures = ensure_fixtures(src_sha, workloads.FIXTURES[args.workload])
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ctx = check_context(args, fixtures)

    import checks
    import tracer

    run_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    calib_before = calibrate()
    attempted = failed = 0
    plain, traced, digests, failures = [], [], [], []
    started = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - started
        if args.trace:
            enough = plain and traced and elapsed >= args.seconds
        else:
            # stop before an iteration that would end past the measuring time
            typical = median(r["wall_s"] for r in plain) if plain else 0.0
            enough = len(plain) >= MIN_ITERATIONS and elapsed + typical > args.seconds
        last = max((r["wall_s"] for r in plain + traced), default=0.0)
        if enough or (k >= 2 and elapsed + last > RUN_BUDGET_S):
            break
        # traced runs alternate plain and traced iterations, starting plain
        is_traced = bool(args.trace) and k % 2 == 1
        out = run_dir / f"iter-{k:03d}{'-traced' if is_traced else ''}"
        rec = run_iteration(args, fixtures, out, is_traced)
        k += 1
        if "worker_error" in rec:
            attempted += 1
            failed += 1
            failures.append(("worker", rec["worker_error"]))
            print(f"iter {k - 1}: worker failed: {rec['worker_error']}", flush=True)
            continue
        results = checks.check_iteration(args.workload, out, rec, ctx)
        digest = checks.output_digest(args.workload, out, rec)
        if digests:
            results.append(("outputs_repeat_within_run", digest == digests[0],
                            f"{digest[:16]} vs {digests[0][:16]}"))
        if not is_traced and plain:
            n, first = len(rec["segments"]), len(plain[0]["segments"])
            results.append(("calls_repeat_within_run", n == first,
                            f"{n} vs {first} segments between marks"))
        if is_traced and traced and "layers" in rec:
            diff = [n for n in tracer.COUNT_METRICS
                    if rec["layers"][n] != traced[0]["layers"][n]]
            results.append(("trace_counts_repeat_within_run", not diff, ", ".join(diff)))
        digests.append(digest)
        attempted += len(results)
        bad = [(name, detail) for name, ok, detail in results if not ok]
        failed += len(bad)
        failures += bad
        if not is_traced and not any(rec["exit_codes"]):
            rec["values"] = end_to_end(args.workload, rec, out)
        (traced if is_traced else plain).append(rec)
        print(f"iter {k - 1}{' traced' if is_traced else ''}: wall_s={rec['wall_s']:.4f} "
              f"checks={len(results)} failed={len(bad)} sha256={digest[:16]}", flush=True)
    setups = [r["setup_s"] for r in plain if "values" in r]
    probes = 0
    while not args.trace and setups and len(setups) < SETUP_SAMPLES:
        rec = run_iteration(args, fixtures, run_dir / f"setup-{probes:03d}", False,
                            setup_only=True)
        probes += 1
        attempted += 1
        if "worker_error" in rec:
            failed += 1
            failures.append(("setup_only_worker", rec["worker_error"]))
            print(f"set-up {probes - 1}: worker failed: {rec['worker_error']}", flush=True)
            break
        setups.append(rec["setup_s"])
        print(f"set-up {probes - 1}: setup_s={rec['setup_s']:.4f}", flush=True)
    calib_after = calibrate()

    for name, detail in failures:
        print(f"FAILED {name}: {detail}", flush=True)

    metrics, report = {}, {}
    ok_plain = [r for r in plain if "values" in r]
    if ok_plain:
        report = {name: median(r["values"][name] for r in ok_plain)
                  for name in ok_plain[0]["values"]}
        report["setup_s"] = median(setups)
        report["wall_median_s"] = report["wall_s"]
        work, part = FLOOR_WORK[args.workload]
        after_setup = floor_seconds(ok_plain, "segments")
        if after_setup is not None:  # else the failed check above says why
            after_setup += floor_seconds(ok_plain, "ce") + floor_seconds(ok_plain, "decode")
            report["wall_s"] = min(setups) + after_setup
            floor = after_setup if part is None else floor_seconds(ok_plain, part)
            report["work_per_s"] = ok_plain[0]["work"][work] / floor
    report["fail_share"] = failed / attempted
    for name in sorted(report):
        unit = WORK_UNIT[args.workload] if name == "work_per_s" else UNITS[name]
        print(f"metric {name} = {report[name]!r} {unit}", flush=True)

    if args.trace:
        ok_traced = [r for r in traced if not any(r["exit_codes"])]
        if ok_traced and ok_plain:
            # counts repeat exactly (checked above); times are medians
            layers = {name: ok_traced[0]["layers"][name] if name in tracer.COUNT_METRICS
                      else median(r["layers"][name] for r in ok_traced)
                      for name in ok_traced[0]["layers"]}
            layers["trace.overhead_share"] = (
                median(r["wall_s"] for r in ok_traced)
                / median(r["wall_s"] for r in ok_plain) - 1.0)
            metrics = {name: {"value": v, "unit": layer_unit(name)}
                       for name, v in layers.items()}
    elif all(name in report for name in END_TO_END):
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {
        "provenance": prov,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "iterations": {"plain": len(plain), "traced": len(traced),
                       "setup_only": probes},
        "output_sha256": digests[0] if digests else None,
        "outputs_identical": len(set(digests)) == 1,
        "report": report,
        "metrics": metrics,
        "failures": failures,
        "records": plain + traced,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"calibration_s before={calib_before!r} after={calib_after!r}")
    print(f"output_sha256 {result['output_sha256']}")
    print(f"result -> {run_dir / 'result.json'}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
