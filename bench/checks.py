"""Output checks for one workload iteration, and the digest of its
deterministic outputs.

Every check returns a (name, ok, detail) triple; ``run.py`` counts each one
as an attempted operation and each ``ok == False`` as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads

SCORE_EPS = 1e-7  # documented clamp range of discriminator scores


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _in(x, lo, hi) -> bool:
    return _finite(x) and lo <= x <= hi


def _range_problems(values: dict) -> list:
    """Documented ranges: bleu4 and rouge_l in [0, 1], d_* in
    [1e-7, 1 - 1e-7], vocab_coverage in [0, 100]; everything else finite."""
    bad = []
    for key, x in values.items():
        if key in ("bleu4", "rouge_l"):
            ok = _in(x, 0.0, 1.0)
        elif key.startswith("d_"):
            ok = _in(x, SCORE_EPS, 1.0 - SCORE_EPS)
        elif key == "vocab_coverage":
            ok = _in(x, 0.0, 100.0)
        else:
            ok = _finite(x)
        if not ok:
            bad.append(f"{key}={x!r}")
    return bad


def _read_csv(path: Path, schema: str, columns: str):
    """(problems, comment lines after the header, data rows as field lists)."""
    lines = path.read_text().splitlines()
    problems = []
    if not lines or lines[0] != f"# schema={schema}":
        problems.append(f"{path.name}: bad schema header {lines[:1]!r}")
    if len(lines) < 2 or lines[1] != columns:
        problems.append(f"{path.name}: bad column header")
    comments = [ln for ln in lines[2:] if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("#")]
    return problems, comments, rows


def check_iteration(workload: str, out: Path, record: dict, ctx: dict) -> list:
    results = []
    for k, code in enumerate(record["exit_codes"]):
        results.append((f"exit_code[{k}]", code == 0, f"exit {code}"))
    if any(record["exit_codes"]):
        return results
    try:
        if workload == "train-scst":
            results += _check_train(out)
        elif workload == "probe-gumbel":
            results += _check_probe(out, record["stdouts"][0])
        else:
            results += _check_eval(out, record["stdouts"], ctx)
    except (OSError, ValueError, KeyError, IndexError) as e:  # missing or garbled output
        results.append(("outputs_readable", False, f"{type(e).__name__}: {e}"))
    return results


def _check_train(out: Path) -> list:
    from seqgan import data as dat

    results = []
    lines = (out / "metrics.jsonl").read_text().splitlines()
    header = json.loads(lines[0]) if lines else None
    results.append(("metrics_schema", header == {"schema": "seqgan.metrics.v1"},
                    repr(header)))
    records = [json.loads(ln) for ln in lines[1:]]
    epochs = [r.get("epoch") for r in records]
    want = list(range(1, workloads.TRAIN_GAN_EPOCHS + 1))
    results.append(("metrics_records_per_epoch", epochs == want, f"epochs {epochs}"))
    bad = [p for r in records for p in _range_problems(r)]
    results.append(("metrics_ranges", not bad, "; ".join(bad)))

    ckpts = sorted(out.glob("ckpt-*.sgck"))
    want_names = [f"ckpt-{e:05d}.sgck" for e in range(workloads.TRAIN_GAN_EPOCHS + 1)]
    results.append(("checkpoint_count", [p.name for p in ckpts] == want_names,
                    f"{len(ckpts)} checkpoints"))
    for path in ckpts:
        rewrite = out / f"{path.name}.rewrite"
        try:
            dat.save_checkpoint(rewrite, dat.load_checkpoint(path))
            same = rewrite.read_bytes() == path.read_bytes()
            detail = "rewrite differs" if not same else ""
        except Exception as e:  # a checkpoint that fails to load is a failed check
            same, detail = False, f"{type(e).__name__}: {e}"
        finally:
            rewrite.unlink(missing_ok=True)
        results.append((f"checkpoint_roundtrip[{path.name}]", same, detail))
    return results


def _check_probe(out: Path, stdout: str) -> list:
    problems, comments, rows = _read_csv(out / "grad_probe.csv",
                                         "seqgan.grad_probe.v1",
                                         "batch_index,estimator,l2_norm")
    results = [("probe_headers", not problems, "; ".join(problems))]
    printed = dict(
        (ln.split()[1].rstrip(":"), ln) for ln in stdout.splitlines()
        if ln.startswith("grad-probe ") and "mean=" in ln)
    for est in workloads.PROBE_ESTIMATORS:
        est_rows = [r for r in rows if len(r) == 3 and r[1] == est]
        index_ok = [int(r[0]) for r in est_rows] == list(range(workloads.PROBE_BATCHES))
        results.append((f"probe_rows[{est}]", index_ok, f"{len(est_rows)} rows"))
        norms = np.array([float(r[2]) for r in est_rows])
        finite = bool(np.all(np.isfinite(norms)) and np.all(norms >= 0))
        results.append((f"probe_values[{est}]", finite, ""))
        summary = any(c.startswith(f"# summary estimator={est} ") for c in comments)
        results.append((f"probe_summary_line[{est}]", summary, ""))
        # compared with stdout, not the CSV summary line: that line prints
        # numpy reprs (see NOTES.md)
        want = f"grad-probe {est}: mean={norms.mean():.6g} variance={norms.var():.6g}"
        got = printed.get(est)
        results.append((f"probe_stdout_stats[{est}]", got == want,
                        f"printed {got!r}, recomputed {want!r}"))
    return results


def _check_eval(out: Path, stdouts: list, ctx: dict) -> list:
    results = []
    _, splits = workloads.eval_order(ctx["seed"])
    for split, stdout in zip(splits, stdouts):
        problems, _, rows = _read_csv(
            out / f"eval-{split}.csv", "seqgan.eval.v1",
            "image_id,caption,cider,semantic_score,d_score")
        results.append((f"eval_headers[{split}]", not problems, "; ".join(problems)))
        want = ctx["split_sizes"][split]
        results.append((f"eval_rows[{split}]", len(rows) == want,
                        f"{len(rows)} rows, split has {want}"))
        values = [{"cider": float(r[-3]), "semantic_score": float(r[-2]),
                   "d_score": float(r[-1])} for r in rows]
        bad = [p for v in values for p in _range_problems(v)]
        results.append((f"eval_row_ranges[{split}]", not bad, "; ".join(bad[:5])))

        reports = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]
        report = reports[0] if len(reports) == 1 else {}
        results.append((f"eval_report[{split}]", report.get("split") == split,
                        repr(report)[:200]))
        metrics = {k: v for k, v in report.items() if k != "split"}
        bad = _range_problems(metrics)
        results.append((f"eval_report_ranges[{split}]", not bad, "; ".join(bad)))
        mean = float(np.mean([v["cider"] for v in values])) if values else math.nan
        results.append((f"eval_cider_is_row_mean[{split}]", report.get("cider") == mean,
                        f"report {report.get('cider')!r}, rows {mean!r}"))
    return results


def output_digest(workload: str, out: Path, record: dict) -> str:
    """sha256 over the iteration's deterministic outputs, in a fixed order."""
    if workload == "train-scst":
        files = [out / "metrics.jsonl", *sorted(out.glob("ckpt-*.sgck"))]
    elif workload == "probe-gumbel":
        files = [out / "grad_probe.csv"]
    else:
        files = sorted(out.glob("eval-*.csv"))
    h = hashlib.sha256()
    for path in files:
        if path.exists():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for stdout in record["stdouts"]:
        # the report lines only: the path lines name the output directory
        for line in stdout.splitlines():
            if line.startswith(("{", "grad-probe ")) and "->" not in line:
                h.update(line.encode() + b"\n")
    return h.hexdigest()
