"""One iteration of one workload, in a fresh process.

Started by ``run.py``; runs the workload's ``seqgan`` commands in order
through ``seqgan.cli.main`` and writes ``record.json`` (and, when traced,
``spans.tsv``) into the iteration directory.  Only what this process does is
measured: set-up counts from ``--spawned-at``, the parent's monotonic clock
reading just before it started this process.  With ``--setup-only`` it stops
at the first training or decoding call and records only ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first training or decoding call")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads
    from seqgan import cli

    out = Path(args.out)
    instrument = tracer.Tracer() if args.trace else tracer.PhaseTimers()
    instrument.install()
    instrument.setup_only = args.setup_only

    codes, stdouts = [], []
    for argv in workloads.commands(args.workload, args.seed, out, Path(args.fixtures)):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
        except tracer.SetupDone:
            break
        stdouts.append(buf.getvalue())
    end = time.perf_counter()
    if args.setup_only:
        first = instrument.first_work_at
        if first is None:
            print("set-up-only run reached no training or decoding call", file=sys.stderr)
            return 1
        (out / "record.json").write_text(json.dumps({"setup_s": first - args.spawned_at}))
        return 0

    record = {
        "exit_codes": codes,
        "stdouts": stdouts,
        "wall_s": end - args.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        stats = instrument.span_stats()
        record["layers"] = tracer.layer_metrics(stats, instrument.counts)
        record["spans"] = {name: {k: v for k, v in s.items() if k != "durations"}
                           for name, s in sorted(stats.items())}
        instrument.write_spans(out / "spans.tsv")
    else:
        first = instrument.first_work_at
        record["setup_s"] = (first if first is not None else end) - args.spawned_at
        record["phase_s"] = dict(instrument.phase_s)
        record["work"] = dict(instrument.work)
        record["ce_final_nats"] = instrument.ce_final_nats
        record["units"] = {group: dict(units) for group, units in instrument.units.items()}
        record["segments"] = instrument.segments(end)
    (out / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
