"""Benchmark of the angk0 command line over three seeded workloads.

    python3 perfbench/run.py --workload k0-wide|classify-enum|desk-mix
        --seed N --seconds T --trace 0|1

One client calls ``angk0.cli.main`` in a separate worker process, in a
closed loop (each call starts when the previous one returns), repeating the
whole corpus, in a new order each pass, until T seconds are spent (after
the first pass a case is called up to three times a pass, at random places,
as many times as fit in 0.1 s); each case's time is the median of its
calls.  Every time is reported at a fixed host speed: the worker reads
the angk0-free probe of hostspeed.py after every 0.15 s of calls and scales
the calls between two readings by their mean, because the speed of a shared
VM swings by up to two times within seconds.  setup_s is
the median of seven set-ups, four before and three after the measured
worker, each scaled the same way by readings taken around it.  The raw
figures are kept in the full report.

This process generates the same corpus, checks every report
against answers computed without angk0 (see oracle.py) and prints one JSON
line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker alternates untraced passes with passes traced by spans.py and the
metrics are per layer.  The full report, with per-case times, stdout
digests, host load and the probe readings, is written under
``.perfbench/results/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 4, 3  # set-ups read around the measured worker
WORKER_TIMEOUT_S = 160.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _worker(args, workdir: Path, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return start, proc.stdout


def setup_sample(args, workdir: Path):
    """(raw, scaled) seconds from starting a worker to its first timed call."""
    before = hostspeed.probe()
    start, out = _worker(args, workdir, ["--setup-probe"], 60)
    raw = float(out) - start
    shutil.rmtree(workdir, ignore_errors=True)
    return raw, raw * hostspeed.factor(before, hostspeed.probe())


def measure(args, workdir: Path):
    """Set-up samples and the worker's report."""
    setup = [setup_sample(args, workdir / f"probe{i}") for i in range(SETUP_BEFORE)]
    out_file = workdir / "report.json"
    _worker(args, workdir / "cases", ["--out", str(out_file)], WORKER_TIMEOUT_S)
    report = json.loads(out_file.read_text(encoding="utf-8"))
    setup += [setup_sample(args, workdir / f"probe{i}")
              for i in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER)]
    return setup, report


def evaluate(data, report):
    """Check every case; returns per-case verdicts and the failure tally."""
    docs = data["files"]
    verdicts = []
    witness_equal = witness_certified = 0
    for case, rec in zip(data["cases"], report["records"]):
        if rec["status"] != "ok":
            reason = rec["status"] if rec["status"] == "timeout" else f"raised {rec['exit']}"
            verdicts.append({"id": case["id"], "ok": False, "reason": reason})
            continue
        reason, facts = oracle.check(case, docs.__getitem__, rec["exit"], rec["stdout"])
        if reason is None and not rec["stable"]:
            reason = "stdout or exit code changed between passes"
        if facts.get("equal"):
            witness_equal += 1
            witness_certified += facts.get("certified", False)
        verdicts.append({"id": case["id"], "ok": reason is None, "reason": reason})
    return verdicts, witness_equal, witness_certified


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "angk0" / "cli.py").is_file():
        print(f"error: no angk0 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench"
    workdir = base / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup, report = measure(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    data = corpus.build(args.workload, args.seed)
    verdicts, witness_equal, witness_certified = evaluate(data, report)
    records = report["records"]
    # every pass calls every case that has not failed; a failed case stops
    # being called, and a wrong report counts against each of its calls
    calls = [max(1, len(r["times"]) + len(r["traced_times"])) for r in records]
    attempted = sum(calls)
    failed_cases = [v for v in verdicts if not v["ok"]]
    failed = sum(n for n, v in zip(calls, verdicts) if not v["ok"])
    correct = not any(v["reason"] != "timeout" for v in failed_cases)
    for rec in records:
        rec.pop("stdout")
    host = report["host"]
    probes = host["host_probe_ms"]
    budget_s = host["case_budget_s"]
    case_ms = [1000.0 * (statistics.median(r["times"]) if r["times"] else budget_s)
               for r in records]
    raw_ms = [1000.0 * (statistics.median(r["raw_times"]) if r["raw_times"] else budget_s)
              for r in records]

    if args.trace:
        runs = [run["layers"] for run in report["layer_runs"]]
        # spans sum time over a whole pass, so they get the run's typical scale
        scale = hostspeed.REF_MS / statistics.median(probes)
        metrics = {}
        for name, first in runs[0].items():
            if name.endswith("_ms"):
                value, unit = scale * statistics.median(run[name] for run in runs), "ms"
            else:
                value, unit = first, "count"
            metrics[name] = {"value": value, "unit": unit}
        metrics["lattices.enum_yield"]["unit"] = "fraction"
        metrics["k0.witness_peak_mb"] = {"value": report["witness_peak_mb"], "unit": "MB"}
        overhead = 100.0 * (report["traced_corpus_s"] / report["untraced_corpus_s"] - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        if report["silent_spans"]:
            print(f"error: spans recorded no calls: {report['silent_spans']}", file=sys.stderr)
            return 1
    else:
        metrics = {
            "corpus_s": {"value": sum(case_ms) / 1000.0, "unit": "s"},
            "call_p50_ms": {"value": statistics.median(case_ms), "unit": "ms"},
            "call_p90_ms": {"value": _percentile(case_ms, 90), "unit": "ms"},
            "pass_share": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            # vacuously 1 on a workload without witness calls on equal classes
            "witness_certified_share": {
                "value": witness_certified / witness_equal if witness_equal else 1.0,
                "unit": "fraction"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
        }

    digests = [r["digest"] or r["status"] for r in records]
    workload_digest = hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": report["passes"], "cases": len(records),
        "workload_digest": workload_digest, "setup_samples_s": setup,
        "raw_corpus_s": sum(raw_ms) / 1000.0, "raw_call_p50_ms": statistics.median(raw_ms),
        "witness_equal_calls": witness_equal, "witness_certified": witness_certified,
        "host": host, "metrics": metrics, "verdicts": verdicts, "records": records,
    }
    for key in ("layer_runs", "per_case_calls"):
        if key in report:
            full[key] = report[key]
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(records)} cases x {report['passes']} passes, "
          f"p90 over {len(case_ms)} cases, workload digest {workload_digest[:16]}")
    print(f"host: python {host['python']}, nproc {host['nproc']}, loadavg "
          f"{host['loadavg_start'][0]:.2f}->{host['loadavg_end'][0]:.2f}, host probe "
          f"{probes[0]:.2f}->{probes[-1]:.2f} ms (median {statistics.median(probes):.2f} "
          f"of {len(probes)}, reference {hostspeed.REF_MS})")
    for v in failed_cases:
        print(f"FAILED {v['id']}: {v['reason']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
