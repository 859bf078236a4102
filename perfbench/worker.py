"""The measured process: one client calling ``angk0.cli.main`` in process.

Run by ``run.py``; not meant to be started by hand.  The loop is closed and
single-threaded: each call starts when the previous one returns.  stdout of
every call is captured, hashed and handed back for checking, which happens
in the parent so that no oracle work (or its imports) lands in this
process's time or peak memory.

    worker.py --workload W --seed S --seconds T --trace 0|1 --workdir DIR
              --out FILE [--setup-probe]

With --setup-probe the process stops once it is ready for its first timed
call and prints the monotonic clock reading of that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import angk0.cli  # noqa: E402  (the import is part of the measured set-up)
import corpus  # noqa: E402
import hostspeed  # noqa: E402

CASE_BUDGET_S = 10.0  # a call running longer is recorded as "timeout"
HARD_LIMIT_S = 120.0  # after this, every case not yet run is a timeout
# hostspeed.probe() is read again once the calls since the last reading
# took this long; each call's time is scaled by the readings around it
PROBE_EVERY_S = 0.15
# After the first pass, an untraced pass calls a case up to LIGHT_REPEATS
# times, as many as fit in LIGHT_S at the speed of its first call, at random
# places in the pass: the heavy cases set how many passes fit in a run, and
# four passes were too few samples for the 20-60 ms cases on which
# call_p90_ms falls.  Calls made back to back would share one reading of
# the host's speed, so the repeats are spread over the pass.
LIGHT_S = 0.1
LIGHT_REPEATS = 3


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a call that overran its budget."""


def _alarm(signum, frame):
    raise CaseTimeout()


def write_corpus(workload: str, seed: int, workdir: Path):
    data = corpus.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in data["files"].items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    cases = []
    for case in data["cases"]:
        argv = [str(workdir / a) if a in data["files"] else a for a in case["argv"]]
        cases.append((case["id"], argv))
    return cases


def run_call(argv):
    """One in-process CLI call: (status, exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code, status = None, "ok"
    signal.setitimer(signal.ITIMER_REAL, CASE_BUDGET_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["angk0.cli"].main(argv)
    except CaseTimeout:
        status = "timeout"
    except SystemExit as exc:
        status, code = "raised", f"SystemExit({exc.code})"
    except Exception:  # a crash is a result to report, not a reason to stop
        status, code = "raised", traceback.format_exc(limit=-3)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, code, out.getvalue(), elapsed


def case_digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{stdout}\x00exit={code}".encode("utf-8")).hexdigest()


class Recorder:
    """Per-case results across passes."""

    def __init__(self, cases, repeats: int):
        self.cases = cases
        self.repeats = repeats
        self.probes = [hostspeed.probe()]
        self.pending = []  # (record, key, seconds) since the last probe
        self.since_probe = 0.0
        self.first_s = [None] * len(cases)  # raw time of each case's first call
        self.records = [
            {"id": cid, "status": "ok", "exit": None, "stdout": None, "digest": None,
             "stable": True, "times": [], "raw_times": [], "traced_times": []}
            for cid, _ in cases
        ]

    def flush(self):
        """Read the host speed and scale every call since the last reading."""
        self.probes.append(hostspeed.probe())
        scale = hostspeed.factor(self.probes[-2], self.probes[-1])
        for rec, key, elapsed in self.pending:
            rec[key].append(elapsed * scale)
            if key == "times":
                rec["raw_times"].append(elapsed)
        self.pending, self.since_probe = [], 0.0

    def order(self, seed: int):
        """Case indices for one pass, each as often as it is to be called,
        shuffled."""
        order = []
        for idx, first in enumerate(self.first_s):
            calls = 1 if first is None else min(self.repeats, math.ceil(LIGHT_S / first))
            order += [idx] * max(1, calls)
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, deadline: float, order, tracer=None, per_case=None):
        """Make one call per entry of ``order`` to each case that has not
        failed; with a tracer installed the times go to ``traced_times`` and
        ``per_case`` collects each case's counts."""
        for idx in order:
            cid, argv = self.cases[idx]
            rec = self.records[idx]
            if rec["status"] != "ok":
                continue  # a failed case is reported once, not re-run
            if self.since_probe >= PROBE_EVERY_S:
                self.flush()
            if time.monotonic() > deadline:
                if rec["digest"] is None:
                    rec["status"] = "timeout"  # never ran: reported, not dropped
                continue
            if tracer is not None:
                before = tracer.case_counts()
            status, code, stdout, elapsed = run_call(argv)
            self.pending.append((rec, "times" if tracer is None else "traced_times", elapsed))
            self.since_probe += elapsed
            if self.first_s[idx] is None:
                self.first_s[idx] = elapsed
            if status != "ok":
                rec["status"], rec["exit"] = status, code
            else:
                digest = case_digest(code, stdout)
                if rec["digest"] is None:
                    rec["exit"], rec["stdout"], rec["digest"] = code, stdout, digest
                elif digest != rec["digest"]:
                    rec["stable"] = False
            if per_case is not None and cid not in per_case and rec["status"] == "ok":
                after = tracer.case_counts()
                per_case[cid] = {key: after[key] - before[key] for key in after}


def corpus_seconds(records, key: str) -> float:
    total = 0.0
    for rec in records:
        if rec["status"] == "timeout":
            total += CASE_BUDGET_S
        elif rec[key]:
            total += statistics.median(rec[key])
    return total


def witness_peak_mb(cases) -> float:
    """Largest tracemalloc peak of one witness_search call, in MB."""
    import tracemalloc

    cli_module = sys.modules["angk0.cli"]
    original = cli_module.witness_search
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    cli_module.witness_search = measured
    try:
        for _, argv in cases:
            if argv[0] == "witness":
                run_call(argv)
    finally:
        cli_module.witness_search = original
    return max(peaks, default=0) / 2**20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()

    cases = write_corpus(args.workload, args.seed, Path(args.workdir))
    ready = time.monotonic()
    if args.setup_probe:
        print(repr(ready))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    load_start = os.getloadavg()
    # a traced run compares traced with untraced calls, so both get one call
    # per pass
    rec = Recorder(cases, 1 if args.trace else LIGHT_REPEATS)
    measure_start = time.monotonic()
    deadline = measure_start + HARD_LIMIT_S
    report = {}

    if args.trace:
        import spans

        tracer = spans.Tracer()
        report.update(layer_runs=[], per_case_calls={})
    passes = 0
    while True:
        pass_start = time.monotonic()
        # A new order each pass: the host's speed changes within seconds, and
        # cases called side by side in every pass would share one sample of it.
        order = rec.order(passes)
        rec.run_pass(deadline, order)
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                rec.run_pass(deadline, order, tracer,
                             report["per_case_calls"] if passes == 0 else None)
            finally:
                tracer.uninstall()
            report["layer_runs"].append({
                "layers": spans.layer_totals(tracer),
                "spans": [[name, parent] + v for (name, parent), v in tracer.spans.items()],
            })
            if passes == 0:
                report["silent_spans"] = [name for name in spans.MUST_FIRE[args.workload]
                                          if tracer.calls(name) == 0]
        passes += 1
        now = time.monotonic()
        if now - measure_start + (now - pass_start) > args.seconds:
            break
    rec.flush()
    report["passes"] = passes
    if args.trace:
        report["witness_peak_mb"] = witness_peak_mb(cases)
        report["untraced_corpus_s"] = corpus_seconds(rec.records, "times")
        report["traced_corpus_s"] = corpus_seconds(rec.records, "traced_times")

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["host"] = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "case_budget_s": CASE_BUDGET_S,
        "host_probe_ms": rec.probes,
    }
    report["records"] = rec.records
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
