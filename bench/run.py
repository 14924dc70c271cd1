"""Campaign benchmark for the qtwist CLI.

    python3 bench/run.py --workload {iso,hopf,special} --seed N --seconds S --trace {0,1}

Runs the workload's campaigns (see ``workloads.py``) one at a time, each in a
fresh interpreter, in a closed loop, and never passes ``--jobs``.

* A reference pass first runs every campaign with the seed-0 inputs.  It
  warms the file cache and gives the check count that every seeded campaign
  must reproduce.
* ``--trace 0``: the seeded campaigns then run round-robin until ``--seconds``
  have passed and each has run at least twice, with ten set-up-only
  interpreters among them.  The end-to-end metrics come from these runs, in
  host-speed-scaled reference seconds (see ``metrics.PROBE_REF_S``).
* ``--trace 1``: one untraced and one traced run of each seeded campaign.  The
  per-layer metrics come from the traced run, always the same amount of work,
  so call counts repeat exactly.

Every campaign run goes through a correctness gate: exit code 0, a report
that parses, no failed check, the same ``--stable`` SHA-256 as every earlier
run of that campaign and seed, and seed 0's check count.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (interpreters started) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time

import metrics
import tracer
import workloads
from child import fraction_loop

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")

MIN_RUNS = 2          # timed runs per campaign, so the digest gate can compare
SETUP_RUNS = 10       # extra set-up-only interpreters per run, for setup_s
CALIBRATION_STEPS = 40000  # the host record's Fraction loop, about 0.1 s
RUN_LIMIT_S = 150.0   # start no campaign after this; every run must end within 180 s


def host_record() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_s": fraction_loop(CALIBRATION_STEPS),
    }


def _read_child(proc, deadline: float):
    """All of the child's standard output, and when its first line arrived."""
    fd = proc.stdout.fileno()
    buf = b""
    ready_at = None
    while True:
        wait = deadline - time.perf_counter()
        if wait <= 0 or not select.select([fd], [], [], wait)[0]:
            raise TimeoutError
        chunk = os.read(fd, 65536)
        if not chunk:
            return buf, ready_at
        if ready_at is None and b"\n" in chunk:
            ready_at = time.perf_counter()
        buf += chunk


def spawn(argv, work: str, deadline: float, trace_file: str = "", label: str = "-"):
    """Run ``child.py`` with qtwist ``argv`` (none: set-up only) in ``work``.

    Returns ``(result, setup_s, error)``: the child's JSON result line, the
    time from spawning it until it reported ``qtwist.cli`` imported, and a
    reason when it timed out or exited abnormally.
    """
    cmd = [sys.executable, CHILD, SRC, trace_file or "-", label, "--", *argv]
    env = dict(os.environ, PYTHONHASHSEED="0")
    err_path = os.path.join(work, "child.err")
    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, stderr=err,
                                env=env, bufsize=0)
        try:
            out, ready_at = _read_child(proc, deadline)
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except (TimeoutError, subprocess.TimeoutExpired):
            return None, None, "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    lines = out.decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        return None, None, "campaign process exited %d: %s" % (proc.returncode, " ".join(tail))
    return json.loads(lines[-1]), ready_at - t_spawn, ""


def run_campaign(camp, seed: int, work: str, deadline: float, trace_file: str = "") -> dict:
    """Run one campaign in a fresh interpreter; returns its run record."""
    rec = {"campaign": camp.name, "seed": seed, "traced": bool(trace_file), "rc": None,
           "setup_s": None, "main_s": None, "rss_mb": None, "probe_first_s": None,
           "probe_mean_s": None, "probes": None, "digest": None,
           "checks": None, "fail": None, "error": ""}
    for fname, data in camp.files.items():
        with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    out_name = camp.name.replace("/", "-") + ".report.json"
    out_path = os.path.join(work, out_name)
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [*camp.argv, "--format", "json", "--stable", "--out", out_name]
    result, setup_s, rec["error"] = spawn(argv, work, deadline, trace_file, camp.name)
    if rec["error"]:
        return rec
    rec.update(result, setup_s=setup_s)
    try:
        with open(out_path, "rb") as fh:
            raw = fh.read()
        summary = json.loads(raw)["summary"]
        rec["checks"] = sum(summary.values())
        rec["fail"] = summary["fail"]
        rec["digest"] = hashlib.sha256(raw).hexdigest()
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        pass  # the gate reports the unparsable report
    return rec


def gate(rec: dict, earlier_digest, ref_checks) -> str:
    """Why a campaign run counts as failed, or "" when it passes."""
    if rec["error"]:
        return rec["error"]
    if rec["fail"]:
        return "%d checks failed (exit code %s)" % (rec["fail"], rec["rc"])
    if rec["rc"] != 0:
        return "exit code %s" % rec["rc"]
    if rec["digest"] is None:
        return "report does not parse"
    if earlier_digest is not None and rec["digest"] != earlier_digest:
        return "--stable SHA-256 differs from an earlier run of this campaign and seed"
    if ref_checks is not None and rec["checks"] != ref_checks:
        return "%d checks, seed 0 has %d" % (rec["checks"], ref_checks)
    return ""


class Bench:
    """One benchmark invocation: the campaigns run so far and their gate."""

    def __init__(self, work: str, limit: float):
        self.work = work
        self.limit = limit
        self.runs: list = []
        self.failures: list = []
        self.digests: dict = {}     # (campaign, seed) -> first digest
        self.ref_checks: dict = {}  # campaign -> check count at seed 0

    def run(self, camp, seed: int, trace_file: str = "") -> dict:
        rec = run_campaign(camp, seed, self.work, self.limit + 20.0, trace_file)
        key = (camp.name, seed)
        reason = gate(rec, self.digests.get(key), self.ref_checks.get(camp.name))
        if rec["digest"] is not None:
            self.digests.setdefault(key, rec["digest"])
        if seed == 0 and rec["checks"] is not None:
            self.ref_checks.setdefault(camp.name, rec["checks"])
        rec["gate"] = reason
        if reason:
            self.failures.append(rec)
        self.runs.append(rec)
        return rec

    def setup(self) -> dict:
        """Time one interpreter set-up without a campaign."""
        result, setup_s, error = spawn([], self.work, self.limit + 20.0)
        rec = {"campaign": "(set-up)", "seed": None, "traced": False, "gate": error,
               "setup_s": setup_s, **(result or {})}
        if error:
            self.failures.append(rec)
        self.runs.append(rec)
        return rec

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.limit


def _result_line(correct, attempted, failed, values) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metrics.unit_of(k)} for k, v in values.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qtwist", "cli.py")):
        print("no qtwist sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    host = host_record()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        bench = Bench(work, started + RUN_LIMIT_S)
        ref = workloads.build(args.workload, 0)
        camps = workloads.build(args.workload, args.seed)
        for camp in ref:
            bench.run(camp, 0)

        timed: dict = {c.name: [] for c in camps}
        setups, dumps, pairs = [], [], []
        if args.trace:
            tfile = os.path.join(work, "trace.json")
            for camp in camps:
                plain = bench.run(camp, args.seed)
                traced = bench.run(camp, args.seed, trace_file=tfile)
                if traced["error"]:
                    continue
                with open(tfile, "r", encoding="utf-8") as fh:
                    dumps.append(json.load(fh))
                if not plain["gate"]:
                    pairs.append((plain, traced))
        else:
            t0 = time.perf_counter()
            i = 0
            while not bench.out_of_time() and (
                i < MIN_RUNS * len(camps) or time.perf_counter() - t0 < args.seconds
            ):
                if i < SETUP_RUNS:
                    setups.append(bench.setup())
                camp = camps[i % len(camps)]
                rec = bench.run(camp, args.seed)
                if not rec["gate"]:
                    timed[camp.name].append(rec)
                i += 1
            while len(setups) < SETUP_RUNS:
                setups.append(bench.setup())
        host["calibration_end_s"] = fraction_loop(CALIBRATION_STEPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s seed %d trace %d: %d interpreters (%d set-up only) in %.1f s"
          % (args.workload, args.seed, args.trace, len(bench.runs), len(setups),
             time.perf_counter() - started))
    print("host " + json.dumps(host, sort_keys=True))
    for camp in camps:
        recs = [r for r in bench.runs if r["campaign"] == camp.name and r["seed"] == args.seed]
        digest = bench.digests.get((camp.name, args.seed)) or "-"
        times = " ".join("%.3f" % r["main_s"] for r in recs if r["main_s"] is not None)
        times += "  normalised " + " ".join(
            "%.3f" % metrics.norm_main(r) for r in recs if r["main_s"] is not None)
        print("campaign %-22s checks %s sha256 %s runs %d main_s %s"
              % (camp.name, recs[0]["checks"] if recs else "-", digest, len(recs), times))
    for rec in bench.failures:
        print("FAILED %s seed %s%s: %s"
              % (rec["campaign"], rec["seed"], " (traced)" if rec["traced"] else "", rec["gate"]))
    attempted, failed = len(bench.runs), len(bench.failures)
    print("metric fail_ratio %.4f ratio (%d of %d runs failed)"
          % (failed / attempted, failed, attempted))

    if args.trace:
        trace = tracer.merge(dumps)
        untraced = sum(metrics.norm_main(p) for p, _ in pairs)
        overhead = sum(metrics.norm_main(t) for _, t in pairs) / untraced if untraced else 0.0
        values, missing = metrics.per_layer(trace, overhead)
        trace_path = os.path.join(WORK, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        print("trace written to %s (%d spans)" % (os.path.relpath(trace_path, ROOT), len(trace["spans"])))
        if missing:
            print("missing metrics (the traced name no longer exists): " + ", ".join(missing))
    else:
        values = metrics.end_to_end(timed, [r for r in setups if not r["gate"]])
    for name, val in values.items():
        print("metric %s %s %s" % (name, repr(val), metrics.unit_of(name)))
    print(_result_line(failed == 0, attempted, failed, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
