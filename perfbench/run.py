#!/usr/bin/env python3
"""Run one workload of the layered benchmark and print its result.

    python3 perfbench/run.py --workload {table1,campaign} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree.  The script builds the workload
program (perfbench/bench.ml) and the symsysc CLI from source with dune,
runs the workload in one bench.exe process, and prints:

  * a detail line: every metric, sample counts, deterministic counters,
    machine facts (nproc, load average, git commit, OCaml version) and
    any correctness failure; the same record is appended to
    .perfbench/runs.jsonl, the input of perfbench/compare.py;
  * as the last line, the result: {"correct", "attempted", "failed",
    "metrics"} with the end-to-end metrics of BENCHMARK.json when
    --trace is 0 and its per-layer metrics when --trace is 1.

The exit code is 0 only when every unit matched its expected outcome
and the deterministic counters repeated.  perfbench/README.md explains
the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("table1", "campaign")
# A run must end within three minutes; bench.exe is killed after this long.
RUN_DEADLINE_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build bench.exe and the CLI; returns their paths."""
    targets = ["./perfbench/bench.exe", "./bin/symsysc_cli.exe"]
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)
    return [os.path.join(ROOT, "_build", "default", t[2:]) for t in targets]


def source_digest():
    """Content hash of the sources the measured program is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def kill_daemons(workdir):
    """Stop daemon process groups a crashed bench.exe left behind."""
    for pidfile in glob.glob(os.path.join(workdir, "*", "pid")):
        try:
            with open(pidfile) as f:
                os.killpg(int(f.read().strip()), signal.SIGKILL)
        except (OSError, ValueError):
            pass


def run_bench(bench, cli, args, workdir):
    """Run the workload; returns (detail, exit code, peak RSS in MB)."""
    cmd = [bench, "--workload", args.workload,
           "--expected", os.path.join(HERE, "expected", args.workload + ".json"),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cli", cli, "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_DEADLINE_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        # wait4 gives the peak RSS of bench.exe and every descendant it
        # reaped: the daemon, its job processes and their pool workers.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        detail = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("bench.exe exited %d without a result" % proc.returncode)
    return detail, proc.returncode, usage.ru_maxrss / 1024.0


def counter_drift(workload, digest, counters):
    """Compare the deterministic counters with the previous run of the
    same sources in this tree, then remember this run's."""
    path = os.path.join(STATE, "counters.json")
    try:
        with open(path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    prev = state.get(workload)
    drift = []
    if prev and prev.get("source") == digest:
        for name, value in counters.items():
            old = prev["counters"].get(name)
            if old is not None and old != value:
                drift.append("%s drifted: previous run %s, this run %s"
                             % (name, old, value))
    merged = dict(prev["counters"]) if prev and prev.get("source") == digest else {}
    merged.update(counters)
    state[workload] = {"source": digest, "counters": merged}
    with open(path + ".tmp", "w") as f:
        json.dump(state, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[section]]

    bench, cli = build()
    os.makedirs(STATE, exist_ok=True)
    workdir = os.path.join(STATE, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        detail, code, peak_rss_mb = run_bench(bench, cli, args, workdir)
    finally:
        kill_daemons(workdir)
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(detail["per_layer"] if args.trace else detail["end_to_end"])
    values["peak_rss_mb"] = peak_rss_mb
    missing = [n for n, _ in wanted if n not in values]
    if missing:
        fail("bench.exe did not report %s" % ", ".join(missing))
    metrics = {n: {"value": values[n], "unit": u} for n, u in wanted}

    digest = source_digest()
    detail["drift_vs_previous"] = counter_drift(
        args.workload, digest, detail["counters"])
    for d in detail["drift_vs_previous"]:
        print("perfbench: CHECK " + d, file=sys.stderr)
    correct = (code == 0 and detail["failed"] == 0 and not detail["checks"]
               and not detail["drift_vs_previous"])
    load1, load5, load15 = os.getloadavg()
    detail.update({
        "correct": correct,
        "peak_rss_mb": peak_rss_mb,
        "machine": {"nproc": os.cpu_count(), "loadavg": [load1, load5, load15],
                    "git_commit": git_commit(), "source_digest": digest,
                    "ocaml": detail["ocaml"]},
    })
    record = json.dumps(detail, sort_keys=True)
    with open(os.path.join(STATE, "runs.jsonl"), "a") as f:
        f.write(record + "\n")
    print(record)
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
