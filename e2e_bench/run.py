#!/usr/bin/env python3
"""LDV end-to-end ledger: audit -> package -> replay, end to end and per layer.

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload fig7-q1-1 --seed 1 --seconds 30 --trace 0

Builds the LDV libraries, ldv_server and the ldv_e2e program from source into
.bench_build/ (first run only; later runs rebuild incrementally), runs the
workload for --seconds, checks every replay against the audited answers, and
prints the metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced iterations and
reports the per-layer metrics, writes the last traced iteration's Chrome
trace to .bench_work/<workload>/trace.json and its per-layer self-time table
next to it. Exits non-zero if the build fails, an operation fails, or an
answer differs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2e")
WORK_DIR = ".bench_work"
BUILD_TYPE = "RelWithDebInfo"
# The measuring processes together may run for --seconds plus one
# iteration each.
RUN_TIMEOUT_S = 170
# Measuring processes per run, one after the other, each for an equal share
# of --seconds. How fast fig7-q1-1's UPDATEs run relative to the
# calibration kernel differs from one process to the next by up to +-15 %
# (page placement), while staying put within a process; three processes of
# its 5-second iterations average that out. lineage-q2-4's iterations take
# 20 s, so it keeps one process.
PROCESSES = {"fig7-q1-1": 3, "lineage-q2-4": 1}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def engine_dop(nproc):
    """Morsel parallelism pinned at 2, lowered so that the client thread, the
    server connection thread and the engine's workers fit in nproc."""
    return max(1, min(2, nproc - 2))


def build(nproc):
    """Configures and builds ldv_e2e and ldv_server; returns the path of the
    server binary packages embed (stripped when `strip` is available, as a
    release package would ship it)."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "-j", str(nproc),
         "--target", "ldv_e2e", "ldv_server"],
    ]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise SystemExit("build failed: " + " ".join(cmd))
    server = os.path.join(BUILD_DIR, "ldv_server")
    stripped = server + ".stripped"
    if (not os.path.exists(stripped)
            or os.path.getmtime(stripped) < os.path.getmtime(server)):
        shutil.copyfile(server, stripped)
        if subprocess.call(["strip", "-s", stripped],
                           stderr=subprocess.DEVNULL) != 0:
            shutil.copyfile(server, stripped)
    return stripped


def run_process(cmd, raw_path, deadline):
    """Runs one ldv_e2e process to completion; returns its raw output."""
    if os.path.exists(raw_path):
        os.remove(raw_path)
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("ldv_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    if not os.path.exists(raw_path):
        raise SystemExit("ldv_e2e exited with %d and wrote no results" % code)
    with open(raw_path) as f:
        return json.load(f)


def measure(args, dop, server_binary):
    """Runs the workload's measuring processes one after the other and
    pools their iterations into one raw result."""
    workdir = os.path.join(WORK_DIR, args.workload)
    raw_path = os.path.join(WORK_DIR, args.workload + ".raw.json")
    os.makedirs(WORK_DIR, exist_ok=True)
    processes = PROCESSES[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    raw = None
    for _ in range(processes):
        cmd = [os.path.join(BUILD_DIR, "ldv_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "%g" % (args.seconds / processes),
               "--trace", str(args.trace),
               "--dop", str(dop), "--workdir", workdir,
               "--server-binary", server_binary, "--out", raw_path]
        part = run_process(cmd, raw_path, deadline)
        if raw is None:
            raw = part
        else:
            for key in ("attempted", "failed", "measured_s"):
                raw[key] += part[key]
            raw["errors"].extend(part["errors"])
            raw["iterations"].extend(part["iterations"])
            if "trace_file" in part:
                raw["trace_file"] = part["trace_file"]
        if raw["failed"]:
            break
    raw["processes"] = processes
    return raw, workdir


def write_layer_table(rows, path):
    with open(path, "w") as f:
        f.write("span\tcategory\tcount\ttotal_ms\tself_ms\n")
        for name, cat, count, total, self_us in rows:
            f.write("%s\t%s\t%d\t%.3f\t%.3f\n"
                    % (name, cat, count, total / 1e3, self_us / 1e3))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ledger.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    nproc = os.cpu_count() or 1
    dop = engine_dop(nproc)
    server_binary = build(nproc)
    raw, workdir = measure(args, dop, server_binary)
    for error in raw["errors"]:
        log("error:", error)

    settings = {
        "workload": raw["workload"], "query": raw["query"],
        "scale_factor": raw["scale_factor"], "seed": raw["seed"],
        "engine_dop": raw["dop"], "nproc": nproc, "build_type": BUILD_TYPE,
        "via_server": raw["via_server"],
        "iterations": len(raw["iterations"]),
        "traced_iterations": sum(it["traced"] for it in raw["iterations"]),
        "processes": raw["processes"],
        "clients": 1, "loop": "closed",
    }
    print("settings: " + json.dumps(settings, sort_keys=True))
    if raw["failed"]:
        print(json.dumps(ledger.result_line(raw, {}, ())))
        return 1

    figures = rows = None
    if args.trace:
        with open(raw["trace_file"]) as f:
            spans = ledger.spans_from_chrome(json.load(f))
        figures, rows = ledger.analyze_trace(spans)
    e2e, layer, notes = ledger.assemble(raw, figures)
    if args.trace:
        table_path = os.path.join(workdir, "selftime.tsv")
        write_layer_table(rows, table_path)
        print("per-layer self time of the traced iteration (%s, chrome "
              "trace %s):" % (table_path, raw["trace_file"]))
        print("  %-28s %-7s %8s %12s %12s"
              % ("span", "cat", "count", "total_ms", "self_ms"))
        for name, cat, count, total, self_us in rows[:25]:
            print("  %-28s %-7s %8d %12.3f %12.3f"
                  % (name[:28], cat, count, total / 1e3, self_us / 1e3))
        for name, note in sorted(notes.items()):
            print("%s: %s" % (name, note))
        metrics, table = layer, ledger.PER_LAYER
    else:
        metrics, table = e2e, ledger.END_TO_END
    for name, unit, _ in table:
        print("%-44s %16.6f %s" % (name, metrics[name], unit))
    print(json.dumps(ledger.result_line(raw, metrics, table)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
