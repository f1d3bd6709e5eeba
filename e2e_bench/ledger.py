"""Metric definitions and the arithmetic behind them for the LDV ledger.

ldv_e2e writes raw per-iteration figures (every sample it took, by name);
this module turns them into the reported metrics: medians over a run's
iterations, statement-latency percentiles, and the traced run's per-layer
self times. run.py is the command; test_ledger.py tests this module.
"""

import math
import statistics

WORKLOADS = ("fig7-q1-1", "lineage-q2-4")

PHASES = ("plain", "audit_inc", "audit_exc", "audit_ptu",
          "replay_inc", "replay_exc", "replay_ptu")
STEPS = ("inserts", "first_select", "other_selects", "updates")
MODES = ("inc", "exc", "ptu")

# (name, unit, better). Bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("plain_s", "s", "lower"),
    ("audit_inc_s", "s", "lower"),
    ("audit_exc_s", "s", "lower"),
    ("audit_ptu_s", "s", "lower"),
    ("replay_inc_s", "s", "lower"),
    ("replay_exc_s", "s", "lower"),
    ("replay_ptu_s", "s", "lower"),
    ("package_inc_bytes", "bytes", "lower"),
    ("package_exc_bytes", "bytes", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)

# Per-layer metrics that are medians of what ldv_e2e recorded under the
# same name.
_MEDIAN_LAYER = (
    [("step.%s.%s_s" % (p, s), "s", "lower") for p in PHASES for s in STEPS]
    + [
        ("tpch.generate_s", "s", "lower"),
        ("sql.parse_us_per_stmt", "us", "lower"),
        ("engine.plain.busy_s", "s", "lower"),
        ("engine.plain.statements", "count", "lower"),
        ("engine.audit_inc.busy_s", "s", "lower"),
        ("engine.audit_inc.statements", "count", "lower"),
        ("engine.replay_inc.busy_s", "s", "lower"),
        ("engine.replay_inc.statements", "count", "lower"),
        ("exec.fallback_ratio", "ratio", "lower"),
        ("exec.parallel.morsels", "count", "lower"),
        ("exec.mem_peak_bytes", "bytes", "lower"),
        ("txn.lock_contentions", "count", "lower"),
        ("net.transport_s", "s", "lower"),
        ("net.prov_response_bytes", "bytes", "lower"),
        ("net.codec_ms_per_prov_response", "ms", "lower"),
    ]
    + [("audit.%s.%s" % (m, k), "s", "lower")
       for m in MODES for k in ("app_s", "finalize_s")]
    + [
        ("audit.inc.statements", "count", "lower"),
        ("audit.inc.tuples_persisted", "count", "lower"),
        ("audit.inc.persisted_per_shipped", "ratio", "higher"),
        ("trace.inc.nodes", "count", "lower"),
        ("trace.inc.edges", "count", "lower"),
        ("trace.serialize_s", "s", "lower"),
        ("package.inc.tuple_bytes", "bytes", "lower"),
        ("package.inc.trace_bytes", "bytes", "lower"),
        ("package.inc.tuples", "count", "lower"),
        ("package.exc.replay_log_bytes", "bytes", "lower"),
        ("package.exc.trace_bytes", "bytes", "lower"),
        ("package.ptu.full_data_bytes", "bytes", "lower"),
        ("package.server_binary_bytes", "bytes", "lower"),
    ]
    + [("replay.%s.%s" % (m, k), "s", "lower")
       for m in MODES for k in ("init_s", "run_s")]
    + [
        ("replay.inc.restored_tuples", "count", "lower"),
        ("replay.inc.csv_parse_s", "s", "lower"),
        ("storage.save_s", "s", "lower"),
        ("storage.load_s", "s", "lower"),
        ("calibration_ms", "ms", "lower"),
    ]
    + [("wall." + name, unit, better) for name, unit, better in END_TO_END
       if unit == "s"]
)

# Statement latency as the app sees it: p50 and the tail percentile.
_STMT_LAYER = tuple(
    ("stmt.%s.%s" % (phase, name), unit, "lower")
    for phase in ("plain", "audit_inc")
    for name, unit in (("insert_p50_us", "us"), ("insert_tail_us", "us"),
                       ("update_p50_ms", "ms"), ("update_tail_ms", "ms")))

# Audit and replay phases whose uncovered share the traced run reports.
TRACED_PHASES = PHASES[1:]

# Figures only the traced run has.
_TRACE_LAYER = (
    (("exec.reenact_ms_per_update", "ms", "lower"),
     ("audit.inc.self_s", "s", "lower"))
    + tuple(("trace.uncovered.%s" % p, "ratio", "lower")
            for p in TRACED_PHASES)
    + tuple(("tracing.overhead.%s" % name, "ratio", "lower")
            for name, _, _ in END_TO_END))

PER_LAYER = tuple(_MEDIAN_LAYER) + _STMT_LAYER + _TRACE_LAYER

NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")

# Percentiles tried for the tail, lowest first.
TAIL_LADDER = (50, 90, 99, 99.9, 99.99, 99.999)


def _rank(n, p):
    # The epsilon keeps float error from pushing e.g. 0.9 * 100 past 90.
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def nearest_rank(sorted_values, p):
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th value."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def tail_percentile(values, beyond=10):
    """Highest ladder percentile with at least `beyond` samples above it.

    Returns (percentile, value, sample_count); percentile is None when even
    the median lacks `beyond` samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (None, None, n)
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= beyond:
            best = (p, nearest_rank(ordered, p), n)
    return best


def pooled(iterations, name):
    """Every sample of `name` across the given iterations."""
    out = []
    for it in iterations:
        out.extend(it["values"].get(name, ()))
    return out


def median_of(iterations, name):
    values = pooled(iterations, name)
    if not values:
        raise KeyError("no samples of %s" % name)
    return statistics.median(values)


# ---------------------------------------------------------------- traces


def spans_from_chrome(trace):
    """Span dicts (id, parent, name, start, end, tid, args) of a Chrome
    trace_event document as obs::TraceRecorder writes it."""
    spans = []
    for e in trace.get("traceEvents", ()):
        if e.get("ph") != "X":
            continue
        start = int(e["ts"])
        spans.append({
            "id": int(e.get("id", 0)),
            "parent": int(e.get("parent_id", 0)),
            "name": e.get("name", ""),
            "cat": e.get("cat", ""),
            "start": start,
            "end": start + int(e.get("dur", 0)),
            "tid": int(e.get("tid", 0)),
            "args": e.get("args", {}),
        })
    return spans


def adopt_orphans(spans, main_tid, slack=2):
    """Parents root spans of other threads under the innermost span of
    `main_tid` enclosing them (within `slack` microseconds of clock
    truncation). The client is closed-loop, so a server thread's statement
    runs inside exactly one client call."""
    main = sorted((s for s in spans if s["tid"] == main_tid),
                  key=lambda s: (s["start"], -s["end"]))
    orphans = sorted((s for s in spans
                      if s["tid"] != main_tid and s["parent"] == 0),
                     key=lambda s: s["start"])
    stack = []
    i = 0
    for o in orphans:
        while i < len(main) and main[i]["start"] <= o["start"]:
            while stack and stack[-1]["end"] <= main[i]["start"]:
                stack.pop()
            stack.append(main[i])
            i += 1
        while stack and stack[-1]["end"] + slack < o["start"]:
            stack.pop()
        for candidate in reversed(stack):
            if candidate["end"] + slack >= o["end"]:
                o["parent"] = candidate["id"]
                break


def children_of(spans):
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    return by_parent


def covered(span, children):
    """Length of [start, end) that the union of `children` covers."""
    total = 0
    cursor = span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo = max(c["start"], cursor)
        hi = min(c["end"], span["end"])
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """span id -> duration minus the part its children cover (µs)."""
    kids = children_of(spans)
    return {s["id"]: (s["end"] - s["start"]) - covered(s, kids.get(s["id"], ()))
            for s in spans}


def layer_table(spans, selfs):
    """Rows (name, category, count, total_us, self_us), most self time
    first."""
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], [s["name"], s["cat"], 0, 0, 0])
        row[2] += 1
        row[3] += s["end"] - s["start"]
        row[4] += selfs[s["id"]]
    return sorted((tuple(r) for r in rows.values()),
                  key=lambda r: (-r[4], r[0]))


def phase_spans(spans, phase):
    """The benchmark's spans around the calls that make up one audit or
    replay phase."""
    names = ("Auditor::Run",) if phase.startswith("audit") else (
        "Replayer::Open", "Replayer::Run")
    return [s for s in spans
            if s["name"] in names and s["args"].get("phase") == phase]


def uncovered_share(spans, selfs, phase):
    """Share of a phase's wall time that no child span covers."""
    parts = phase_spans(spans, phase)
    wall = sum(s["end"] - s["start"] for s in parts)
    if wall <= 0:
        raise KeyError("no spans for phase %s" % phase)
    return sum(selfs[s["id"]] for s in parts) / wall


def self_within(spans, selfs, name, ancestor_ids):
    """Total self time (µs) of spans called `name` below any of
    `ancestor_ids`."""
    by_id = {s["id"]: s for s in spans}
    total = 0
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p and p not in ancestor_ids:
            p = by_id[p]["parent"] if p in by_id else 0
        if p:
            total += selfs[s["id"]]
    return total


def main_thread(spans):
    for s in spans:
        if s["name"] == "Auditor::Run":
            return s["tid"]
    raise KeyError("trace has no Auditor::Run span")


def analyze_trace(spans):
    """Per-layer figures of one traced iteration: (metrics, table)."""
    adopt_orphans(spans, main_thread(spans))
    selfs = self_times(spans)
    out = {"trace.uncovered.%s" % p: uncovered_share(spans, selfs, p)
           for p in TRACED_PHASES}
    audit_inc = {s["id"] for s in phase_spans(spans, "audit_inc")}
    out["audit.inc.self_s"] = self_within(
        spans, selfs, "audit.statement", audit_inc) / 1e6
    return out, layer_table(spans, selfs)


# ------------------------------------------------------------- assembly


def stmt_figures(iterations):
    """stmt.* figures plus a note per tail naming its percentile and
    sample count."""
    out, notes = {}, {}
    for phase in ("plain", "audit_inc"):
        for kind, unit, scale in (("insert", "us", 1.0),
                                  ("update", "ms", 1e-3)):
            values = pooled(iterations, "stmt.%s.%s_us" % (phase, kind))
            base = "stmt.%s.%s_" % (phase, kind)
            out[base + "p50_" + unit] = nearest_rank(sorted(values), 50) * scale
            p, tail, n = tail_percentile(values)
            if p is None:  # too few samples for any tail: report the max
                p, tail = 100, max(values)
            out[base + "tail_" + unit] = tail * scale
            notes[base + "tail_" + unit] = "p%g of %d samples" % (p, n)
    return out, notes


def end_to_end(raw, iterations):
    out = {}
    for name, _, _ in END_TO_END:
        if name == "success_rate":
            attempted = max(1, raw["attempted"])
            out[name] = 1.0 - raw["failed"] / attempted
        elif name == "peak_rss_mb" and not pooled(iterations, name):
            # Every iteration ran the storage and wire probe (a short run).
            out[name] = median_of(iterations, "peak_rss_with_probe_mb")
        else:
            out[name] = median_of(iterations, name)
    return out


def assemble(raw, trace_figures=None):
    """(end_to_end, per_layer, notes) from ldv_e2e's raw output. per_layer
    is None unless `trace_figures` (analyze_trace of the traced iteration)
    is given."""
    plain = [it for it in raw["iterations"] if not it["traced"]]
    e2e = end_to_end(raw, plain)
    if trace_figures is None:
        return e2e, None, {}
    layer = {name: median_of(plain, name) for name, _, _ in _MEDIAN_LAYER}
    stmt, notes = stmt_figures(plain)
    layer.update(stmt)
    layer["exec.reenact_ms_per_update"] = (
        stmt["stmt.audit_inc.update_p50_ms"] - stmt["stmt.plain.update_p50_ms"])
    traced_iterations = [it for it in raw["iterations"] if it["traced"]]
    layer.update(trace_figures)
    # Span durations are wall time; scale like the audit phase they are in.
    layer["audit.inc.self_s"] *= median_of(traced_iterations,
                                           "factor.audit_inc")
    traced = end_to_end(raw, traced_iterations)
    for name, _, _ in END_TO_END:
        layer["tracing.overhead.%s" % name] = traced[name] / e2e[name]
    return e2e, layer, notes


def result_line(raw, metrics, table):
    """The benchmark's final JSON object."""
    units = {name: unit for name, unit, _ in table}
    return {
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _, _ in table},
    }
