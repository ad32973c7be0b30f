"""Metrics of the repository benchmark, derived from one harness record.

The harness (perfbench/harness) writes every op's host milliseconds and
virtual seconds, counter totals over the timed phase, probe results and,
in traced runs, a span log. This module turns those into the metrics that
BENCHMARK.json declares: END_TO_END for untraced runs, PER_LAYER for
traced ones.
"""

import statistics

# Host times are reported at a reference machine speed: each op's host
# time is scaled by REF_NOMINAL_MS over the reference sample taken right
# after it (harness ReferenceSampleMs: fixed work, no fabric code), and
# run-level host figures by REF_NOMINAL_MS over the run's median sample.
# 4 ms is the sample's typical time on the 4-core VM the benchmark was
# defined on, so scaled figures read close to raw ones there.
REF_NOMINAL_MS = 4.0

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "host_ms_p50": ("ms", "lower"),
    "host_ms_tail": ("ms", "lower"),
    "ops_per_host_s": ("1/s", "higher"),
    "virtual_s_p50": ("s", "lower"),
    "virtual_s_tail": ("s", "lower"),
    "stored_bytes_per_raw_byte": ("ratio", "lower"),
    "op_success_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

SQL_CLASSES = ("groupby", "join", "point", "count", "insert", "count_check")

# name -> unit; every per-layer metric is reported on every workload (0
# where the workload does not exercise the layer).
PER_LAYER = {
    "sim.steps_per_op": "count",
    "sim.host_us_per_step": "us",
    "sim.switch_us": "us",
    "sim.processes_spawned_per_op": "count",
    "net.recomputes_per_op": "count",
    "net.flows_opened_per_op": "count",
    "net.recompute_us": "us",
    "net.bytes_per_op": "bytes",
    "storage.encode_us_per_kvalue": "us",
    "storage.decode_us_per_kvalue": "us",
    "storage.ros_stats_us": "us",
    "storage.ros_containers": "count",
    "storage.rows_scanned_per_op": "count",
    "tm.moveout_runs_per_op": "count",
    "tm.mergeout_runs_per_op": "count",
    "tm.mergeout_bytes_per_op": "bytes",
    "tm.wos_stall_ms_per_op": "ms",
    "sql.parse_us": "us",
    **{f"sql.execute_ms.{c}": "ms" for c in SQL_CLASSES},
    "sql.compiled_ratio": "ratio",
    "sql.merge_joins_per_op": "count",
    "sql.txns_committed_per_op": "count",
    "sql.txns_aborted_per_op": "count",
    "wm.queue_wait_s_per_op": "s",
    "wm.queued_per_op": "count",
    "wm.spills_per_op": "count",
    "connector.avro_encode_us_per_krow": "us",
    "connector.avro_decode_us_per_krow": "us",
    "connector.load_wire_bytes_per_op": "bytes",
    "connector.copy_rows_per_op": "count",
    "connector.result_wire_bytes_per_op": "bytes",
    "spark.attempts_launched_per_op": "count",
    "spark.wasted_attempt_ratio": "ratio",
    "spark.shuffle_bytes_per_op": "bytes",
    "spark.fused_map_stages_per_op": "count",
    "sim.est_ms_per_op": "ms",
    "net.est_ms_per_op": "ms",
    "storage.encode.est_ms_per_op": "ms",
    "storage.ros_stats.est_ms_per_op": "ms",
    "connector.avro.est_ms_per_op": "ms",
    "explained_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.ref_sample_ms": "ms",
    "host.unscaled_ms_p50": "ms",
}

# Per-op counter metrics: metric -> harness counter.
_PER_OP_COUNTERS = {
    "sim.steps_per_op": "sim.steps",
    "sim.processes_spawned_per_op": "sim.processes_spawned",
    "net.recomputes_per_op": "net.recomputes",
    "net.flows_opened_per_op": "net.flows_opened",
    "net.bytes_per_op": "net.bytes_requested",
    "storage.rows_scanned_per_op": "vertica.rows_scanned",
    "tm.moveout_runs_per_op": "tm.moveout_runs",
    "tm.mergeout_runs_per_op": "tm.mergeout_runs",
    "tm.mergeout_bytes_per_op": "tm.mergeout_bytes",
    "tm.wos_stall_ms_per_op": "vertica.wos_stall_ms",
    "sql.merge_joins_per_op": "vertica.merge_joins",
    "sql.txns_committed_per_op": "vertica.txns_committed",
    "sql.txns_aborted_per_op": "vertica.txns_aborted",
    "wm.queue_wait_s_per_op": "wm.queue_wait_seconds",
    "wm.queued_per_op": "wm.queued",
    "wm.spills_per_op": "wm.spills",
    "connector.load_wire_bytes_per_op": "vertica.load_wire_bytes",
    "connector.copy_rows_per_op": "vertica.copy_rows",
    "connector.result_wire_bytes_per_op": "vertica.result_wire_bytes",
    "spark.attempts_launched_per_op": "spark.attempts_launched",
    "spark.shuffle_bytes_per_op": "spark.shuffle.bytes",
    "spark.fused_map_stages_per_op": "spark.fused_map_stages",
}

# Probe results reported as they are.
_PROBES = (
    "sim.switch_us",
    "net.recompute_us",
    "storage.encode_us_per_kvalue",
    "storage.decode_us_per_kvalue",
    "storage.ros_stats_us",
    "storage.ros_containers",
    "sql.parse_us",
    "connector.avro_encode_us_per_krow",
    "connector.avro_decode_us_per_krow",
)

# Every written row is encoded once per copy (k-safety 1: the primary and
# its buddy), and D1/sql_mix values are 8 raw bytes each.
_COPIES = 2
_BYTES_PER_VALUE = 8
# RosStats calls per mergeout run that the estimate counts: the pending
# check and the run itself. The Tuple Mover also calls it per store and
# tick, so this undercounts.
_ROS_STATS_CALLS_PER_MERGEOUT = 2


def _rank(pct, n):
    """Nearest rank ceil(pct/100 * n), at least 1, computed in integers
    (percentiles are given to a tenth) so that 99.9% of 10000 is 9990."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def nearest_rank(values, pct):
    """Value at the nearest rank of `pct` among the sorted values."""
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail_percentile(n):
    """Highest TAIL_LADDER percentile with at least TAIL_MIN_BEYOND of `n`
    samples ranked beyond it, or None when n is too small for any."""
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values, min_ops):
    """(percentile, value) of the tail. The percentile follows from the
    op count every run reaches (min_ops), not from this run's count, so
    that a faster build is judged at the same percentile; a run always
    has at least min_ops samples, so at least TAIL_MIN_BEYOND lie beyond.
    Returns (None, None) when min_ops is too small for any tail."""
    pct = tail_percentile(min_ops)
    if pct is None or len(values) < min_ops:
        return None, None
    return pct, nearest_rank(values, pct)


def self_times(spans):
    """Self time of each span, in microseconds, keyed by span id: its
    duration minus the part of its interval its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_us"], span["end_us"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda s: s["start_us"]):
            lo = max(child["start_us"], cursor)
            hi = min(child["end_us"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def self_time_by_name(spans):
    """Total self time (ms) and span count per span name."""
    selfs = self_times(spans)
    summary = {}
    for span in spans:
        entry = summary.setdefault(span["name"], {"self_ms": 0.0, "count": 0})
        entry["self_ms"] += selfs[span["id"]] / 1000.0
        entry["count"] += 1
    return summary


def scaled_host_ms(op):
    """An op's host ms at the reference speed."""
    return op["host_ms"] * REF_NOMINAL_MS / op["ref_ms"]


def run_scale(record):
    """Reference speed over this run's median speed."""
    return REF_NOMINAL_MS / statistics.median(op["ref_ms"]
                                              for op in record["ops"])


def end_to_end(record):
    """END_TO_END metric values of an untraced run."""
    ops = record["ops"]
    host = [scaled_host_ms(op) for op in ops]
    virtual = [op["virtual_s"] for op in ops]
    failed = sum(1 for op in ops if not op["ok"])
    _, host_tail = tail(host, record["min_ops"])
    _, virtual_tail = tail(virtual, record["min_ops"])
    scale = run_scale(record)
    return {
        "setup_s": statistics.median(record["setup_s"]) * scale,
        "host_ms_p50": statistics.median(host),
        "host_ms_tail": host_tail,
        "ops_per_host_s": len(ops) / (record["timed_host_s"] * scale),
        "virtual_s_p50": statistics.median(virtual),
        "virtual_s_tail": virtual_tail,
        "stored_bytes_per_raw_byte":
            record["stored_bytes"] / record["raw_bytes"],
        "op_success_ratio": (len(ops) - failed) / len(ops),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record, spans):
    """PER_LAYER metric values of a traced run."""
    ops = record["ops"]
    n = len(ops)
    totals = record["totals"]
    probes = record["probes"]
    m = {name: totals.get(counter, 0.0) / n
         for name, counter in _PER_OP_COUNTERS.items()}
    for name in _PROBES:
        m[name] = probes.get(name, 0.0)
    steps = totals.get("sim.steps", 0.0)
    m["sim.host_us_per_step"] = (record["timed_host_s"] * 1e6 / steps
                                 if steps else 0.0)

    durations = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(
            (span["end_us"] - span["start_us"]) / 1000.0)
    for cls in SQL_CLASSES:
        values = durations.get(f"sql.execute.{cls}")
        m[f"sql.execute_ms.{cls}"] = statistics.median(values) if values else 0.0

    compiled = totals.get("sql.compiled_pipelines", 0.0)
    fallbacks = totals.get("sql.interpreted_fallbacks", 0.0)
    m["sql.compiled_ratio"] = (compiled / (compiled + fallbacks)
                               if compiled + fallbacks else 0.0)
    launched = totals.get("spark.attempts_launched", 0.0)
    m["spark.wasted_attempt_ratio"] = (
        totals.get("spark.attempts_failed", 0.0) / launched if launched
        else 0.0)

    # Estimates: a per-op count times its probed unit cost.
    written_values = ((totals.get("vertica.copy_rows", 0.0)
                       + record["inserted_rows"])
                      * record["written_columns"] * _COPIES
                      + totals.get("tm.mergeout_bytes", 0.0)
                      / record["data_scale"] / _BYTES_PER_VALUE)
    estimates = {
        "sim.est_ms_per_op":
            m["sim.steps_per_op"] * m["sim.switch_us"] / 1000.0,
        "net.est_ms_per_op":
            m["net.recomputes_per_op"] * m["net.recompute_us"] / 1000.0,
        "storage.encode.est_ms_per_op":
            written_values / n / 1000.0 * m["storage.encode_us_per_kvalue"]
            / 1000.0,
        "storage.ros_stats.est_ms_per_op":
            m["tm.mergeout_runs_per_op"] * _ROS_STATS_CALLS_PER_MERGEOUT
            * m["storage.ros_stats_us"] / 1000.0,
        "connector.avro.est_ms_per_op":
            m["connector.copy_rows_per_op"] / 1000.0
            * (m["connector.avro_encode_us_per_krow"]
               + m["connector.avro_decode_us_per_krow"]) / 1000.0,
    }
    m.update(estimates)
    # The estimates are per-op means, so they are compared with the mean
    # host time per op rather than with host_ms_p50.
    host_mean_ms = record["timed_host_s"] * 1000.0 / n
    m["explained_share"] = sum(estimates.values()) / host_mean_ms

    m["host.ref_sample_ms"] = statistics.median(op["ref_ms"] for op in ops)
    m["host.unscaled_ms_p50"] = statistics.median(op["host_ms"] for op in ops)

    traced = [op["host_ms"] for op in ops if op["traced"]]
    untraced = [op["host_ms"] for op in ops if not op["traced"]]
    m["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced)
        if traced and untraced else 1.0)
    return m
