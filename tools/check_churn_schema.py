#!/usr/bin/env python3
"""Validate churn_drill bench output (JSONL, one record per workload).

Usage: check_churn_schema.py FILE [FILE...]

Each non-comment line must be a churn_drill record. Beyond shape, the
checker enforces the lifecycle invariants that hold regardless of host
speed or drill scale (the full-scale >= 1M-flow acceptance is recorded in
BENCH_churn.json; CI runs the drill small, and the same invariants must
hold there):

  * nothing leaks: every opened connection/session is eventually closed or
    expired (leaked == 0), and at quiescence no entry is left in any
    segment of any shard (stranded == 0);
  * the NAT port pool is conserved: every reaped session released its port
    (ports_leaked == 0) — an aging path that drops an entry without
    releasing its port would strand the pool;
  * the redirect mesh is lossless for flow events (transfer_drops == 0 on
    the monitor record, which carries the mesh counters);
  * the sweep is bounded: the largest per-tick group scan never exceeds
    the housekeeping budget (ceil(total_groups / rotation_ticks) at the
    deepest growth, one rotation per max(8 ticks, idle_timeout / 8)),
    modulo the log-histogram shard-merge quantization (~1.6%) — a
    full-table scan would blow this by at least 8x;
  * the monitor drill reached its live target THROUGH segmented growth
    (peak_live >= live_target with table_full == 0: the base table is
    provisioned far below the target, so meeting it without refusals
    means online resize absorbed the population).

Exits non-zero on the first malformed file, failing the CI job. Lines
whose object carries a "comment" key are baseline annotations and only
need that key.
"""
import json
import sys

NUMBER = (int, float)
COMMON_FIELDS = {
    "bench": str,
    "workload": str,
    "cores": int,
    "stranded": int,
    "sweep_groups_max": int,
    "sweep_budget": int,
    "elapsed_s": NUMBER,
}
MONITOR_FIELDS = {
    "live_target": int,
    "peak_live": int,
    "opens": int,
    "closes": int,
    "data_packets": int,
    "opened": int,
    "closed": int,
    "expired": int,
    "table_full": int,
    "leaked": int,
    "fin_retransmits": int,
    "segments_max": int,
    "conn_local": int,
    "conn_transferred": int,
    "conn_foreign": int,
    "transfer_drops": int,
    "rx_ring_drops": int,
}
NAT_FIELDS = {
    "sessions_target": int,
    "opened": int,
    "closed": int,
    "expired": int,
    "port_exhausted": int,
    "table_full": int,
    "ports_claimed_peak": int,
    "ports_leaked": int,
}
WORKLOADS = ("monitor", "nat")


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_fields(rec, fields, where):
    for field, ftype in fields.items():
        require(isinstance(rec.get(field), ftype),
                f"{where}: field {field!r} missing or not {ftype}")


def check_sweep_bounded(rec, where):
    budget = rec["sweep_budget"]
    require(budget >= 1, f"{where}: sweep_budget must be positive")
    # The merged max is reconstructed from a log-bucket upper edge; allow
    # that quantization over the true budget, nothing more.
    slack = budget + budget // 64 + 8
    require(rec["sweep_groups_max"] <= slack,
            f"{where}: sweep scanned {rec['sweep_groups_max']} groups in "
            f"one tick, budget {budget} (+quantization {slack}) — the "
            f"sweep is not bounded")


def check_monitor(rec, where):
    check_fields(rec, MONITOR_FIELDS, where)
    require(rec["live_target"] >= 1, f"{where}: live_target must be positive")
    require(rec["peak_live"] >= rec["live_target"],
            f"{where}: drill never reached its live target "
            f"(peak {rec['peak_live']} < target {rec['live_target']})")
    require(rec["table_full"] == 0,
            f"{where}: {rec['table_full']} SYNs refused — segmented growth "
            f"failed to absorb the population")
    require(rec["leaked"] == 0,
            f"{where}: {rec['leaked']} connections leaked "
            f"(opened != closed + expired)")
    require(rec["stranded"] == 0,
            f"{where}: {rec['stranded']} entries stranded in the tables at "
            f"quiescence")
    require(rec["transfer_drops"] == 0,
            f"{where}: the redirect mesh dropped "
            f"{rec['transfer_drops']} flow events")
    require(rec["opened"] == rec["closed"] + rec["expired"]
            or rec["opened"] == rec["closed"],
            f"{where}: open/close accounting broken "
            f"(opened {rec['opened']}, closed {rec['closed']}, "
            f"expired {rec['expired']})")
    require(rec["segments_max"] >= 1, f"{where}: segments_max must be >= 1")
    check_sweep_bounded(rec, where)


def check_nat(rec, where):
    check_fields(rec, NAT_FIELDS, where)
    require(rec["ports_leaked"] == 0,
            f"{where}: {rec['ports_leaked']} ports still claimed at "
            f"quiescence — expiry lost them")
    require(rec["stranded"] == 0,
            f"{where}: {rec['stranded']} session entries stranded")
    require(rec["opened"] == rec["closed"],
            f"{where}: {rec['opened']} sessions opened but only "
            f"{rec['closed']} closed")
    require(rec["expired"] > 0 or rec["opened"] == 0,
            f"{where}: sessions were opened but none were reclaimed by "
            f"idle aging")
    check_sweep_bounded(rec, where)


def check_record(rec, where):
    check_fields(rec, COMMON_FIELDS, where)
    require(rec["bench"] == "churn_drill",
            f"{where}: bench must be 'churn_drill'")
    require(rec["workload"] in WORKLOADS,
            f"{where}: workload must be one of {WORKLOADS}")
    require(rec["cores"] >= 1, f"{where}: cores must be positive")
    require(rec["elapsed_s"] > 0, f"{where}: elapsed_s must be positive")
    if rec["workload"] == "monitor":
        check_monitor(rec, where)
    else:
        check_nat(rec, where)
    return rec["workload"]


def check_file(path):
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "comment" in rec:
                continue
            seen.add(check_record(rec, f"line {lineno}"))
    require(seen == set(WORKLOADS),
            f"expected one record per workload {WORKLOADS}, got {sorted(seen)}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = 0
    for path in argv[1:]:
        try:
            check_file(path)
            print(f"{path}: OK")
        except (SchemaError, json.JSONDecodeError, OSError) as err:
            print(f"{path}: FAIL: {err}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv))
