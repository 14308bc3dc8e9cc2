#!/bin/sh
# Regenerate BENCH_serving.json, the serving-layer perf trajectory.
#
#   bench/bench_serving.sh [build-dir] [output-json]
#
# Runs the BM_Server* microbenchmarks (bench_micro) against the current
# server core and rewrites the "current" block of BENCH_serving.json.
# The "baseline" block — the thread-per-connection core that PRs 3-5
# shipped — is frozen: it is carried over verbatim from the existing
# file so every future core can be compared against the same anchor.
# If the output file does not exist yet, the fresh numbers are written
# as BOTH baseline and current (bootstrap case).
#
# The benchmarks drive a real Server over loopback sockets:
#   BM_ServerSingleConnQPS     one request per write/read round trip
#   BM_ServerPipelinedQPS/N    N requests per write, replies streamed back
#   BM_FrontendPipelinedQPS/N  same pipelined load through a 2-shard
#                              scatter-gather front-end (3 servers total)
# items_per_second is answered requests per second.
#
# It also refreshes the "representative_store" block, with the machine it
# ran on: URPZ vs URP1 bytes per engine (BM_PackStoreEncode counters),
# shard warm-up (BM_StoreWarmup), map- vs view-backed estimation
# (BM_Estimator{Batch,View}Sweep), and the polynomial product alone
# (BM_ExpansionKernel).
#
# And the "query_cache" block, with the machine it ran on: the service's
# whole request in process (BM_ServiceRoute{Cached,CachedTraceOff,
# Uncached}) and the cache section alone at 53 engines
# (BM_QueryCacheProbe/1 all hit, /0 miss + store).
#
# Finally it replays a million-query Zipfian trace with useful_loadgen —
# open-loop (timer-paced), so the latency percentiles are free of
# coordinated omission — against a live useful_served and records
# throughput plus p50/p95/p99/p999 in the "loadgen" block.
set -e

BUILD=${1:-build}
OUT=${2:-BENCH_serving.json}
RAW=$(mktemp /tmp/bench_serving.XXXXXX.json)
LG=$(mktemp /tmp/bench_loadgen.XXXXXX.json)
trap 'rm -f "$RAW" "$LG"' EXIT

"$BUILD"/bench/bench_micro \
  --benchmark_filter='BM_Server|BM_Frontend|BM_PackStoreEncode|BM_StoreWarmup|BM_EstimatorViewSweep|BM_EstimatorBatchSweep|BM_ExpansionKernel|BM_ServiceRoute|BM_QueryCacheProbe' \
  --benchmark_format=json --benchmark_out="$RAW" \
  --benchmark_out_format=json >/dev/null

# --- Million-query open-loop trace replay ------------------------------
# Self-contained fixture: a three-group synthetic corpus and two
# representatives, regenerated in a scratch dir so the script does not
# depend on ctest having run.
LGDIR=$(mktemp -d /tmp/bench_loadgen.XXXXXX)
SERVER_PID=
cleanup_loadgen() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  rm -rf "$LGDIR"
}
trap 'rm -f "$RAW" "$LG"; cleanup_loadgen' EXIT

"$BUILD"/tools/useful_corpusgen "$LGDIR" --groups 3 --queries 200 >/dev/null
"$BUILD"/tools/useful_repgen "$LGDIR/group00.trec" "$LGDIR/g0.rep" >/dev/null
"$BUILD"/tools/useful_repgen "$LGDIR/group01.trec" "$LGDIR/g1.rep" >/dev/null

PORT_FILE="$LGDIR/served.port"
"$BUILD"/tools/useful_served --port 0 --port-file "$PORT_FILE" \
  "$LGDIR/g0.rep" "$LGDIR/g1.rep" > "$LGDIR/served.out" 2>&1 &
SERVER_PID=$!
i=0
while [ ! -f "$PORT_FILE" ] && [ $i -lt 100 ]; do
  sleep 0.1; i=$((i + 1))
done
[ -f "$PORT_FILE" ] || { echo "useful_served never published a port"; exit 1; }

"$BUILD"/tools/useful_loadgen --port "$(cat "$PORT_FILE")" \
  --connections 8 --qps 25000 --queries 1000000 \
  --distinct 4096 --zipf 0.99 --seed 42 \
  --queries-file "$LGDIR/queries.tsv" \
  --json "$LG" --tag bench_serving

printf 'QUIT\n' | "$BUILD"/tools/useful_client --port "$(cat "$PORT_FILE")" \
  > /dev/null 2>&1 || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

python3 - "$RAW" "$OUT" "$LG" <<'EOF'
import json, sys

raw_path, out_path, loadgen_path = sys.argv[1], sys.argv[2], sys.argv[3]
raw = json.load(open(raw_path))

iterations = [b for b in raw["benchmarks"] if b.get("run_type") == "iteration"]
serving = [b for b in iterations
           if b["name"].startswith(("BM_Server", "BM_Frontend"))]
cache = [b for b in iterations
         if b["name"].startswith(("BM_ServiceRoute", "BM_QueryCacheProbe"))]
store = [b for b in iterations if b not in serving and b not in cache]

rows = {
    b["name"]: {
        "items_per_second": round(b["items_per_second"]),
        "real_time_ns": round(b["real_time"]),
        "cpu_time_ns": round(b["cpu_time"]),
    }
    for b in serving
}

# Time unit varies across the store rows (ms/us/ns); normalize to ns.
_ns = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
machine = {
    "num_cpus": raw["context"]["num_cpus"],
    "mhz_per_cpu": raw["context"]["mhz_per_cpu"],
}
store_rows = {}
for b in store:
    row = {"real_time_ns": round(b["real_time"] * _ns[b["time_unit"]]),
           "cpu_time_ns": round(b["cpu_time"] * _ns[b["time_unit"]])}
    for k in ("urpz_bytes_per_engine", "urp1_quantized_bytes_per_engine"):
        if k in b:
            row[k] = round(b[k])
    if "items_per_second" in b:
        row["items_per_second"] = round(b["items_per_second"])
    store_rows[b["name"]] = row

current = {
    "core": "epoll-reactor",
    "date": raw["context"]["date"][:10],
    "rows": rows,
}

try:
    doc = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    doc = {
        "comment": "Serving-layer perf trajectory; regenerate the "
                   "'current' block with bench/bench_serving.sh. The "
                   "'baseline' block is the frozen thread-per-connection "
                   "core (pre-reactor) and must not be regenerated.",
        "machine": machine,
        "baseline": dict(current, core="bootstrap"),
    }

doc["current"] = current
doc["representative_store"] = {
    "comment": "URPZ packed store vs quantized URP1, estimation sweeps and "
               "the expansion product; regenerated alongside 'current'.",
    "date": raw["context"]["date"][:10],
    "machine": machine,
    "rows": store_rows,
}
doc["query_cache"] = {
    "comment": "One service request in process (BM_ServiceRoute*) and the "
               "query-cache section alone at 53 engines "
               "(BM_QueryCacheProbe/1 all hit, /0 miss + store); "
               "regenerated alongside 'current'.",
    "date": raw["context"]["date"][:10],
    "machine": machine,
    "rows": {
        b["name"]: {
            "real_time_ns": round(b["real_time"] * _ns[b["time_unit"]]),
            "cpu_time_ns": round(b["cpu_time"] * _ns[b["time_unit"]]),
        }
        for b in cache
    },
}
if ("BM_PackStoreEncode" in store_rows
        and "urpz_bytes_per_engine" in store_rows["BM_PackStoreEncode"]):
    enc = store_rows["BM_PackStoreEncode"]
    doc["representative_store"]["urpz_size_ratio_vs_urp1"] = round(
        enc["urp1_quantized_bytes_per_engine"]
        / enc["urpz_bytes_per_engine"], 2)
doc["loadgen"] = dict(
    json.load(open(loadgen_path)),
    comment="Open-loop (coordinated-omission-free) million-query Zipfian "
            "trace replayed by tools/useful_loadgen against a live "
            "useful_served; regenerated alongside 'current'.",
    date=raw["context"]["date"][:10],
)
doc["speedup_vs_baseline"] = {
    name: round(row["items_per_second"]
                / doc["baseline"]["rows"][name]["items_per_second"], 2)
    for name, row in rows.items()
    if name in doc["baseline"].get("rows", {})
}

json.dump(doc, open(out_path, "w"), indent=2)
print(open(out_path).read())
EOF
