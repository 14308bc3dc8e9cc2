#!/usr/bin/env python3
"""The useful broker's benchmark: one run of one workload.

    python3 perfbench/run.py --workload estimate_cold --seed 1 --seconds 20 --trace 0

Run from the root of the repository. It builds the servers and
perfbench_tool from source into .bench_build/, generates the testbed with
useful_corpusgen and the traffic from --seed, packs the representatives,
starts the servers, drives them with perfbench_tool, checks every reply,
and prints
each metric as "name value unit" and then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (tracing off in every server); with
--trace 1 they are the per-layer ones, from a traced second serving and an
in-process harness. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
TOOLS = os.path.join(CMAKE_DIR, "useful", "tools")
TOOL = os.path.join(CMAKE_DIR, "perfbench_tool")
TARGETS = ["perfbench_tool", "useful_served", "useful_frontend",
           "useful_corpusgen", "useful_repgen"]

# The workloads' traffic, rates and churn are defined in tool/traffic.cc
# and tool/main.cc.
WORKLOADS = ["estimate_cold", "route_hot", "fronted_churn"]
SETUP_REPEATS = 5
LATE_SHARE = 0.5
STAGES = ["dispatch", "parse", "cache", "resolve", "estimate", "rank",
          "policy", "serialize", "write", "fanout"]

END_TO_END_UNITS = {
    "setup_s": "s", "cpu_us_per_req": "us", "d_n": "docs", "d_s": "sim",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                           + gen, stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", "4", "--target"]
                       + TARGETS, stdout=out, stderr=out, check=True)


def tool(*args):
    """Runs perfbench_tool and returns its JSON output."""
    res = subprocess.run([TOOL] + [str(a) for a in args],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=150)
    if res.returncode != 0:
        raise RuntimeError("perfbench_tool %s failed: %s"
                           % (args[0], res.stderr.strip()))
    return json.loads(res.stdout.strip().splitlines()[-1])


def repgen(inputs, out):
    subprocess.run([os.path.join(TOOLS, "useful_repgen")] + inputs
                   + [out, "--pack"], stdout=subprocess.DEVNULL, check=True)


def read_lines(path):
    with open(path) as f:
        return [l.strip() for l in f if l.strip()]


class Topology:
    """The serving processes of one workload, started and stopped as a set."""

    def __init__(self, work, fronted, trace_rate):
        self.work = work
        self.fronted = fronted
        self.trace_rate = trace_rate
        self.procs = []
        self.logs = []
        self.servers = []    # (proc, port) of every useful_served
        self.frontend = None
        self.port = None     # where clients connect

    def _spawn(self, name, argv):
        port_file = os.path.join(self.work, name + ".port")
        if os.path.exists(port_file):
            os.remove(port_file)
        logf = open(os.path.join(self.work, name + ".log"), "w")
        self.logs.append(logf)
        proc = subprocess.Popen(argv + ["--port", "0", "--port-file", port_file,
                                        "--trace-sample-rate",
                                        str(self.trace_rate)],
                                stdout=logf, stderr=logf)
        self.procs.append(proc)
        return proc, port_file

    def _wait_port(self, proc, port_file):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.path.exists(port_file):
                text = open(port_file).read().strip()
                if text:
                    return int(text)
            if proc.poll() is not None:
                raise RuntimeError("a server exited during start-up")
            time.sleep(0.002)
        raise RuntimeError("a server never published its port")

    def start(self):
        served = os.path.join(TOOLS, "useful_served")
        if self.fronted:
            started = []
            for shard in (0, 1):
                for replica in "ab":
                    started.append(self._spawn(
                        "s%d%s" % (shard, replica),
                        [served, "--threads", "1", "--reactor-threads", "1",
                         "--num-shards", "2", "--shard-index", str(shard),
                         os.path.join(self.work, "shard%d.urpz" % shard)]))
            for proc, pf in started:
                self.servers.append((proc, self._wait_port(proc, pf)))
            ports = [p for _, p in self.servers]
            spec = "127.0.0.1:%d,127.0.0.1:%d|127.0.0.1:%d,127.0.0.1:%d" % tuple(ports)
            proc, pf = self._spawn(
                "frontend", [os.path.join(TOOLS, "useful_frontend"),
                             "--cluster", spec, "--threads", "1",
                             "--reactor-threads", "1"])
            self.frontend = (proc, self._wait_port(proc, pf))
            self.port = self.frontend[1]
        else:
            proc, pf = self._spawn(
                "served", [served, "--threads", "2", "--reactor-threads", "1",
                           os.path.join(self.work, "all.urpz")])
            self.servers.append((proc, self._wait_port(proc, pf)))
            self.port = self.servers[0][1]

    def first_ok(self, line):
        """Sends `line` until the topology answers OK (not DEGRADED)."""
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", self.port)) as s:
                    s.sendall((line + "\n").encode())
                    header = s.makefile("rb").readline().decode().strip()
                if header.startswith("OK") and "DEGRADED" not in header:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("no OK reply from the servers")

    def pids(self):
        return [p.pid for p, _ in self.servers], (
            [self.frontend[0].pid] if self.frontend else [])

    def scrape_ports(self):
        return [p for _, p in self.servers] + (
            [self.frontend[1]] if self.frontend else [])

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for logf in self.logs:
            logf.close()
        self.procs, self.logs, self.servers, self.frontend = [], [], [], None


def pack_stores(work, fronted):
    if fronted:
        for shard in (0, 1):
            repgen(read_lines(os.path.join(work, "shard%d.list" % shard)),
                   os.path.join(work, "shard%d.urpz" % shard))
    else:
        corpus = os.path.join(work, "corpus")
        groups = sorted(f for f in os.listdir(corpus) if f.startswith("group"))
        repgen([os.path.join(corpus, g) for g in groups],
               os.path.join(work, "all.urpz"))


def prepare(work, seed):
    """Input generation: not part of any timed figure.

    The testbed is useful_corpusgen's default one, as the paper has one
    testbed; --seed picks the traffic, the pools, the check's sample and the
    UPDATE target. Generated from each seed, the corpus alone moved the
    median p99 of estimate_cold by 30% between seeds (its slowest queries
    differ), which no run length can even out."""
    corpus = os.path.join(work, "corpus")
    subprocess.run([os.path.join(TOOLS, "useful_corpusgen"), corpus],
                   stdout=subprocess.DEVNULL, check=True)
    tool("prep", "--dir", work, "--seed", seed)
    target = read_lines(os.path.join(work, "target"))[0]
    repgen([os.path.join(corpus, d + ".trec") for d in ("D1", "D2", "D3")],
           os.path.join(work, "dpack.urpz"))
    repgen([os.path.join(corpus, target + ".trec")],
           os.path.join(work, "upd_full.urpz"))
    repgen([os.path.join(work, "sub", target + ".trec")],
           os.path.join(work, "upd_sub.urpz"))
    with open(os.path.join(corpus, "queries.tsv")) as f:
        return f.readline().rstrip("\n").split("\t", 1)[1]


def setup(work, fronted, trace_rate, probe):
    """Packs the served stores and starts the topology SETUP_REPEATS times;
    returns the running topology and the median set-up and pack times."""
    setups, packs = [], []
    for i in range(SETUP_REPEATS):
        topo = Topology(work, fronted, trace_rate)
        t0 = time.perf_counter()
        pack_stores(work, fronted)
        packed = time.perf_counter()
        try:
            topo.start()
            topo.first_ok(probe)
        except Exception:
            topo.stop()
            raise
        setups.append(time.perf_counter() - t0)
        packs.append(packed - t0)
        if i + 1 < SETUP_REPEATS:
            topo.stop()
    return topo, statistics.median(setups), statistics.median(packs)


def load(topo, workload, work, seed, seconds, closed_seconds, corrupt):
    server_pids, frontend_pids = topo.pids()
    args = ["load", "--workload", workload, "--seed", seed, "--dir", work,
            "--port", topo.port, "--open-seconds", seconds,
            "--closed-seconds", closed_seconds,
            "--server-pids", ",".join(map(str, server_pids)),
            "--scrape-ports", ",".join(map(str, topo.scrape_ports())),
            "--corrupt", int(corrupt)]
    if frontend_pids:
        args += ["--frontend-pids", ",".join(map(str, frontend_pids))]
    res = tool(*args)
    warn_if_late(res)
    return res


def warn_if_late(res):
    """A generator that sends late charges its own lag to the servers, so a
    run whose p99 lateness exceeds LATE_SHARE of the send interval says
    that its latency figures are not to be trusted."""
    o = res["open"]
    if o["late_p99_us"] > LATE_SHARE * o["interval_us"]:
        log("WARNING: the generator sent late: late_p99_us %.1f exceeds %d%% "
            "of the %.1f us send interval; latency figures from this open "
            "loop are not to be trusted" % (o["late_p99_us"], LATE_SHARE * 100,
                                   o["interval_us"]))


def cpu_per_req(res):
    o = res["open"]
    return (o["server_cpu_us"] + o["frontend_cpu_us"]) / max(1, o["answered"])


def end_to_end(res, chk, setup_s):
    return {
        "setup_s": setup_s,
        "cpu_us_per_req": cpu_per_req(res),
        "d_n": chk["d_n"],
        "d_s": chk["d_s"],
    }


def per_layer(plain, traced, layers, pack_s, fronted):
    answered = max(1, plain["open"]["answered"])
    # Cache counters live in the servers (the shards when fronted).
    shard_scrapes = plain["scrapes"][:-1] if fronted else plain["scrapes"]
    hits = sum(s["stats"].get("cache_hits", 0) for s in shard_scrapes)
    misses = sum(s["stats"].get("cache_misses", 0) for s in shard_scrapes)
    evictions = sum(s["stats"].get("cache_evictions", 0) for s in shard_scrapes)
    m = {
        "served.p50_us": (plain["open"]["p50_us"], "us"),
        "served.p99_us": (plain["open"]["p99_us"], "us"),
        "served.req_per_s": (plain["closed"]["req_per_s"], "1/s"),
        "ir.parse_us": (layers["ir.parse_us"], "us"),
        "represent.pack_s": (pack_s, "s"),
        "represent.open_ms": (layers["represent.open_ms"], "ms"),
        "represent.resolve_us": (layers["represent.resolve_us"], "us"),
        "estimate.subrange_us": (layers["estimate.subrange_us"], "us"),
        "broker.rank_us": (layers["broker.rank_us"], "us"),
        "service.execute_p50_us": (layers["service.execute_p50_us"], "us"),
        "service.execute_p99_us": (layers["service.execute_p99_us"], "us"),
        "service.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "service.evictions_per_req": (evictions / answered, "1/req"),
        "service.transport_us": (
            plain["open"]["p50_us"] - layers["service.execute_p50_us"], "us"),
    }
    # Stage means per client request, summed over every traced process.
    traced_reqs = max(1, traced["open"]["sent"])
    stage_sum = 0.0
    for stage in STAGES:
        secs = sum(s["stage_s"].get(stage, 0.0) for s in traced["scrapes"])
        mean_us = secs * 1e6 / traced_reqs
        stage_sum += mean_us
        m["stage.%s_us" % stage] = (mean_us, "us")
    m["stage.sum_us"] = (stage_sum, "us")
    m["e2e.mean_us"] = (traced["open"]["mean_us"], "us")
    o = plain["open"]
    m["cluster.frontend_cpu_us_per_req"] = (o["frontend_cpu_us"] / answered, "us")
    m["cluster.shard_cpu_us_per_req"] = (o["server_cpu_us"] / answered, "us")
    for verb in ("ADD", "UPDATE", "DROP"):
        m["admin.%s_ms" % verb.lower()] = (plain["admin_ms"][verb], "ms")
    m["obs.trace_cpu_us_per_req"] = (cpu_per_req(traced) - cpu_per_req(plain), "us")
    m["loadgen.late_p99_us"] = (o["late_p99_us"], "us")
    return m


def run(args):
    fronted = args.workload == "fronted_churn"
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    topo = None
    try:
        probe = "ROUTE subrange 0.1 5 " + prepare(work, args.seed)
        topo, setup_s, pack_s = setup(work, fronted, 0, probe)
        # --trace 0 spends the whole run in the open loop, whose server CPU
        # gives cpu_us_per_req. --trace 1 splits it: an untraced open and
        # closed loop, then a traced open loop.
        if args.trace:
            open_s, closed_s = args.seconds * 0.35, args.seconds * 0.15
        else:
            open_s, closed_s = args.seconds, 0
        plain = load(topo, args.workload, work, args.seed, open_s, closed_s,
                     args.inject_corruption)
        chk = tool("check", "--workload", args.workload, "--seed", args.seed,
                   "--dir", work, "--port", topo.port)
        runs = [plain, chk]
        topo.stop()
        if args.trace:
            topo = Topology(work, fronted, 1)
            topo.start()
            topo.first_ok(probe)
            traced = load(topo, args.workload, work, args.seed,
                          args.seconds * 0.5, 0, False)
            topo.stop()
            runs.append(traced)
            layers = tool("layers", "--workload", args.workload,
                          "--seed", args.seed, "--dir", work)
            metrics = per_layer(plain, traced, layers, pack_s, fronted)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(plain, chk, setup_s).items()}
    finally:
        if topo is not None:
            topo.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for e in r["errors"]:
            log("FAILED: " + e)
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt one reply before it is checked; the run "
                        "must then report correct=false")
    args = p.parse_args()
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run from the root of the repository: its sources are not here")
        return 2
    try:
        build()
    except subprocess.CalledProcessError:
        log("build failed; see .bench_build/build.log")
        return 1
    try:
        return run(args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log("benchmark failed: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
