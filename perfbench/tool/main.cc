// perfbench_tool: the benchmark's compiled half. run.py builds the inputs
// and starts the servers; this tool drives them, checks their replies and
// times the layers in-process.
//
//   perfbench_tool prep   --dir D --seed S
//   perfbench_tool load   --workload W --seed S --dir D --port P [...]
//   perfbench_tool check  --workload W --seed S --dir D --port P
//   perfbench_tool layers --workload W --seed S --dir D
//
// Every subcommand prints one JSON object on stdout. The work directory D
// holds the generated corpus (corpus/), the served stores (all.urpz, or
// shard0.urpz and shard1.urpz for the fronted cluster), the churn files
// (dpack.urpz with D1/D2/D3; upd_full.urpz and upd_sub.urpz for the
// engine named in D/target) and, from prep, the shard lists.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "broker/metasearcher.h"
#include "corpus/io.h"
#include "estimate/generating_function.h"
#include "estimate/resolved_query.h"
#include "estimate/subrange_estimator.h"
#include "eval/metrics.h"
#include "ir/query.h"
#include "ir/search_engine.h"
#include "net.h"
#include "represent/store.h"
#include "service/protocol.h"
#include "service/service.h"
#include "text/analyzer.h"
#include "traffic.h"
#include "util/engine_hash.h"

namespace fs = std::filesystem;
using namespace useful;

namespace perfbench {
namespace {

constexpr std::size_t kNumShards = 2;
constexpr const char* kAddedEngines[] = {"D1", "D2", "D3"};

// The load generator: 3 read connections; in the closed loop, 4 requests
// outstanding on each; 1 s of open loop before anything is timed.
constexpr std::size_t kConnections = 3;
constexpr std::size_t kClosedWindow = 4;
constexpr double kWarmupSeconds = 1.0;
// Single-server workloads: churn cycles run back to back before the reads
// (they give the admin.*_ms figures there). fronted_churn: one admin operation every
// 100 ms, beside the reads.
constexpr int kAdminCycles = 16;
constexpr double kChurnIntervalMs = 100;
// The check: log queries asked at every threshold.
constexpr std::size_t kCheckQueries = 1500;
// The layer harness: traffic draws timed per layer, Service::Execute calls.
constexpr std::size_t kLayerSamples = 300;
constexpr std::size_t kLayerExecutes = 3000;

// ---- small helpers --------------------------------------------------------

[[noreturn]] void Fatal(const std::string& what) {
  throw std::runtime_error(what);
}

template <typename T>
T Check(Result<T> r, const std::string& what) {
  if (!r.ok()) Fatal(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) Fatal("bad flag " + std::string(argv[i]));
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Str(const std::string& k, const std::string& def = "") const {
    auto it = values_.find(k);
    if (it != values_.end()) return it->second;
    if (def.empty()) Fatal("missing --" + k);
    return def;
  }
  double Num(const std::string& k, double def) const {
    auto it = values_.find(k);
    return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }
  std::vector<int> Ints(const std::string& k) const {
    std::vector<int> out;
    auto it = values_.find(k);
    if (it == values_.end()) return out;
    std::stringstream ss(it->second);
    std::string part;
    while (std::getline(ss, part, ',')) {
      if (!part.empty()) out.push_back(std::atoi(part.c_str()));
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::size_t k = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// The host is a shared VM whose steal time comes in bursts of a second or
// two, so the reported figures are medians over windows: a burst moves
// one window's value, not the median. A latency window lasts 2 s, or
// longer where the rate is low, so that it holds at least 1,600 requests
// and its p99 has 16 or more beyond it.
constexpr double kLatencyWindowS = 2.0;
constexpr double kLatencyWindowRequests = 1600;
constexpr double kRateWindowS = 0.5;

/// The p-th latency percentile of each whole window of a `seconds`-long
/// open loop at `rate`, with requests placed by due time; the median of
/// those.
double WindowedPercentile(const PhaseResult& r, double seconds, double rate,
                          double p) {
  const double window_s = std::max(kLatencyWindowS, kLatencyWindowRequests / rate);
  std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s));
  std::vector<std::vector<double>> windows(n);
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    double due_s = r.arrive_s[i] - r.latency_us[i] / 1e6;
    std::size_t w = static_cast<std::size_t>(std::max(0.0, due_s) / window_s);
    if (w < n) windows[w].push_back(r.latency_us[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& v : windows) per_window.push_back(Percentile(v, p));
  return Percentile(per_window, 0.5);
}

/// Replies per second in each of the phase's equal windows of about
/// kRateWindowS (one window in a shorter phase); their median.
double WindowedRate(const PhaseResult& r) {
  if (r.elapsed_s <= 0) return 0.0;
  std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(r.elapsed_s / kRateWindowS));
  const double window_s = r.elapsed_s / static_cast<double>(n);
  std::vector<double> counts(n, 0.0);
  for (double at : r.arrive_s) {
    std::size_t w = static_cast<std::size_t>(at / window_s);
    if (w < n) counts[w] += 1.0;
  }
  return Percentile(counts, 0.5) / window_s;
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonErrors(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i ? "," : "") + JsonStr(errors[i]);
  }
  return out + "]";
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Tallies checked operations and keeps the first few failures.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void Op(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  void Merge(std::uint64_t more_attempted, std::uint64_t more_failed,
             const std::vector<std::string>& more_errors) {
    attempted += more_attempted;
    failed += more_failed;
    for (const std::string& e : more_errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

// ---- the work directory ----------------------------------------------------

struct Work {
  Workload workload = Workload::kEstimateCold;
  std::uint64_t seed = 0;
  fs::path dir;
  std::string target;  // the engine the churn cycle UPDATEs

  fs::path Corpus(const std::string& name) const { return dir / "corpus" / name; }
  std::vector<std::string> Stores() const {
    if (workload == Workload::kFrontedChurn) {
      return {(dir / "shard0.urpz").string(), (dir / "shard1.urpz").string()};
    }
    return {(dir / "all.urpz").string()};
  }
  std::string File(const std::string& name) const { return (dir / name).string(); }

  std::vector<std::string> Queries() const {
    auto log = Check(corpus::LoadQueryLog(Corpus("queries.tsv").string()),
                     "query log");
    std::vector<std::string> out;
    out.reserve(log.size());
    for (corpus::Query& q : log) out.push_back(std::move(q.text));
    return out;
  }

  /// The churn cycle, as protocol lines: ADD the D pack, UPDATE the target
  /// to its subset representative and back, DROP the added engines. A
  /// finished cycle leaves the engine set as it was.
  std::vector<std::string> ChurnCycle() const {
    std::vector<std::string> ops = {"ADD " + File("dpack.urpz"),
                                    "UPDATE " + File("upd_sub.urpz"),
                                    "UPDATE " + File("upd_full.urpz")};
    for (const char* e : kAddedEngines) ops.push_back(std::string("DROP ") + e);
    return ops;
  }
};

Work LoadWork(const Args& args) {
  Work w;
  if (!ParseWorkload(args.Str("workload", "estimate_cold"), &w.workload)) {
    Fatal("unknown workload " + args.Str("workload"));
  }
  w.seed = static_cast<std::uint64_t>(args.Num("seed", 1));
  w.dir = args.Str("dir");
  std::ifstream in(w.dir / "target");
  std::getline(in, w.target);
  return w;
}

std::vector<std::shared_ptr<const represent::StoreView>> OpenStores(
    const std::vector<std::string>& paths) {
  std::vector<std::shared_ptr<const represent::StoreView>> out;
  for (const std::string& p : paths) {
    out.push_back(Check(represent::StoreView::Open(p), "open " + p));
  }
  return out;
}

/// Engine -> largest document count over every representative the churn
/// cycle may serve for it.
EngineSizes Sizes(const Work& w) {
  std::vector<std::string> paths = w.Stores();
  paths.push_back(w.File("dpack.urpz"));
  paths.push_back(w.File("upd_sub.urpz"));
  EngineSizes sizes;
  for (const auto& view : OpenStores(paths)) {
    for (std::size_t i = 0; i < view->num_engines(); ++i) {
      std::size_t& n = sizes[std::string(view->engine(i).engine_name())];
      n = std::max(n, view->engine(i).num_docs());
    }
  }
  return sizes;
}

/// An in-process service over the served stores: the reference the
/// servers' replies are compared against. Its cache is large enough to
/// hold every estimate the benchmark asks it for.
std::unique_ptr<service::Service> ReferenceService(
    const Work& w, const text::Analyzer* analyzer) {
  service::ServiceOptions opts;
  opts.representative_paths = w.Stores();
  opts.cache.max_entries = 1u << 22;
  opts.cache.max_bytes = std::size_t{1} << 31;
  opts.trace_sample_rate = 0;
  return Check(service::Service::Create(analyzer, std::move(opts)),
               "reference service");
}

Frame Render(const service::Reply& reply) {
  Frame f;
  f.header = reply.status.ok()
                 ? service::FormatOkHeader(reply.payload.size(), reply.degraded)
                 : service::FormatErrorHeader(reply.status);
  f.lines = reply.payload;
  return f;
}

std::string CompareFrames(const Frame& got, const Frame& want,
                          const std::string& request) {
  if (got == want) return {};
  return "reply differs from the in-process service for: " + request;
}

std::string CheckAdminReply(const Frame& f, const std::string& op) {
  auto h = service::ParseResponseHeader(f.header);
  if (!h.ok() || !h.value().ok || h.value().degraded) {
    return op + " failed: " + f.header;
  }
  return {};
}

// ---- prep ------------------------------------------------------------------

int Prep(const Args& args) {
  Work w;
  w.dir = args.Str("dir");
  w.seed = static_cast<std::uint64_t>(args.Num("seed", 1));
  std::vector<std::string> groups;
  for (const auto& entry : fs::directory_iterator(w.dir / "corpus")) {
    std::string name = entry.path().stem().string();
    if (name.rfind("group", 0) == 0) groups.push_back(name);
  }
  std::sort(groups.begin(), groups.end());
  if (groups.empty()) Fatal("no groups in corpus");
  std::ofstream lists[kNumShards] = {std::ofstream(w.dir / "shard0.list"),
                                     std::ofstream(w.dir / "shard1.list")};
  for (const std::string& g : groups) {
    lists[util::ShardForEngine(g, kNumShards)]
        << w.Corpus(g + ".trec").string() << "\n";
  }
  // The UPDATE target and its subset representative's corpus: every other
  // document of the target's collection.
  w.target = groups[w.seed % groups.size()];
  std::ofstream(w.dir / "target") << w.target << "\n";
  corpus::Collection full = Check(
      corpus::LoadCollection(w.Corpus(w.target + ".trec").string()), "target");
  corpus::Collection subset(full.name());
  for (std::size_t i = 0; i < full.size(); i += 2) subset.Add(full.doc(i));
  fs::create_directories(w.dir / "sub");
  Check(corpus::SaveCollection(subset,
                               (w.dir / "sub" / (w.target + ".trec")).string()),
        "save subset");
  std::printf("{\"target\": %s, \"groups\": %zu}\n", JsonStr(w.target).c_str(),
              groups.size());
  return 0;
}

// ---- load ------------------------------------------------------------------

/// Every frame a correct server may send for each pool entry: the
/// reference service's reply in each state the servers pass through while
/// the workload's reads run.
std::vector<std::vector<Frame>> ExpectedForPool(const Work& w,
                                                const Traffic& traffic,
                                                const text::Analyzer* analyzer) {
  std::vector<std::vector<Frame>> expected(traffic.pool().size());
  auto record = [&](service::Service& ref) {
    for (std::uint32_t i = 0; i < traffic.pool().size(); ++i) {
      service::Reply reply = ref.Execute(traffic.Line(i));
      if (!reply.status.ok()) Fatal("reference: " + reply.status.ToString());
      Frame f = Render(reply);
      if (std::find(expected[i].begin(), expected[i].end(), f) ==
          expected[i].end()) {
        expected[i].push_back(std::move(f));
      }
    }
  };
  std::unique_ptr<service::Service> ref = ReferenceService(w, analyzer);
  if (w.workload != Workload::kFrontedChurn) {
    // Reads run after the admin cycles, which leave the target engine on
    // its full representative.
    Check(ref->Execute("UPDATE " + w.File("upd_full.urpz")).status,
          "reference update");
    record(*ref);
    return expected;
  }
  // Reads run beside the churn: every state of the cycle is correct.
  record(*ref);
  for (const std::string& op : w.ChurnCycle()) {
    Check(ref->Execute(op).status, "reference " + op);
    record(*ref);
  }
  // The frontend applies an ADD shard by shard, so a read may also see the
  // pack's engines on one shard before the other has them.
  for (std::size_t shard = 0; shard < kNumShards; ++shard) {
    std::unique_ptr<service::Service> part = ReferenceService(w, analyzer);
    Check(part->Execute("ADD " + w.File("dpack.urpz")).status, "reference ADD");
    for (const char* e : kAddedEngines) {
      if (util::ShardForEngine(e, kNumShards) == shard) continue;
      Check(part->Execute(std::string("DROP ") + e).status, "reference DROP");
    }
    record(*part);
  }
  return expected;
}

struct AdminTimes {
  std::map<std::string, std::vector<double>> ms;  // verb -> round trips
  Tally tally;
};

/// Runs whole churn cycles against `port`, one operation every
/// `interval_ms` (0: back to back), until `cycles` are done or `stop` is
/// set; a cycle in progress always finishes.
void RunChurn(int port, const Work& w, int cycles, double interval_ms,
              const std::atomic<bool>* stop, AdminTimes* out) {
  Client client(port);
  std::vector<std::string> ops = w.ChurnCycle();
  std::int64_t next = NowNs();
  for (int c = 0; cycles <= 0 || c < cycles; ++c) {
    if (stop != nullptr && stop->load()) break;
    for (const std::string& op : ops) {
      if (interval_ms > 0) {
        std::int64_t now = NowNs();
        if (now < next) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
        }
        next += static_cast<std::int64_t>(interval_ms * 1e6);
      }
      std::int64_t t0 = NowNs();
      Frame f = client.Call(op);
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      out->ms[op.substr(0, op.find(' '))].push_back(ms);
      out->tally.Op(CheckAdminReply(f, op));
    }
  }
}

/// STATS counters and METRICS stage-time sums of one server.
struct Scrape {
  std::map<std::string, double> stats;
  std::map<std::string, double> stage_s;
};

Scrape ScrapeServer(int port) {
  Client client(port);
  Scrape s;
  for (const std::string& l : client.Call("STATS").lines) {
    std::size_t sp = l.find(' ');
    if (sp != std::string::npos) s.stats[l.substr(0, sp)] = std::strtod(l.c_str() + sp + 1, nullptr);
  }
  const std::string prefix = "useful_stage_latency_seconds_sum{stage=\"";
  for (const std::string& l : client.Call("METRICS").lines) {
    if (l.rfind(prefix, 0) != 0) continue;
    std::size_t q = l.find('"', prefix.size());
    s.stage_s[l.substr(prefix.size(), q - prefix.size())] =
        std::strtod(l.c_str() + l.find(' ', q) + 1, nullptr);
  }
  return s;
}

std::string DeltaJson(const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : b) {
    auto it = a.find(k);
    out += (first ? "" : ", ") + JsonStr(k) + ": " + Json(v - (it == a.end() ? 0.0 : it->second));
    first = false;
  }
  return out + "}";
}

int Load(const Args& args) {
  Work w = LoadWork(args);
  const int port = static_cast<int>(args.Num("port", 0));
  const double open_s = args.Num("open-seconds", 5);
  const double closed_s = args.Num("closed-seconds", 0);
  const bool fronted = w.workload == Workload::kFrontedChurn;
  const bool corrupt = args.Num("corrupt", 0) != 0;
  const std::vector<int> server_pids = args.Ints("server-pids");
  const std::vector<int> frontend_pids = args.Ints("frontend-pids");
  const std::vector<int> scrape_ports = args.Ints("scrape-ports");

  text::Analyzer analyzer;
  Traffic traffic(w.workload, w.Queries(), w.seed);
  const EngineSizes sizes = Sizes(w);
  std::size_t engines = 0;
  for (const auto& view : OpenStores(w.Stores())) engines += view->num_engines();

  AdminTimes admin;
  if (!fronted) RunChurn(port, w, kAdminCycles, 0, nullptr, &admin);

  std::vector<std::vector<Frame>> expected;
  if (traffic.route()) expected = ExpectedForPool(w, traffic, &analyzer);

  std::mt19937_64 rng(w.seed * 7919 + 3);
  bool corrupt_pending = corrupt;
  RequestSource src;
  src.next = [&] { return traffic.Next(rng); };
  src.line = [&](std::uint32_t i) -> const std::string& { return traffic.Line(i); };
  src.check = [&](std::uint32_t i, const Frame& f) {
    const Frame* judged = &f;
    Frame bad;
    if (corrupt_pending && !f.lines.empty()) {
      // Deliberate corruption, to show that a wrong reply fails the run.
      // ROUTE loses its top engine under a matching header, which only
      // the whole-frame comparison catches; ESTIMATE's first NoDoc turns
      // negative.
      corrupt_pending = false;
      bad = f;
      if (traffic.route()) {
        bad.lines.erase(bad.lines.begin());
        bad.header = service::FormatOkHeader(bad.lines.size(), false);
      } else {
        std::string& l = bad.lines.front();
        l = l.substr(0, l.find(' ')) + " -1" + l.substr(l.rfind(' '));
      }
      judged = &bad;
    }
    Expectation e;
    e.route = traffic.route();
    e.threshold = kThresholds[traffic.pool()[i].threshold];
    e.engines = engines;
    std::string why = CheckReply(e, sizes, judged->header, judged->lines);
    if (why.empty() && !expected.empty() &&
        std::find(expected[i].begin(), expected[i].end(), *judged) ==
            expected[i].end()) {
      why = "reply differs from the in-process service";
    }
    return why.empty() ? why : why + " [" + traffic.Line(i) + "]";
  };

  LoadGenerator gen(port, kConnections);
  if (w.workload == Workload::kRouteHot) {
    // Fill the cache with every pool entry before anything is timed.
    Client warm(port);
    std::vector<std::string> lines;
    for (std::uint32_t i = 0; i < traffic.pool().size(); ++i) {
      lines.push_back(traffic.Line(i));
    }
    warm.Pipeline(lines);
  }
  Tally reads;
  auto count = [&](const PhaseResult& r) { reads.Merge(r.sent, r.failed, r.errors); };
  count(gen.OpenLoop(traffic.rate(), kWarmupSeconds, src));

  // The churn runs beside the timed phases and is joined on every path
  // out of them, exceptions included.
  std::atomic<bool> stop{false};
  AdminTimes churn;
  struct Churner {
    std::atomic<bool>* stop;
    std::thread thread;
    ~Churner() {
      *stop = true;
      if (thread.joinable()) thread.join();
    }
  } churner{&stop, {}};
  if (fronted) {
    churner.thread = std::thread([&] {
      try {
        RunChurn(port, w, 0, kChurnIntervalMs, &stop, &churn);
      } catch (const std::exception& e) {
        churn.tally.Op(std::string("churn: ") + e.what());
      }
    });
  }

  std::vector<Scrape> before;
  for (int p : scrape_ports) before.push_back(ScrapeServer(p));
  auto cpu = [](const std::vector<int>& pids) {
    double us = 0.0;
    for (int pid : pids) us += ProcessCpuUs(pid);
    return us;
  };
  double server_cpu0 = cpu(server_pids), frontend_cpu0 = cpu(frontend_pids);
  PhaseResult open = gen.OpenLoop(traffic.rate(), open_s, src);
  double server_cpu = cpu(server_pids) - server_cpu0;
  double frontend_cpu = cpu(frontend_pids) - frontend_cpu0;
  std::vector<Scrape> after;
  for (int p : scrape_ports) after.push_back(ScrapeServer(p));
  count(open);

  PhaseResult closed;
  if (closed_s > 0) {
    closed = gen.ClosedLoop(kClosedWindow, closed_s, src);
    count(closed);
  }
  stop = true;
  if (churner.thread.joinable()) churner.thread.join();
  for (auto& [verb, ms] : churn.ms) {
    admin.ms[verb].insert(admin.ms[verb].end(), ms.begin(), ms.end());
  }
  for (const Tally* t : {&admin.tally, &churn.tally}) {
    reads.Merge(t->attempted, t->failed, t->errors);
  }

  std::string admin_json = "{";
  for (const auto& [verb, ms] : admin.ms) {
    admin_json += std::string(admin_json.size() > 1 ? ", " : "") + JsonStr(verb) +
                  ": " + Json(Percentile(ms, 0.5));
  }
  admin_json += "}";
  std::string scrapes = "[";
  for (std::size_t i = 0; i < before.size(); ++i) {
    scrapes += std::string(i ? ", " : "") + "{\"stats\": " +
               DeltaJson(before[i].stats, after[i].stats) +
               ", \"stage_s\": " + DeltaJson(before[i].stage_s, after[i].stage_s) + "}";
  }
  scrapes += "]";
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"errors\": %s, "
      "\"open\": {\"sent\": %llu, \"answered\": %llu, \"p50_us\": %s, "
      "\"p99_us\": %s, \"mean_us\": %s, \"late_p99_us\": %s, "
      "\"interval_us\": %s, \"elapsed_s\": %s, \"server_cpu_us\": %s, \"frontend_cpu_us\": %s}, "
      "\"closed\": {\"answered\": %llu, \"req_per_s\": %s}, "
      "\"admin_ms\": %s, \"scrapes\": %s}\n",
      static_cast<unsigned long long>(reads.attempted),
      static_cast<unsigned long long>(reads.failed),
      JsonErrors(reads.errors).c_str(),
      static_cast<unsigned long long>(open.sent),
      static_cast<unsigned long long>(open.answered),
      Json(WindowedPercentile(open, open_s, traffic.rate(), 0.5)).c_str(),
      Json(WindowedPercentile(open, open_s, traffic.rate(), 0.99)).c_str(),
      Json(Mean(open.latency_us)).c_str(),
      Json(Percentile(open.late_us, 0.99)).c_str(),
      Json(1e6 / traffic.rate()).c_str(), Json(open.elapsed_s).c_str(),
      Json(server_cpu).c_str(), Json(frontend_cpu).c_str(),
      static_cast<unsigned long long>(closed.answered),
      Json(WindowedRate(closed)).c_str(),
      admin_json.c_str(), scrapes.c_str());
  return 0;
}

// ---- check -----------------------------------------------------------------

/// Exact usefulness from the generated corpus, via ir::SearchEngine.
class Truth {
 public:
  Truth(const Work& w, const text::Analyzer* analyzer) {
    for (const auto& entry : fs::directory_iterator(w.dir / "corpus")) {
      if (entry.path().stem().string().rfind("group", 0) != 0) continue;
      corpus::Collection c = Check(
          corpus::LoadCollection(entry.path().string()), "load collection");
      auto engine = std::make_unique<ir::SearchEngine>(c.name(), analyzer);
      Check(engine->AddCollection(c), "index");
      Check(engine->Finalize(), "finalize");
      engines_[c.name()] = std::move(engine);
    }
  }
  const ir::SearchEngine* Find(const std::string& name) const {
    auto it = engines_.find(name);
    return it == engines_.end() ? nullptr : it->second.get();
  }

 private:
  std::map<std::string, std::unique_ptr<ir::SearchEngine>> engines_;
};

int CheckRun(const Args& args) {
  Work w = LoadWork(args);
  const int port = static_cast<int>(args.Num("port", 0));
  text::Analyzer analyzer;
  std::vector<std::string> queries = w.Queries();
  Traffic traffic(w.workload, queries, w.seed);
  const EngineSizes sizes = Sizes(w);
  Tally tally;

  // The servers have finished whole churn cycles: the target engine serves
  // its full representative.
  std::unique_ptr<service::Service> ref = ReferenceService(w, &analyzer);
  Check(ref->Execute("UPDATE " + w.File("upd_full.urpz")).status, "reference update");
  const std::size_t engines = ref->num_engines();

  // A fixed sample of the log, asked at every threshold.
  std::mt19937_64 rng(w.seed * 104729 + 11);
  std::vector<std::uint32_t> sample(queries.size());
  for (std::uint32_t i = 0; i < sample.size(); ++i) sample[i] = i;
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min(kCheckQueries, sample.size()));
  std::sort(sample.begin(), sample.end());

  std::vector<std::string> lines;
  for (std::uint32_t q : sample) {
    for (std::uint32_t t = 0; t < kNumThresholds; ++t) {
      lines.push_back(traffic.LineFor(Pair{q, t}, /*route=*/false));
    }
  }
  std::vector<Frame> replies;
  {
    Client client(port);
    for (std::size_t i = 0; i < lines.size(); i += 64) {
      std::vector<std::string> batch(lines.begin() + static_cast<std::ptrdiff_t>(i),
                                     lines.begin() + static_cast<std::ptrdiff_t>(std::min(i + 64, lines.size())));
      for (Frame& f : client.Pipeline(batch)) replies.push_back(std::move(f));
    }
  }

  // (a), (b) and byte identity with the reference, per reply; then
  // monotonicity in T, the single-term guarantee and d-N/d-S per query.
  Truth truth(w, &analyzer);
  std::vector<std::shared_ptr<const represent::StoreView>> views =
      OpenStores(w.Stores());
  auto full_view = OpenStores({w.File("upd_full.urpz")}).front();
  eval::AccuracyAccumulator accuracy;
  std::size_t single_term_cases = 0, single_term_skipped = 0;
  for (std::size_t s = 0; s < sample.size(); ++s) {
    const std::string& text = queries[sample[s]];
    std::map<std::string, std::vector<estimate::UsefulnessEstimate>> est;
    bool all_ok = true;
    for (std::uint32_t t = 0; t < kNumThresholds; ++t) {
      const std::size_t r = s * kNumThresholds + t;
      Expectation e;
      e.threshold = kThresholds[t];
      e.engines = engines;
      std::vector<ScoredLine> parsed;
      std::string why = CheckReply(e, sizes, replies[r].header, replies[r].lines, &parsed);
      if (why.empty()) why = CompareFrames(replies[r], Render(ref->Execute(lines[r])), lines[r]);
      tally.Op(why.empty() ? why : why + " [" + lines[r] + "]");
      if (!why.empty()) {
        all_ok = false;
        continue;
      }
      for (const ScoredLine& p : parsed) {
        auto& v = est[std::string(p.engine)];
        v.resize(kNumThresholds);
        v[t] = {p.no_doc, p.avg_sim};
      }
    }
    if (!all_ok) continue;
    ir::Query q = ir::ParseQuery(analyzer, text);
    for (const auto& [engine, v] : est) {
      for (std::uint32_t t = 0; t + 1 < kNumThresholds; ++t) {
        if (v[t + 1].no_doc > v[t].no_doc * (1 + 1e-12)) {
          tally.Op("NoDoc rises with T for " + engine + " [" + text + "]");
        }
      }
      const ir::SearchEngine* se = truth.Find(engine);
      if (se == nullptr) {
        tally.Op("no corpus for engine " + engine);
        continue;
      }
      // The stored (quantized) maximum weight of a single-term query's term.
      std::optional<double> stored_max;
      if (q.size() == 1) {
        std::optional<represent::RepresentativeView> view =
            engine == w.target ? full_view->Find(engine) : std::nullopt;
        for (const auto& sv : views) {
          if (!view) view = sv->Find(engine);
        }
        std::optional<represent::TermStats> ts =
            view ? view->Find(q.terms[0].term) : std::nullopt;
        stored_max = ts ? ts->max_weight : 0.0;
      }
      for (std::uint32_t t = 0; t < kNumThresholds; ++t) {
        ir::Usefulness u = se->TrueUsefulness(q, kThresholds[t]);
        accuracy.Add(u, v[t]);
        if (!stored_max) continue;
        bool truly = u.no_doc >= 1;
        if ((*stored_max > kThresholds[t]) != truly) {
          ++single_term_skipped;  // quantization straddles T
          continue;
        }
        ++single_term_cases;
        bool selected = estimate::RoundNoDoc(v[t].no_doc) >= 1;
        if (selected != truly) {
          tally.Op("single-term guarantee broken for " + engine + " at T=" +
                   Json(kThresholds[t]) + " [" + text + "]");
        }
      }
    }
  }

  // (d) the fronted cluster, quiescent: full replies byte-identical to the
  // reference after every step of a churn cycle.
  std::size_t churn_steps = 0;
  if (w.workload == Workload::kFrontedChurn) {
    Client client(port);
    std::vector<std::string> reads;
    for (std::size_t i = 0; i < 24 && i < traffic.pool().size(); ++i) {
      reads.push_back(traffic.LineFor(traffic.pool()[i], true));
      reads.push_back(traffic.LineFor(traffic.pool()[i], false));
    }
    auto compare = [&] {
      std::vector<Frame> got = client.Pipeline(reads);
      for (std::size_t i = 0; i < reads.size(); ++i) {
        tally.Op(CompareFrames(got[i], Render(ref->Execute(reads[i])), reads[i]));
      }
    };
    compare();
    for (const std::string& op : w.ChurnCycle()) {
      tally.Op(CheckAdminReply(client.Call(op), op));
      Check(ref->Execute(op).status, "reference " + op);
      compare();
      ++churn_steps;
    }
  }

  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"errors\": %s, \"d_n\": %.9g, "
      "\"d_s\": %.9g, \"useful_triples\": %zu, \"single_term_cases\": %zu, "
      "\"single_term_skipped\": %zu, \"churn_steps\": %zu}\n",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), JsonErrors(tally.errors).c_str(),
      accuracy.d_n(), accuracy.d_s(), accuracy.useful_queries(), single_term_cases,
      single_term_skipped, churn_steps);
  return 0;
}

// ---- layers ----------------------------------------------------------------

int Layers(const Args& args) {
  Work w = LoadWork(args);
  text::Analyzer analyzer;
  Traffic traffic(w.workload, w.Queries(), w.seed);
  std::mt19937_64 rng(w.seed * 31337 + 5);
  std::vector<std::uint32_t> draws(kLayerSamples);
  for (std::uint32_t& d : draws) d = traffic.Next(rng);
  using Clock = std::chrono::steady_clock;

  // ir: query parsing.
  std::vector<ir::Query> parsed;
  std::size_t parse_calls = 0;
  Clock::time_point t0 = Clock::now();
  do {
    parsed.clear();
    for (std::uint32_t d : draws) {
      parsed.push_back(Check(ir::ParseAnnotatedQuery(
          analyzer, traffic.queries()[traffic.pool()[d].query]), "parse"));
    }
    parse_calls += draws.size();
  } while (Seconds(Clock::now() - t0) < 0.2);
  double parse_us = Seconds(Clock::now() - t0) * 1e6 / static_cast<double>(parse_calls);

  // represent: opening the store.
  std::vector<double> open_ms;
  for (int i = 0; i < 15; ++i) {
    t0 = Clock::now();
    auto view = represent::StoreView::Open(w.Stores().front());
    open_ms.push_back(Seconds(Clock::now() - t0) * 1e3);
    if (!view.ok()) Fatal("open store");
  }
  std::vector<std::shared_ptr<const represent::StoreView>> views = OpenStores(w.Stores());
  std::vector<const represent::RepresentativeView*> engines;
  for (const auto& v : views) {
    for (std::size_t i = 0; i < v->num_engines(); ++i) engines.push_back(&v->engine(i));
  }

  // represent: term resolution; estimate: the subrange expansion.
  std::vector<estimate::ResolvedQuery> resolved;
  resolved.reserve(draws.size() * engines.size());
  t0 = Clock::now();
  for (const ir::Query& q : parsed) {
    for (const represent::RepresentativeView* e : engines) resolved.emplace_back(*e, q);
  }
  double resolve_us = Seconds(Clock::now() - t0) * 1e6 / static_cast<double>(resolved.size());
  estimate::SubrangeEstimator subrange;
  estimate::ExpansionWorkspace ws;
  estimate::UsefulnessEstimate out[1];
  double checksum = 0.0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    double t = kThresholds[traffic.pool()[draws[i / engines.size()]].threshold];
    subrange.EstimateBatch(resolved[i], std::span<const double>(&t, 1), ws, out);
    checksum += out[0].no_doc;
  }
  double subrange_us = Seconds(Clock::now() - t0) * 1e6 / static_cast<double>(resolved.size());

  // broker: ranking every engine.
  broker::Metasearcher broker(&analyzer);
  for (const auto& v : views) Check(broker.RegisterStore(v), "register store");
  t0 = Clock::now();
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    auto ranked = broker.RankEngines(
        parsed[i], kThresholds[traffic.pool()[draws[i]].threshold], subrange);
    checksum += static_cast<double>(ranked.size());
  }
  double rank_us = Seconds(Clock::now() - t0) * 1e6 / static_cast<double>(parsed.size());

  // service: the whole command in-process, with the servers' default cache.
  service::ServiceOptions opts;
  opts.representative_paths = w.Stores();
  opts.trace_sample_rate = 0;
  auto svc = Check(service::Service::Create(&analyzer, std::move(opts)), "service");
  if (w.workload == Workload::kRouteHot) {
    for (std::uint32_t i = 0; i < traffic.pool().size(); ++i) svc->Execute(traffic.Line(i));
  }
  std::vector<double> exec_us;
  for (std::size_t i = 0; i < kLayerExecutes; ++i) {
    const std::string& line = traffic.Line(traffic.Next(rng));
    t0 = Clock::now();
    service::Reply r = svc->Execute(line);
    exec_us.push_back(Seconds(Clock::now() - t0) * 1e6);
    if (!r.status.ok()) Fatal("execute: " + r.status.ToString());
  }

  std::printf(
      "{\"ir.parse_us\": %.6g, \"represent.open_ms\": %.6g, "
      "\"represent.resolve_us\": %.6g, \"estimate.subrange_us\": %.6g, "
      "\"broker.rank_us\": %.6g, \"service.execute_p50_us\": %.6g, "
      "\"service.execute_p99_us\": %.6g, \"checksum\": %.6g}\n",
      parse_us, Percentile(open_ms, 0.5), resolve_us, subrange_us, rank_us,
      Percentile(exec_us, 0.5), Percentile(exec_us, 0.99), checksum);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool prep|load|check|layers [--flag value]...\n");
    return 2;
  }
  try {
    perfbench::Args args(argc, argv);
    std::string cmd = argv[1];
    if (cmd == "prep") return perfbench::Prep(args);
    if (cmd == "load") return perfbench::Load(args);
    if (cmd == "check") return perfbench::CheckRun(args);
    if (cmd == "layers") return perfbench::Layers(args);
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", argv[1], e.what());
    return 1;
  }
}
