#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "broker/metasearcher.h"
#include "estimate/estimator.h"
#include "service/protocol.h"

namespace perfbench {
namespace {

constexpr double kZipfExponent = 0.99;
constexpr std::size_t kRouteHotPool = 64;
constexpr std::size_t kFrontedPool = 512;

// Distinct pairs drawn uniformly from every (query, threshold) pair.
std::vector<Pair> SamplePool(std::size_t num_queries, std::size_t size,
                             std::mt19937_64& rng) {
  std::vector<Pair> pool;
  std::unordered_set<std::uint64_t> seen;
  const std::uint64_t all = num_queries * kNumThresholds;
  size = std::min<std::size_t>(size, all);
  while (pool.size() < size) {
    std::uint64_t k = rng() % all;
    if (!seen.insert(k).second) continue;
    pool.push_back(Pair{static_cast<std::uint32_t>(k / kNumThresholds),
                        static_cast<std::uint32_t>(k % kNumThresholds)});
  }
  return pool;
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "estimate_cold") {
    *out = Workload::kEstimateCold;
  } else if (name == "route_hot") {
    *out = Workload::kRouteHot;
  } else if (name == "fronted_churn") {
    *out = Workload::kFrontedChurn;
  } else {
    return false;
  }
  return true;
}

Traffic::Traffic(Workload workload, std::vector<std::string> queries,
                 std::uint64_t seed)
    : workload_(workload), queries_(std::move(queries)) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  if (workload_ == Workload::kEstimateCold) {
    for (std::uint32_t q = 0; q < queries_.size(); ++q) {
      for (std::uint32_t t = 0; t < kNumThresholds; ++t) {
        pool_.push_back(Pair{q, t});
      }
    }
  } else {
    std::size_t size = workload_ == Workload::kRouteHot ? kRouteHotPool
                                                        : kFrontedPool;
    pool_ = SamplePool(queries_.size(), size, rng);
    double total = 0.0;
    for (std::size_t r = 0; r < pool_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  lines_.reserve(pool_.size());
  for (const Pair& p : pool_) lines_.push_back(LineFor(p, route()));
}

double Traffic::rate() const {
  switch (workload_) {
    case Workload::kEstimateCold: return 800;
    case Workload::kRouteHot: return 3000;
    case Workload::kFrontedChurn: return 400;
  }
  return 0;
}

std::uint32_t Traffic::Next(std::mt19937_64& rng) const {
  if (cdf_.empty()) return static_cast<std::uint32_t>(rng() % pool_.size());
  double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

std::string Traffic::LineFor(const Pair& pair, bool route) const {
  char head[64];
  if (route) {
    std::snprintf(head, sizeof(head), "ROUTE subrange %.1f %zu ",
                  kThresholds[pair.threshold], kRouteTopK);
  } else {
    std::snprintf(head, sizeof(head), "ESTIMATE subrange %.1f ",
                  kThresholds[pair.threshold]);
  }
  return head + queries_[pair.query];
}

std::string CheckReply(const Expectation& expect, const EngineSizes& sizes,
                       std::string_view header,
                       const std::vector<std::string>& lines,
                       std::vector<ScoredLine>* parsed) {
  auto parsed_header = useful::service::ParseResponseHeader(header);
  if (!parsed_header.ok()) return "malformed header: " + std::string(header);
  const useful::service::ResponseHeader& h = parsed_header.value();
  if (!h.ok) return "error reply: " + h.error;
  if (h.degraded) return "degraded reply";
  if (h.payload_lines != lines.size()) return "payload count mismatch";
  if (expect.route && lines.size() > kRouteTopK) {
    return "ROUTE returned more than k lines";
  }
  if (!expect.route && lines.size() != expect.engines) {
    return "ESTIMATE returned " + std::to_string(lines.size()) +
           " lines for " + std::to_string(expect.engines) + " engines";
  }
  std::vector<ScoredLine> local;
  std::vector<ScoredLine>& out = parsed != nullptr ? *parsed : local;
  out.clear();
  std::unordered_set<std::string_view> seen;
  for (const std::string& line : lines) {
    std::string_view rest(line);
    std::size_t a = rest.find(' ');
    std::size_t b = a == std::string_view::npos ? a : rest.find(' ', a + 1);
    if (b == std::string_view::npos || rest.find(' ', b + 1) !=
                                           std::string_view::npos) {
      return "malformed line: " + line;
    }
    ScoredLine s;
    s.engine = rest.substr(0, a);
    auto nodoc = useful::service::ParseScore(rest.substr(a + 1, b - a - 1));
    auto avgsim = useful::service::ParseScore(rest.substr(b + 1));
    if (!nodoc.ok() || !avgsim.ok()) return "unparsable score: " + line;
    s.no_doc = nodoc.value();
    s.avg_sim = avgsim.value();
    auto size = sizes.find(s.engine);
    if (size == sizes.end()) return "unknown engine: " + line;
    if (!seen.insert(s.engine).second) return "engine repeated: " + line;
    // NoDoc is n times a sum of probabilities, so rounding may carry it
    // a few ulps past n.
    if (!(s.no_doc >= 0.0 &&
          s.no_doc <= static_cast<double>(size->second) * (1 + 1e-12))) {
      return "NoDoc outside [0, n]: " + line;
    }
    if (!(s.avg_sim >= 0.0 && s.avg_sim <= 1.0 + 1e-12)) {
      return "AvgSim outside [0, 1]: " + line;
    }
    // AvgSim is a weighted mean of similarities above T; a spike one ulp
    // above T can come back as exactly T after the division.
    if (s.no_doc > 0.0 && !(s.avg_sim > expect.threshold * (1 - 1e-12))) {
      return "NoDoc > 0 with AvgSim <= T: " + line;
    }
    if (expect.route && useful::estimate::RoundNoDoc(s.no_doc) < 1) {
      return "ROUTE selected an engine with rounded NoDoc < 1: " + line;
    }
    if (!out.empty()) {
      const ScoredLine& prev = out.back();
      useful::broker::EngineSelection x{std::string(prev.engine),
                                        {prev.no_doc, prev.avg_sim}};
      useful::broker::EngineSelection y{std::string(s.engine),
                                        {s.no_doc, s.avg_sim}};
      if (!useful::broker::RankedBefore(x, y)) {
        return "lines out of ranking order at: " + line;
      }
    }
    out.push_back(s);
  }
  return {};
}

}  // namespace perfbench
