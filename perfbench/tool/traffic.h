// The benchmark's workloads: which (query, threshold) pairs each one asks
// about, how often, with which protocol verb, and what a correct reply to
// each request looks like.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The paper's similarity thresholds.
inline constexpr double kThresholds[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
inline constexpr std::size_t kNumThresholds = std::size(kThresholds);

/// ROUTE's top-k cap on the routing workloads.
inline constexpr std::size_t kRouteTopK = 5;

enum class Workload { kEstimateCold, kRouteHot, kFrontedChurn };

/// Parses a workload name; returns false when it is unknown.
bool ParseWorkload(std::string_view name, Workload* out);

/// One request: a query of the log at one of the paper's thresholds.
struct Pair {
  std::uint32_t query = 0;      // index into the query log
  std::uint32_t threshold = 0;  // index into kThresholds
};

/// A workload's traffic: its pair pool, the draw over it, and the wire
/// line of each pair. Deterministic for a given seed.
///
///   estimate_cold   ESTIMATE, uniform over every (query, threshold) pair
///   route_hot       ROUTE top-5, Zipf(0.99) over 64 pairs
///   fronted_churn   ROUTE top-5, Zipf(0.99) over 512 pairs
///
/// The open-loop rates are about a third of the closed-loop throughput a
/// 4-vCPU host sustains while other tenants load it (2-10x less than when
/// it is quiet); at a third of the quiet figure, loaded periods overload
/// the servers.
class Traffic {
 public:
  Traffic(Workload workload, std::vector<std::string> queries,
          std::uint64_t seed);

  bool route() const { return workload_ != Workload::kEstimateCold; }
  /// Open-loop requests per second.
  double rate() const;
  const std::vector<std::string>& queries() const { return queries_; }
  const std::vector<Pair>& pool() const { return pool_; }

  /// Draws the next request: an index into pool().
  std::uint32_t Next(std::mt19937_64& rng) const;

  /// The request line (no newline) of pool entry `i`.
  const std::string& Line(std::uint32_t i) const { return lines_[i]; }

  /// The request line for any pair, as this workload would send it.
  std::string LineFor(const Pair& pair, bool route) const;

 private:
  Workload workload_;
  std::vector<std::string> queries_;
  std::vector<Pair> pool_;
  std::vector<std::string> lines_;
  std::vector<double> cdf_;  // Zipf CDF over pool_; empty = uniform
};

/// What a correct reply to one request must satisfy.
struct Expectation {
  bool route = false;
  double threshold = 0.0;
  /// ESTIMATE: exact number of payload lines (one per engine).
  std::size_t engines = 0;
};

/// Engine name -> number of documents, for the 0 <= NoDoc <= n check.
using EngineSizes = std::map<std::string, std::size_t, std::less<>>;

/// One parsed payload line.
struct ScoredLine {
  std::string_view engine;
  double no_doc = 0.0;
  double avg_sim = 0.0;
};

/// Checks one framed reply (header line plus payload lines) against the
/// expectation and the method's properties: an OK header, well-formed
/// lines naming known engines at most once, 0 <= NoDoc <= n, NoDoc > 0
/// implies T < AvgSim <= 1, ranking order, ROUTE's top-k cap and paper
/// rule. Returns an empty string when the reply is correct, else why not.
/// `parsed`, when non-null, receives the parsed lines.
std::string CheckReply(const Expectation& expect, const EngineSizes& sizes,
                       std::string_view header,
                       const std::vector<std::string>& lines,
                       std::vector<ScoredLine>* parsed = nullptr);

}  // namespace perfbench
