#include "estimate/generating_function.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

namespace useful::estimate {

double TermPolynomial::ZeroProb() const {
  double present = 0.0;
  for (const Spike& s : spikes) present += s.prob;
  return std::max(0.0, 1.0 - present);
}

void ExpansionWorkspace::ResetFactors(std::size_t count) {
  if (factors_.size() > count) factors_.resize(count);
  for (TermPolynomial& f : factors_) f.spikes.clear();
  while (factors_.size() < count) factors_.emplace_back();
}

namespace {

// A spike's merge key: the smaller key is emitted first. The high half
// orders exponents descending — an order-preserving map of the double's
// bits, with -0.0 read as +0.0 because `>` treats the two as equal — and
// the low half is the spike's emission rank, source << 62 | position << 30
// | run, which breaks exponent ties.
using MergeKey = unsigned __int128;
constexpr int kPosShift = 30;
constexpr std::uint64_t kPosMask = (std::uint64_t{1} << 32) - 1;
constexpr MergeKey kExhausted = ~MergeKey{0};  // loses every match

MergeKey KeyOf(double exponent, std::uint64_t rank) {
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(exponent == 0.0 ? 0.0 : exponent);
  const std::uint64_t ascending =
      bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
  return MergeKey{~ascending} << 64 | rank;
}

}  // namespace

// Crossing a factor into `cur` yields one run per factor outcome: `cur`
// with every exponent shifted by the outcome's exponent (the term-absent
// outcome shifts by -0.0, which leaves every exponent bit-exact) and every
// probability scaled by its probability. `cur` is strictly descending, so
// each run is non-increasing (rounding of x + c is monotone in x), and the
// product is a k-way merge of the runs; no sort is needed.
//
// Equal exponents leave the merge in emission order — source buffer, then
// position in it, then outcome, the term-absent one first — which is the
// order a stable sort of the spike-by-spike cross product gives. That
// order is fixed because collecting like terms sums in it.
void SimilarityDistribution::AddRuns(ExpansionWorkspace& ws,
                                     const std::vector<Spike>& source,
                                     std::uint64_t source_rank,
                                     const std::vector<Spike>& factor,
                                     double zero) {
  if (source.empty()) return;
  auto add_run = [&](double shift, double scale) {
    const std::uint64_t order = source_rank << 62 | ws.runs_.size();
    ws.runs_.push_back({source.data(), source.size(), shift, scale, order});
  };
  if (zero > 0.0) add_run(-0.0, zero);
  for (const Spike& add : factor) add_run(add.exponent, add.prob);
}

// Merges the runs with a loser tree and collects like terms on the way:
// consecutive spikes whose exponents fall within `resolution` of the
// first spike of their group merge into one, and tiny probabilities are
// pruned. Group membership is anchored at the first spike's ORIGINAL
// exponent — not the probability-weighted mean accumulated so far — so a
// group never drifts: every spike merged into it lies within `resolution`
// of the exponent that opened it, and the result cannot depend on how the
// weighted mean walked through intermediate spikes. The weighted mean is
// still what the merged spike reports as its exponent. It stays within
// its members' range, so the output is strictly descending again and can
// be the next crossing's source.
//
// Groups never cross the sign boundary: a strictly positive anchor refuses
// non-positive members. Negated terms cancel positive contributions to
// within float rounding of zero (±1e-17-ish), and without the barrier
// such a cancellation spike opens a group that swallows the exact-zero
// no-match outcome — the weighted mean then lands at +epsilon and the
// entire zero-similarity mass crosses the strict `> 0` NoDoc threshold.
// With the barrier, non-positive mass can never drift strictly positive
// (nor the reverse), so T = 0 comparisons are stable.
void SimilarityDistribution::MergeRuns(ExpansionWorkspace& ws,
                                       const ExpandOptions& options,
                                       std::vector<Spike>* out) {
  const std::vector<ExpansionWorkspace::Run>& runs = ws.runs_;
  std::vector<MergeKey>& heads = ws.heads_;
  std::vector<std::uint32_t>& tree = ws.tree_;
  out->clear();
  if (runs.empty()) return;
  std::size_t total = 0;
  for (const ExpansionWorkspace::Run& run : runs) total += run.size;
  out->reserve(total);

  // Leaf r of the loser tree is run r; padding leaves stay exhausted.
  const std::size_t leaves = std::bit_ceil(runs.size());
  heads.assign(leaves, kExhausted);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    heads[r] = KeyOf(runs[r].spikes[0].exponent + runs[r].shift,
                     runs[r].order);
  }
  // tree[n] holds the loser of the match at internal node n (leaf i sits
  // below node (leaves + i) / 2), so replacing the winner replays only its
  // path to the root. The build parks node n's winner in tree[leaves + n].
  tree.resize(2 * leaves);
  auto winner_of = [&](std::size_t n) {
    return n >= leaves ? static_cast<std::uint32_t>(n - leaves)
                       : tree[leaves + n];
  };
  for (std::size_t n = leaves - 1; n >= 1; --n) {
    std::uint32_t a = winner_of(2 * n);
    std::uint32_t b = winner_of(2 * n + 1);
    if (heads[b] < heads[a]) std::swap(a, b);
    tree[n] = b;
    tree[leaves + n] = a;
  }
  std::uint32_t winner = winner_of(1);
  MergeKey best = heads[winner];

  double group_anchor = 0.0;  // original exponent of out->back()'s group
  while (best != kExhausted) {
    const ExpansionWorkspace::Run& run = runs[winner];
    const std::uint64_t rank = static_cast<std::uint64_t>(best);
    const std::size_t pos = (rank >> kPosShift) & kPosMask;
    const double exponent = run.spikes[pos].exponent + run.shift;
    const double prob = run.spikes[pos].prob * run.scale;
    // The winner's run advances, and its new head replays the matches on
    // the path to the root. The path depends only on the leaf, so every
    // load is known up front and the selects do not branch.
    MergeKey key = pos + 1 < run.size
                       ? KeyOf(run.spikes[pos + 1].exponent + run.shift,
                               rank + (std::uint64_t{1} << kPosShift))
                       : kExhausted;
    heads[winner] = key;
    for (std::size_t n = (leaves + winner) / 2; n >= 1; n /= 2) {
      const std::uint32_t other = tree[n];
      const MergeKey rival = heads[other];
      const bool swap = rival < key;
      tree[n] = swap ? winner : other;
      winner = swap ? other : winner;
      key = swap ? rival : key;
    }
    best = key;

    if (prob < options.prob_floor) continue;
    if (!out->empty() &&
        group_anchor - exponent <= options.exponent_resolution &&
        !(group_anchor > 0.0 && exponent <= 0.0)) {
      Spike& head = out->back();
      double merged = head.prob + prob;
      // Anchored-delta form of the weighted mean: exact when the merged
      // exponents are equal floats. The naive (e1*p1 + e2*p2)/(p1+p2)
      // rounds up to 1 ulp off even for e1 == e2, and that drifted
      // exponent no longer cancels exactly against an equal-magnitude
      // negated spike downstream — the knife-edge outcome then lands on
      // a different side of a strict threshold than in a query whose
      // merge pattern kept the exponent exact (equal exponents are
      // common: clamping to max_weight and shared cosine query weights
      // both produce them).
      head.exponent += (exponent - head.exponent) * (prob / merged);
      head.prob = merged;
    } else {
      out->push_back(Spike{exponent, prob});
      group_anchor = exponent;
    }
  }
}

void SimilarityDistribution::ExpandCore(
    const std::vector<TermPolynomial>& factors, const ExpandOptions& options,
    ExpansionWorkspace& ws) {
  ws.cur_.clear();
  ws.cur_.push_back(Spike{0.0, 1.0});
  for (const TermPolynomial& factor : factors) {
    ws.runs_.clear();
    AddRuns(ws, ws.cur_, 0, factor.spikes, factor.ZeroProb());
    MergeRuns(ws, options, &ws.next_);
    std::swap(ws.cur_, ws.next_);
  }
}

SimilarityDistribution SimilarityDistribution::Expand(
    const std::vector<TermPolynomial>& factors, ExpandOptions options) {
  thread_local ExpansionWorkspace ws;
  ExpandCore(factors, options, ws);
  SimilarityDistribution dist;
  dist.spikes_ = ws.cur_;
  return dist;
}

std::span<const Spike> SimilarityDistribution::ExpandWith(
    ExpansionWorkspace& ws, const ExpandOptions& options) {
  ExpandCore(ws.factors_, options, ws);
  return std::span<const Spike>(ws.cur_);
}

std::span<const Spike> SimilarityDistribution::ExpandWithMinMatch(
    ExpansionWorkspace& ws, std::size_t num_positive, std::size_t min_match,
    const ExpandOptions& options) {
  if (min_match == 0) return ExpandWith(ws, options);

  const std::size_t cap = min_match;
  auto& cur = ws.msm_cur_;
  auto& next = ws.msm_next_;
  cur.resize(cap + 1);
  next.resize(cap + 1);
  for (auto& bucket : cur) bucket.clear();
  cur[0].push_back(Spike{0.0, 1.0});

  static const std::vector<Spike> kNoSpikes;
  for (std::size_t fi = 0; fi < ws.factors_.size(); ++fi) {
    const TermPolynomial& factor = ws.factors_[fi];
    const double zero = factor.ZeroProb();
    const bool counts_match = fi < num_positive;
    for (std::size_t c = 0; c <= cap; ++c) {
      ws.runs_.clear();
      if (counts_match) {
        // Term-absent outcomes stay in bucket c; term-present outcomes
        // arrive from bucket c-1 (and, at the cap, saturate in place).
        AddRuns(ws, cur[c], 0, kNoSpikes, zero);
        if (c > 0) AddRuns(ws, cur[c - 1], 1, factor.spikes, 0.0);
        if (c == cap) AddRuns(ws, cur[cap], 2, factor.spikes, 0.0);
      } else {
        // Negated factors never advance the match count.
        AddRuns(ws, cur[c], 0, factor.spikes, zero);
      }
      MergeRuns(ws, options, &next[c]);
    }
    std::swap(cur, next);
  }
  return std::span<const Spike>(cur[cap]);
}

double SimilarityDistribution::TotalMass() const {
  double total = 0.0;
  for (const Spike& s : spikes_) total += s.prob;
  return total;
}

double SimilarityDistribution::MassAbove(std::span<const Spike> spikes,
                                         double threshold) {
  double total = 0.0;
  for (const Spike& s : spikes) {
    if (s.exponent <= threshold) break;  // descending order
    total += s.prob;
  }
  return total;
}

double SimilarityDistribution::WeightedMassAbove(std::span<const Spike> spikes,
                                                 double threshold) {
  double total = 0.0;
  for (const Spike& s : spikes) {
    if (s.exponent <= threshold) break;
    total += s.prob * s.exponent;
  }
  return total;
}

double SimilarityDistribution::EstimateNoDoc(std::span<const Spike> spikes,
                                             double threshold,
                                             std::size_t num_docs) {
  // Summation rounding can leave the mass a few ulps above 1; no
  // estimate may exceed the database size.
  return static_cast<double>(num_docs) *
         std::min(1.0, MassAbove(spikes, threshold));
}

double SimilarityDistribution::EstimateAvgSim(std::span<const Spike> spikes,
                                              double threshold) {
  double mass = MassAbove(spikes, threshold);
  if (mass <= 0.0) return 0.0;
  // Every counted spike lies strictly above the threshold, so their mean
  // does too, even where rounding the quotient lands on the threshold.
  return std::max(WeightedMassAbove(spikes, threshold) / mass,
                  std::nextafter(threshold,
                                 std::numeric_limits<double>::infinity()));
}

double SimilarityDistribution::MassAbove(double threshold) const {
  return MassAbove(std::span<const Spike>(spikes_), threshold);
}

double SimilarityDistribution::WeightedMassAbove(double threshold) const {
  return WeightedMassAbove(std::span<const Spike>(spikes_), threshold);
}

double SimilarityDistribution::EstimateNoDoc(double threshold,
                                             std::size_t num_docs) const {
  return EstimateNoDoc(std::span<const Spike>(spikes_), threshold, num_docs);
}

double SimilarityDistribution::EstimateAvgSim(double threshold) const {
  return EstimateAvgSim(std::span<const Spike>(spikes_), threshold);
}

}  // namespace useful::estimate
