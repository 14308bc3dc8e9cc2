// The fused expansion against a spike-by-spike reference, bit for bit.
//
// The reference does what the expansion means: cross every accumulated
// spike with every factor outcome in emission order (per accumulated
// spike: the term-absent outcome, then each factor spike), stable-sort the
// product by descending exponent, and collect like terms with the
// anchored fold. The library merges sorted runs instead and must produce
// the same bits, including the order in which equal exponents are summed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "estimate/generating_function.h"
#include "util/random.h"

namespace useful::estimate {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ReferenceCross(const std::vector<Spike>& cur,
                    const std::vector<Spike>& adds, double zero,
                    std::vector<Spike>* next) {
  for (const Spike& have : cur) {
    if (zero > 0.0) next->push_back(Spike{have.exponent, have.prob * zero});
    for (const Spike& add : adds) {
      next->push_back(
          Spike{have.exponent + add.exponent, have.prob * add.prob});
    }
  }
}

std::vector<Spike> ReferenceCollect(std::vector<Spike> spikes,
                                    const ExpandOptions& options) {
  std::stable_sort(spikes.begin(), spikes.end(),
                   [](const Spike& a, const Spike& b) {
                     return a.exponent > b.exponent;
                   });
  std::vector<Spike> merged;
  double anchor = 0.0;
  for (const Spike& s : spikes) {
    if (s.prob < options.prob_floor) continue;
    if (!merged.empty() && anchor - s.exponent <= options.exponent_resolution &&
        !(anchor > 0.0 && s.exponent <= 0.0)) {
      Spike& head = merged.back();
      double total = head.prob + s.prob;
      head.exponent += (s.exponent - head.exponent) * (s.prob / total);
      head.prob = total;
    } else {
      merged.push_back(s);
      anchor = s.exponent;
    }
  }
  return merged;
}

std::vector<Spike> ReferenceExpand(const std::vector<TermPolynomial>& factors,
                                   const ExpandOptions& options) {
  std::vector<Spike> cur = {Spike{0.0, 1.0}};
  for (const TermPolynomial& f : factors) {
    std::vector<Spike> next;
    ReferenceCross(cur, f.spikes, f.ZeroProb(), &next);
    cur = ReferenceCollect(std::move(next), options);
  }
  return cur;
}

// The min-should-match DP: bucket c holds outcomes where exactly c
// positive factors matched (saturating at the cap); a bucket's sources
// are emitted in the order term-absent, arrivals from c-1, saturation.
std::vector<Spike> ReferenceExpandMinMatch(
    const std::vector<TermPolynomial>& factors, std::size_t num_positive,
    std::size_t cap, const ExpandOptions& options) {
  std::vector<std::vector<Spike>> cur(cap + 1);
  cur[0].push_back(Spike{0.0, 1.0});
  for (std::size_t fi = 0; fi < factors.size(); ++fi) {
    const TermPolynomial& f = factors[fi];
    std::vector<std::vector<Spike>> next(cap + 1);
    for (std::size_t c = 0; c <= cap; ++c) {
      if (fi < num_positive) {
        ReferenceCross(cur[c], {}, f.ZeroProb(), &next[c]);
        if (c > 0) ReferenceCross(cur[c - 1], f.spikes, 0.0, &next[c]);
        if (c == cap) ReferenceCross(cur[cap], f.spikes, 0.0, &next[c]);
      } else {
        ReferenceCross(cur[c], f.spikes, f.ZeroProb(), &next[c]);
      }
      next[c] = ReferenceCollect(std::move(next[c]), options);
    }
    cur = std::move(next);
  }
  return cur[cap];
}

// Random factors built to hit the merge's corner cases: exponents on a
// coarse grid (so sums collide exactly and ties are frequent), negated
// spikes (sums cancel to zero or straddle it), tiny probabilities (pruned
// by the floor), empty factors (term-absent only) and over-full factors
// (no term-absent outcome).
std::vector<TermPolynomial> RandomFactors(Pcg32& rng, std::size_t count,
                                          bool negated_tail) {
  std::vector<TermPolynomial> factors(count);
  for (std::size_t f = 0; f < count; ++f) {
    TermPolynomial& poly = factors[f];
    const std::uint32_t shape = rng.NextBounded(10);
    if (shape == 0) continue;  // empty factor
    const std::uint32_t spikes = 1 + rng.NextBounded(6);
    double budget = shape == 1 ? 1.6 : 1.0;  // shape 1: over-full
    for (std::uint32_t s = 0; s < spikes; ++s) {
      double exponent = rng.NextBounded(2) == 0
                            ? 0.125 * (1 + rng.NextBounded(8))
                            : rng.NextDouble() * 0.9 + 0.01;
      double p = rng.NextBounded(8) == 0 ? 1e-13 * rng.NextDouble()
                                         : budget * rng.NextDouble() * 0.45;
      budget -= p;
      const bool negate = negated_tail ? f + 1 == count
                                       : rng.NextBounded(5) == 0;
      poly.spikes.push_back(Spike{negate ? -exponent : exponent, p});
    }
  }
  return factors;
}

void ExpectSameBits(std::span<const Spike> got, const std::vector<Spike>& want,
                    int trial) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(got[i].exponent), Bits(want[i].exponent))
        << "trial " << trial << " spike " << i;
    ASSERT_EQ(Bits(got[i].prob), Bits(want[i].prob))
        << "trial " << trial << " spike " << i;
  }
}

ExpandOptions OptionsForTrial(int trial) {
  ExpandOptions options;
  if (trial % 4 == 1) options.prob_floor = 1e-4;
  if (trial % 4 == 2) options.exponent_resolution = 0.02;
  if (trial % 4 == 3) options.prob_floor = 0.0;
  return options;
}

TEST(ExpansionReferenceTest, FlatExpansionMatchesStableSortReference) {
  Pcg32 rng(20261019);
  ExpansionWorkspace ws;  // reused across trials on purpose
  for (int trial = 0; trial < 400; ++trial) {
    const ExpandOptions options = OptionsForTrial(trial);
    auto factors = RandomFactors(rng, 1 + trial % 5, trial % 3 == 0);
    const std::vector<Spike> want = ReferenceExpand(factors, options);

    ExpectSameBits(SimilarityDistribution::Expand(factors, options).spikes(),
                   want, trial);
    ws.ResetFactors(factors.size());
    for (std::size_t f = 0; f < factors.size(); ++f) {
      ws.factors()[f].spikes = factors[f].spikes;
    }
    ExpectSameBits(SimilarityDistribution::ExpandWith(ws, options), want,
                   trial);
    ExpectSameBits(SimilarityDistribution::ExpandWithMinMatch(ws, 0, 0,
                                                              options),
                   want, trial);
  }
}

TEST(ExpansionReferenceTest, MinMatchExpansionMatchesStableSortReference) {
  Pcg32 rng(77);
  ExpansionWorkspace ws;
  for (int trial = 0; trial < 300; ++trial) {
    const ExpandOptions options = OptionsForTrial(trial);
    const std::size_t count = 1 + trial % 5;
    auto factors = RandomFactors(rng, count, /*negated_tail=*/true);
    const std::size_t num_positive = trial % 2 == 0 ? count - 1 : count;
    const std::size_t min_match = 1 + trial % 3;
    ws.ResetFactors(factors.size());
    for (std::size_t f = 0; f < factors.size(); ++f) {
      ws.factors()[f].spikes = factors[f].spikes;
    }
    ExpectSameBits(SimilarityDistribution::ExpandWithMinMatch(
                       ws, num_positive, min_match, options),
                   ReferenceExpandMinMatch(factors, num_positive, min_match,
                                           options),
                   trial);
  }
}

}  // namespace
}  // namespace useful::estimate
