// Unit tests for src/common: RNG, statistics, tables, byte formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "apps/kernels/csr.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace merch {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(n), n);
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(11);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(19);
  const auto perm = rng.Permutation(257);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto sample = rng.SampleWithoutReplacement(100, 40);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 40u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleWithoutReplacementLargeDomain) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(std::size_t(1) << 22, 64);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0;
  for (std::size_t k = 0; k < 100; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsHottest) {
  ZipfSampler zipf(50, 0.8);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(49));
}

TEST(Zipf, SampleFrequencyMatchesPmf) {
  ZipfSampler zipf(10, 1.2);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.Pmf(k), 0.02)
        << "rank " << k;
  }
}

/// The sampler as it was before the guide table: the same CDF, searched
/// by bisection for the smallest rank k with cdf[k] >= u (n - 1 if none).
/// The production sampler must return the same rank for every u.
class BisectionZipf {
 public:
  BisectionZipf(std::size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  std::size_t Rank(double u) const {
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
};

TEST(Zipf, GuideTableMatchesBisectionForEveryU) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{10},
                              std::size_t{50}, std::size_t{65536}}) {
    // Exponent 0 is uniform: its CDF entries land exactly on the guide
    // table's cutpoints j / n.
    for (const double exponent : {0.0, 0.5, 0.85, 0.9, 1.2}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " exponent=" + std::to_string(exponent));
      const ZipfSampler zipf(n, exponent);
      const BisectionZipf ref(n, exponent);
      for (std::size_t k = 0; k < n; ++k) {
        const double pmf = k == 0 ? ref.cdf()[0]
                                  : ref.cdf()[k] - ref.cdf()[k - 1];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(zipf.Pmf(k)),
                  std::bit_cast<std::uint64_t>(pmf))
            << "rank " << k;
      }
      std::size_t mismatches = 0;
      auto check = [&](double u) {
        if (zipf.Rank(u) != ref.Rank(u)) ++mismatches;
      };
      check(0.0);
      check(std::nextafter(1.0, 0.0));
      for (const double odd : {-1.0, 1.0, 2.0, 1e300,
                               std::numeric_limits<double>::quiet_NaN()}) {
        check(odd);
      }
      for (const double c : ref.cdf()) {
        check(c);
        check(std::nextafter(c, 0.0));
        check(std::nextafter(c, 2.0));
      }
      // Bucket boundaries of the guide table, where u * n rounds.
      for (std::size_t j = 0; j <= n; ++j) {
        const double b = static_cast<double>(j) / static_cast<double>(n);
        check(std::nextafter(b, 0.0));
        if (b < 1.0) check(b);
        if (b < 1.0) check(std::nextafter(b, 2.0));
      }
      Rng rng(1000 + n);
      for (int i = 0; i < 1000000; ++i) check(rng.NextDouble());
      EXPECT_EQ(mismatches, 0u);

      // Sample() is Rank() of one NextDouble() draw.
      Rng a(7), b(7);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(zipf.Sample(a), ref.Rank(b.NextDouble()));
      }
    }
  }
}

/// FNV-1a over the CSR arrays, doubles by their bits.
std::uint64_t CsrDigest(const apps::CsrMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(m.rows);
  mix(m.cols);
  for (const std::uint64_t p : m.row_ptr) mix(p);
  for (const std::uint32_t c : m.col_idx) mix(c);
  for (const double v : m.values) mix(std::bit_cast<std::uint64_t>(v));
  return h;
}

/// Generated matrices must keep every bit. The digests were recorded with
/// the bisection sampler and std::sort on every row. The first matrix is
/// the BFS builder's first base graph; the others take the row sort
/// through one and three radix passes.
TEST(Zipf, KronMatrixDigestUnchanged) {
  struct Case {
    std::uint32_t rows;
    double avg_degree;
    std::uint64_t seed;
    std::uint64_t nnz;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1u << 16, 30.0, 4321, 1937630, 3964711258015597852ull},
      {200, 8.0, 7, 1588, 13933790810589499376ull},
      {70000, 8.0, 7, 560099, 16191896363351295883ull},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const apps::CsrMatrix m =
        apps::GenerateKronMatrix(c.rows, c.avg_degree, 0.9, rng);
    EXPECT_EQ(m.nnz(), c.nnz) << c.rows << " rows";
    EXPECT_EQ(CsrDigest(m), c.digest) << c.rows << " rows";
  }
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), std::sqrt(2.0));
}

TEST(Stats, EmptyInputsSafe) {
  const std::vector<double> empty;
  EXPECT_EQ(Mean(empty), 0.0);
  EXPECT_EQ(Variance(empty), 0.0);
  EXPECT_EQ(CoefficientOfVariation(empty), 0.0);
}

TEST(Stats, CoefficientOfVariation) {
  const std::vector<double> same = {4, 4, 4, 4};
  EXPECT_DOUBLE_EQ(CoefficientOfVariation(same), 0.0);
  const std::vector<double> spread = {2, 4, 6};
  EXPECT_NEAR(CoefficientOfVariation(spread), StdDev(spread) / 4.0, 1e-12);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
}

TEST(Stats, BoxStatsQuartiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const BoxStats b = ComputeBoxStats(xs);
  EXPECT_NEAR(b.median, 50.5, 0.01);
  EXPECT_NEAR(b.q1, 25.75, 0.01);
  EXPECT_NEAR(b.q3, 75.25, 0.01);
  EXPECT_EQ(b.outliers, 0u);
}

TEST(Stats, BoxStatsDetectsOutliers) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 1000};
  const BoxStats b = ComputeBoxStats(xs);
  EXPECT_EQ(b.outliers, 1u);
  EXPECT_LT(b.max, 1000.0);
}

TEST(Stats, CosineSimilarity) {
  const std::vector<double> a = {1, 0}, b = {0, 1}, c = {2, 0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-12);
  const std::vector<double> zero = {0, 0};
  EXPECT_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(Stats, RSquaredPerfectAndMeanBaseline) {
  const std::vector<double> truth = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RSquared(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(RSquared(truth, mean_pred), 0.0, 1e-12);
}

TEST(Stats, MapeAccuracy) {
  const std::vector<double> truth = {100, 200};
  const std::vector<double> pred = {90, 220};  // 10% errors
  EXPECT_NEAR(MapeAccuracy(truth, pred), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(MapeAccuracy(truth, truth), 1.0);
}

TEST(Stats, MeanSquaredError) {
  const std::vector<double> truth = {0, 0}, pred = {3, 4};
  EXPECT_DOUBLE_EQ(MeanSquaredError(truth, pred), 12.5);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Pct(0.171), "17.1%");
}

TEST(Types, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536ull * GiB), "1.5 TiB");
}

TEST(Types, PageAndLineMath) {
  EXPECT_EQ(PagesForBytes(1), 1u);
  EXPECT_EQ(PagesForBytes(kPageBytes), 1u);
  EXPECT_EQ(PagesForBytes(kPageBytes + 1), 2u);
  EXPECT_EQ(LinesForBytes(64), 1u);
  EXPECT_EQ(LinesForBytes(65), 2u);
}

}  // namespace
}  // namespace merch
