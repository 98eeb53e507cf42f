#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "stats/boxplot.hpp"
#include "stats/cdf.hpp"
#include "stats/digest.hpp"
#include "stats/digest_io.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace acute::stats {
namespace {

TEST(Summary, BasicMoments) {
  const std::vector<double> sample{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s(sample);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample (n-1) stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, MedianEvenAndOdd) {
  EXPECT_DOUBLE_EQ(Summary(std::vector<double>{1, 2, 3}).median(), 2.0);
  EXPECT_DOUBLE_EQ(Summary(std::vector<double>{1, 2, 3, 4}).median(), 2.5);
}

TEST(Summary, PercentileInterpolates) {
  const std::vector<double> sample{10, 20, 30, 40};
  const Summary s(sample);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);  // R type-7
}

TEST(Summary, SingleElement) {
  const Summary s(std::vector<double>{42});
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(Summary, Ci95MatchesHandComputation) {
  // n=5, stddev=1 -> CI = t(4, .975) / sqrt(5) = 2.776 / 2.2360.
  const std::vector<double> sample{-1, -0.5, 0, 0.5, 1};
  const Summary s(sample);
  const double expected = student_t_975(4) * s.stddev() / std::sqrt(5.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), expected);
}

TEST(Summary, MeanCiStringFormat) {
  const std::vector<double> sample{1, 1, 1, 1};
  EXPECT_EQ(Summary(sample).mean_ci_string(2), "1.00 ±0.00");
}

TEST(Summary, EmptySampleViolatesContract) {
  EXPECT_THROW(Summary(std::vector<double>{}), sim::ContractViolation);
}

TEST(StudentT, KnownValuesAndInterpolation) {
  EXPECT_DOUBLE_EQ(student_t_975(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t_975(10), 2.228);
  EXPECT_DOUBLE_EQ(student_t_975(500), 1.960);
  // Between table rows: monotone decreasing.
  const double t13 = student_t_975(13);
  EXPECT_LT(t13, student_t_975(12));
  EXPECT_GT(t13, student_t_975(15));
}

TEST(BoxPlot, QuartilesAndWhiskers) {
  const std::vector<double> sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto box = BoxPlot::from_sample(sample);
  EXPECT_DOUBLE_EQ(box.median, 5.5);
  EXPECT_DOUBLE_EQ(box.q1, 3.25);
  EXPECT_DOUBLE_EQ(box.q3, 7.75);
  EXPECT_DOUBLE_EQ(box.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 10.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxPlot, OutliersBeyondFences) {
  std::vector<double> sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100};
  const auto box = BoxPlot::from_sample(sample);
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers.front(), 100.0);
  EXPECT_LE(box.whisker_high, 10.0);
}

TEST(BoxPlot, ToStringMentionsAllParts) {
  const auto box = BoxPlot::from_sample(std::vector<double>{1, 2, 3});
  const std::string text = box.to_string();
  EXPECT_NE(text.find("med="), std::string::npos);
  EXPECT_NE(text.find("box=["), std::string::npos);
  EXPECT_NE(text.find("out=0"), std::string::npos);
}

TEST(Cdf, EvaluatesEmpiricalFractions) {
  const std::vector<double> sample{1, 2, 3, 4};
  const Cdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(Cdf, QuantileIsInverse) {
  const std::vector<double> sample{10, 20, 30, 40};
  const Cdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.01), 10.0);
}

TEST(Cdf, CurveIsMonotone) {
  const std::vector<double> sample{1, 5, 5, 7, 12};
  const auto points = Cdf(sample).curve(10);
  ASSERT_EQ(points.size(), 10u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].x, points[i - 1].x);
    EXPECT_GE(points[i].f, points[i - 1].f);
  }
  EXPECT_DOUBLE_EQ(points.back().f, 1.0);
}

TEST(Cdf, KsDistanceIdenticalIsZero) {
  const std::vector<double> sample{1, 2, 3, 4, 5};
  const Cdf a(sample), b(sample);
  EXPECT_DOUBLE_EQ(Cdf::ks_distance(a, b), 0.0);
}

TEST(Cdf, KsDistanceDisjointIsOne) {
  const Cdf a(std::vector<double>{1, 2, 3});
  const Cdf b(std::vector<double>{10, 11, 12});
  EXPECT_DOUBLE_EQ(Cdf::ks_distance(a, b), 1.0);
}

TEST(Cdf, KsDistanceIsSymmetric) {
  const Cdf a(std::vector<double>{1, 2, 3, 7});
  const Cdf b(std::vector<double>{2, 3, 4});
  EXPECT_DOUBLE_EQ(Cdf::ks_distance(a, b), Cdf::ks_distance(b, a));
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name  | value"), std::string::npos);
  EXPECT_NE(text.find("------+------"), std::string::npos);
  EXPECT_NE(text.find("alpha | 1"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, CellFormatsPrecision) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(3.0, 0), "3");
}

TEST(Table, RowWidthMismatchViolatesContract) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), sim::ContractViolation);
}

// Property: for any sample, quantile(q) equals percentile via Summary at
// matching ranks for the extremes.
class CdfSummaryAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CdfSummaryAgreement, MinMaxAgree) {
  std::vector<double> sample;
  sim::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) sample.push_back(rng.uniform(0, 100));
  const Summary summary(sample);
  const Cdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), summary.max());
  EXPECT_DOUBLE_EQ(cdf.quantile(0.001), summary.min());
  EXPECT_DOUBLE_EQ(cdf.at(summary.max()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfSummaryAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MergingDigest, SmallSamplesAreExactAtTheMoments) {
  MergingDigest digest;
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) digest.add(x);
  EXPECT_EQ(digest.count(), 5u);
  EXPECT_DOUBLE_EQ(digest.mean(), 3.0);
  EXPECT_NEAR(digest.stddev(),
              Summary(std::vector<double>{5, 1, 3, 2, 4}).stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(digest.min(), 1.0);
  EXPECT_DOUBLE_EQ(digest.max(), 5.0);
  EXPECT_DOUBLE_EQ(digest.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(digest.quantile(1.0), 5.0);
  EXPECT_NEAR(digest.quantile(0.5), 3.0, 1e-9);
}

TEST(MergingDigest, CentroidCountStaysBoundedUnderHeavyLoad) {
  MergingDigest digest(64);
  sim::Rng rng(7);
  for (int i = 0; i < 100000; ++i) digest.add(rng.uniform(0.0, 1.0));
  EXPECT_EQ(digest.count(), 100000u);
  EXPECT_LE(digest.centroid_count(), digest.max_centroids());
  // Uniform[0,1]: mid-range quantiles track q closely, tails are tight.
  EXPECT_NEAR(digest.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(digest.quantile(0.99), 0.99, 0.01);
  EXPECT_NEAR(digest.cdf(0.25), 0.25, 0.02);
}

TEST(MergingDigest, MergeMatchesSingleDigestOfTheUnion) {
  sim::Rng rng(11);
  MergingDigest left, right, whole;
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(5.0, 15.0);
    left.add(a);
    right.add(b);
    whole.add(a);
    whole.add(b);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);  // exact sum of squares
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(left.quantile(q), whole.quantile(q), 0.15);
  }
  EXPECT_LE(left.centroid_count(), left.max_centroids());
}

TEST(MergingDigest, MergeIsDeterministicForAFixedOrder) {
  // The campaign merge folds shard digests in scenario order; the same
  // order must give bit-identical results every time.
  const auto build = [] {
    sim::Rng rng(3);
    std::vector<MergingDigest> shards(8);
    for (auto& shard : shards) {
      for (int i = 0; i < 400; ++i) shard.add(rng.uniform(0.0, 100.0));
    }
    MergingDigest merged;
    for (const auto& shard : shards) merged.merge(shard);
    return merged;
  };
  const MergingDigest a = build();
  const MergingDigest b = build();
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q));
  }
  EXPECT_EQ(a.centroid_count(), b.centroid_count());
}

TEST(MergingDigest, SelfMergeDoublesTheSample) {
  MergingDigest digest;
  for (const double x : {1.0, 2.0, 3.0}) digest.add(x);
  digest.merge(digest);
  EXPECT_EQ(digest.count(), 6u);
  EXPECT_DOUBLE_EQ(digest.mean(), 2.0);
  EXPECT_DOUBLE_EQ(digest.min(), 1.0);
  EXPECT_DOUBLE_EQ(digest.max(), 3.0);
}

TEST(MergingDigest, RejectsContractViolations) {
  MergingDigest digest;
  EXPECT_THROW((void)digest.quantile(0.5), sim::ContractViolation);  // empty
  EXPECT_THROW((void)digest.mean(), sim::ContractViolation);
  digest.add(1.0);
  EXPECT_THROW((void)digest.quantile(1.5), sim::ContractViolation);
  EXPECT_THROW(MergingDigest(4), sim::ContractViolation);  // compression < 8
}

// --- Pinned accuracy -------------------------------------------------------

/// Rank error of `estimate` as a q-quantile of the sorted `sample`: how far
/// q lies outside the estimate's empirical rank interval [F(x-), F(x)].
double rank_error(const std::vector<double>& sorted, double q,
                  double estimate) {
  const double n = static_cast<double>(sorted.size());
  const double below =
      double(std::lower_bound(sorted.begin(), sorted.end(), estimate) -
             sorted.begin()) /
      n;
  const double at_or_below =
      double(std::upper_bound(sorted.begin(), sorted.end(), estimate) -
             sorted.begin()) /
      n;
  return std::max({0.0, below - q, q - at_or_below});
}

struct AccuracyCase {
  const char* name;
  std::function<double(sim::Rng&)> draw;
};

class DigestAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(DigestAccuracy, RankErrorStaysWithinTheStatedBound) {
  // The accuracy digest.hpp states for the default compression: rank error
  // <= 0.005 at q in [0.01, 0.99] and exact extremes, whether the digest is
  // built sample by sample or folded from one-sample digests (the campaign
  // frontier's shape).
  sim::Rng rng(2016);
  std::vector<double> sample(20000);
  for (double& x : sample) x = GetParam().draw(rng);
  MergingDigest added;
  MergingDigest folded;
  for (const double x : sample) {
    added.add(x);
    MergingDigest one;
    one.add(x);
    folded.merge(one);
  }
  std::sort(sample.begin(), sample.end());
  double worst = 0;
  for (const MergingDigest* digest : {&added, &folded}) {
    EXPECT_EQ(digest->min(), sample.front());
    EXPECT_EQ(digest->max(), sample.back());
    EXPECT_EQ(digest->quantile(0.0), sample.front());
    EXPECT_EQ(digest->quantile(1.0), sample.back());
    for (const double q :
         {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
      const double error = rank_error(sample, q, digest->quantile(q));
      EXPECT_LE(error, 0.005) << GetParam().name << " q=" << q;
      worst = std::max(worst, error);
    }
  }
  RecordProperty("worst_rank_error", std::to_string(worst));
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, DigestAccuracy,
    ::testing::Values(
        // PSM-bimodal RTTs: awake-path 30 ms mode plus a 230 ms + Exp(40)
        // beacon-wait mode.
        AccuracyCase{"psm_bimodal",
                     [](sim::Rng& rng) {
                       return rng.bernoulli(0.7)
                                  ? rng.normal(30.0, 2.0)
                                  : 230.0 + rng.exponential(40.0);
                     }},
        AccuracyCase{"pareto",
                     [](sim::Rng& rng) {
                       return 20.0 *
                              std::pow(1.0 - rng.uniform(0.0, 1.0), -1 / 1.5);
                     }},
        AccuracyCase{"lognormal",
                     [](sim::Rng& rng) { return rng.lognormal(3.3, 0.6); }}),
    [](const ::testing::TestParamInfo<AccuracyCase>& info) {
      return std::string(info.param.name);
    });

// --- Hostile snapshots and serialized digests --------------------------------

/// A valid two-centroid snapshot the hostile cases below corrupt.
DigestSnapshot valid_snapshot() {
  DigestSnapshot snap;
  snap.compression = 8;
  snap.count = 3;
  snap.sum = 6.0;
  snap.sum_sq = 14.0;
  snap.min = 1.0;
  snap.max = 3.0;
  snap.centroids = {{1.0, 1.0}, {2.5, 2.0}};
  return snap;
}

/// write_digest()'s token format for an arbitrary (possibly lying) header.
std::string digest_tokens(const DigestSnapshot& snap,
                          std::uint64_t centroid_count) {
  std::ostringstream out;
  const auto hex = [&](double x) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(double_bits(x)));
    out << buf;
  };
  out << "dgst " << snap.compression << ' ' << snap.count << ' ';
  hex(snap.sum);
  out << ' ';
  hex(snap.sum_sq);
  out << ' ';
  hex(snap.min);
  out << ' ';
  hex(snap.max);
  out << ' ' << centroid_count;
  for (const auto& [mean, weight] : snap.centroids) {
    out << ' ';
    hex(mean);
    out << ' ';
    hex(weight);
  }
  return out.str();
}

/// Both entry points must refuse `snap` with a ContractViolation.
void expect_rejected(const DigestSnapshot& snap) {
  EXPECT_THROW((void)MergingDigest::from_snapshot(snap),
               sim::ContractViolation);
  std::istringstream in(digest_tokens(snap, snap.centroids.size()));
  EXPECT_THROW((void)read_digest(in), sim::ContractViolation);
}

TEST(DigestSnapshotValidation, TheBaseSnapshotIsAccepted) {
  const MergingDigest digest = MergingDigest::from_snapshot(valid_snapshot());
  EXPECT_EQ(digest.count(), 3u);
  std::istringstream in(digest_tokens(valid_snapshot(), 2));
  EXPECT_EQ(read_digest(in).count(), 3u);
}

TEST(DigestSnapshotValidation, RejectsNanFirstMean) {
  // A lone NaN centroid: no neighbour comparison can catch it, and
  // quantile(0.5) would return nan.
  DigestSnapshot snap = valid_snapshot();
  snap.centroids = {{std::numeric_limits<double>::quiet_NaN(), 3.0}};
  expect_rejected(snap);
}

TEST(DigestSnapshotValidation, RejectsNanMinOrMax) {
  DigestSnapshot snap = valid_snapshot();
  snap.min = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(snap);
  snap = valid_snapshot();
  snap.max = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(snap);
}

TEST(DigestSnapshotValidation, RejectsNonFiniteSums) {
  DigestSnapshot snap = valid_snapshot();
  snap.sum = std::numeric_limits<double>::infinity();
  expect_rejected(snap);
  snap = valid_snapshot();
  snap.sum_sq = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(snap);
}

TEST(DigestSnapshotValidation, RejectsMeansOutsideMinMax) {
  DigestSnapshot snap = valid_snapshot();
  snap.centroids[1].first = 7.0;  // max is 3
  expect_rejected(snap);
  snap = valid_snapshot();
  snap.centroids[0].first = -4.0;  // min is 1
  expect_rejected(snap);
}

TEST(DigestSnapshotValidation, RejectsNonIntegralWeights) {
  DigestSnapshot snap = valid_snapshot();
  snap.centroids = {{1.0, 0.5}, {2.5, 2.5}};  // still sums to count
  expect_rejected(snap);
}

TEST(DigestSnapshotValidation, RejectsMoreCentroidsThanTheCompressionAllows) {
  // 40 unit centroids at compression 8: past max_centroids() = 16, so the
  // list cannot be a compacted one.
  DigestSnapshot snap;
  snap.compression = 8;
  snap.count = 40;
  snap.min = 0;
  snap.max = 39;
  for (int i = 0; i < 40; ++i) {
    snap.centroids.emplace_back(double(i), 1.0);
    snap.sum += i;
    snap.sum_sq += double(i) * i;
  }
  expect_rejected(snap);
}

TEST(DigestSnapshotValidation, RejectsCompressionOutsideTheDocumentedRange) {
  DigestSnapshot snap = valid_snapshot();
  snap.compression = std::size_t{1} << 62;  // 4 * compression wraps
  expect_rejected(snap);
  snap.compression = MergingDigest::kMaxCompression + 1;
  expect_rejected(snap);
  EXPECT_THROW(MergingDigest(std::size_t{1} << 62), sim::ContractViolation);
}

TEST(DigestSnapshotValidation, LyingCentroidCountFailsBeforeAllocating) {
  // A 60-byte line claiming 2^26 / 2^40 centroids: the bound must refuse
  // it as a contract violation before any reserve (never bad_alloc).
  for (const std::uint64_t lie : {std::uint64_t{1} << 26,
                                  std::uint64_t{1} << 40}) {
    std::istringstream in(digest_tokens(valid_snapshot(), lie));
    EXPECT_THROW((void)read_digest(in), sim::ContractViolation) << lie;
  }
}

}  // namespace
}  // namespace acute::stats
