// Differential oracle for MergingDigest's compaction kernel.
//
// ReferenceDigest below freezes the original compress(): copy everything,
// std::stable_sort the whole list, two asin calls per point, fresh vectors.
// The production kernel merges sorted runs, reuses scratch storage and skips
// asin where a closed-form bound decides — all of which must leave the
// centroid list bit for bit unchanged. Seeded trials drive both through the
// same interleaving of add / merge(const&) / merge(&&) / reads and compare
// snapshot() bit patterns after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "stats/digest.hpp"

namespace acute::stats {
namespace {

/// The original MergingDigest sample/merge/compress path, kept verbatim as
/// the bit-identity reference (merge(&&) is observably merge(const&)).
class ReferenceDigest {
 public:
  explicit ReferenceDigest(std::size_t compression)
      : compression_(compression) {
    buffer_.reserve(4 * compression_);
  }

  void add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sum_sq_ += x * x;
    buffer_.push_back(x);
    if (buffer_.size() >= 4 * compression_) compress();
  }

  void merge(const ReferenceDigest& other) {
    if (other.count_ == 0) return;
    other.compress();
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    centroids_.insert(centroids_.end(), other.centroids_.begin(),
                      other.centroids_.end());
    compacted_ = false;
    compress();
  }

  [[nodiscard]] DigestSnapshot snapshot() const {
    compress();
    DigestSnapshot snap;
    snap.compression = compression_;
    snap.count = count_;
    snap.sum = sum_;
    snap.sum_sq = sum_sq_;
    snap.min = min_;
    snap.max = max_;
    for (const Centroid& c : centroids_) {
      snap.centroids.emplace_back(c.mean, c.weight);
    }
    return snap;
  }

 private:
  struct Centroid {
    double mean = 0;
    double weight = 0;
  };

  void compress() const {
    if (buffer_.empty() && compacted_) return;
    compacted_ = true;
    std::vector<Centroid> points;
    points.reserve(centroids_.size() + buffer_.size());
    points.insert(points.end(), centroids_.begin(), centroids_.end());
    for (const double x : buffer_) points.push_back(Centroid{x, 1});
    buffer_.clear();
    if (points.empty()) {
      centroids_.clear();
      return;
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const Centroid& a, const Centroid& b) {
                       return a.mean < b.mean;
                     });
    double total = 0;
    for (const Centroid& p : points) total += p.weight;
    const double k_scale =
        static_cast<double>(compression_) / (2.0 * 3.141592653589793);
    const auto k_of = [&](double q) {
      return k_scale * std::asin(std::clamp(2.0 * q - 1.0, -1.0, 1.0));
    };
    std::vector<Centroid> merged;
    merged.reserve(compression_ + 8);
    Centroid current = points.front();
    double weight_before = 0;
    for (std::size_t i = 1; i < points.size(); ++i) {
      const Centroid& next = points[i];
      const double proposed = current.weight + next.weight;
      const double k_left = k_of(weight_before / total);
      const double k_right = k_of((weight_before + proposed) / total);
      if (k_right - k_left <= 1.0) {
        current.mean =
            (current.mean * current.weight + next.mean * next.weight) /
            proposed;
        current.weight = proposed;
      } else {
        weight_before += current.weight;
        merged.push_back(current);
        current = next;
      }
    }
    merged.push_back(current);
    centroids_ = std::move(merged);
  }

  std::size_t compression_;
  mutable std::vector<Centroid> centroids_;
  mutable std::vector<double> buffer_;
  mutable bool compacted_ = true;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Bit-exact snapshot equality (== on doubles would let -0.0 match 0.0).
::testing::AssertionResult same_bits(const DigestSnapshot& got,
                                     const DigestSnapshot& want) {
  if (got.compression != want.compression || got.count != want.count ||
      bits(got.sum) != bits(want.sum) ||
      bits(got.sum_sq) != bits(want.sum_sq) ||
      bits(got.min) != bits(want.min) || bits(got.max) != bits(want.max)) {
    return ::testing::AssertionFailure() << "summary fields differ";
  }
  if (got.centroids.size() != want.centroids.size()) {
    return ::testing::AssertionFailure()
           << "centroid count " << got.centroids.size() << " vs "
           << want.centroids.size();
  }
  for (std::size_t i = 0; i < got.centroids.size(); ++i) {
    const auto& [gm, gw] = got.centroids[i];
    const auto& [wm, ww] = want.centroids[i];
    if (bits(gm) != bits(wm) || bits(gw) != bits(ww)) {
      return ::testing::AssertionFailure()
             << "centroid " << i << ": {" << gm << ", " << gw << "} vs {"
             << wm << ", " << ww << "}";
    }
  }
  return ::testing::AssertionSuccess();
}

enum class Shape { lognormal, tied, psm_bimodal, pareto };

double draw(Shape shape, sim::Rng& rng) {
  switch (shape) {
    case Shape::lognormal:
      return rng.lognormal(3.3, 0.6);
    case Shape::tied:
      return static_cast<double>(rng.uniform_int(0, 6));
    case Shape::psm_bimodal:
      return rng.bernoulli(0.7) ? rng.normal(30.0, 2.0)
                                : 230.0 + rng.exponential(40.0);
    case Shape::pareto:
      return 20.0 * std::pow(1.0 - rng.uniform(0.0, 1.0), -1.0 / 1.5);
  }
  return 0;
}

struct Pair {
  MergingDigest real;
  ReferenceDigest ref;
  explicit Pair(std::size_t compression)
      : real(compression), ref(compression) {}

  void fill(Shape shape, sim::Rng& rng, std::int64_t samples) {
    for (std::int64_t i = 0; i < samples; ++i) {
      const double x = draw(shape, rng);
      real.add(x);
      ref.add(x);
    }
  }

  /// A quantile and a cdf read (both flush the insert buffer), checked
  /// against a digest restored from the reference's snapshot — which also
  /// runs from_snapshot()'s validation over every shape, ties included.
  void read(sim::Rng& rng) {
    if (real.empty()) return;
    const MergingDigest restored =
        MergingDigest::from_snapshot(ref.snapshot());
    const double q = rng.uniform(0.0, 1.0);
    const double value = real.quantile(q);
    EXPECT_EQ(bits(value), bits(restored.quantile(q))) << "q=" << q;
    EXPECT_EQ(bits(real.cdf(value)), bits(restored.cdf(value)));
  }
};

/// One trial: a random interleaving of the digest's mutating operations,
/// checked against the reference after every step. Returns false on the
/// first divergence (the assertion already explains it).
bool run_trial(std::size_t compression, Shape shape, std::uint64_t seed) {
  sim::Rng rng(seed);
  Pair target(compression);
  const int steps = static_cast<int>(rng.uniform_int(6, 14));
  for (int step = 0; step < steps; ++step) {
    const std::int64_t part = rng.uniform_int(0, 600);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        target.fill(shape, rng, part);
        break;
      case 1:
      case 2: {
        Pair other(compression);
        other.fill(shape, rng, part);
        if (rng.bernoulli(0.3)) other.read(rng);
        if (rng.bernoulli(0.5)) {
          target.real.merge(static_cast<const MergingDigest&>(other.real));
        } else {
          target.real.merge(std::move(other.real));
        }
        target.ref.merge(other.ref);
        break;
      }
      default:
        target.read(rng);
        break;
    }
    // Snapshot copies so the originals keep their unflushed buffers: the
    // next step then exercises compress() over buffer + centroid runs.
    const MergingDigest real_copy = target.real;
    const ReferenceDigest ref_copy = target.ref;
    const auto verdict = same_bits(real_copy.snapshot(), ref_copy.snapshot());
    EXPECT_TRUE(verdict) << "compression " << compression << " shape "
                         << static_cast<int>(shape) << " seed " << seed
                         << " step " << step;
    if (!verdict) return false;
  }
  return true;
}

TEST(DigestOracle, KernelMatchesTheFrozenReferenceBitForBit) {
  // 5 compressions × 4 shapes × 20 seeds = 400 trials.
  for (const std::size_t compression : {8u, 16u, 50u, 128u, 200u}) {
    for (const Shape shape : {Shape::lognormal, Shape::tied,
                              Shape::psm_bimodal, Shape::pareto}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ASSERT_TRUE(run_trial(compression, shape, seed * 1000 + compression));
      }
    }
  }
}

TEST(DigestOracle, OneSampleFoldsMatchTheReference) {
  // The campaign frontier's shape: thousands of one-sample digests folded
  // into one, both consuming and copying.
  for (const std::size_t compression : {8u, 128u}) {
    sim::Rng rng(compression);
    MergingDigest real(compression);
    ReferenceDigest ref(compression);
    for (int i = 0; i < 20000; ++i) {
      const double x = draw(Shape::psm_bimodal, rng);
      MergingDigest one(compression);
      ReferenceDigest one_ref(compression);
      one.add(x);
      one_ref.add(x);
      if (i % 2 == 0) {
        real.merge(std::move(one));
      } else {
        real.merge(static_cast<const MergingDigest&>(one));
      }
      ref.merge(one_ref);
      if (i % 997 == 0) {
        ASSERT_TRUE(same_bits(real.snapshot(), ref.snapshot()))
            << "fold " << i;
      }
    }
    ASSERT_TRUE(same_bits(real.snapshot(), ref.snapshot()));
  }
}

TEST(DigestOracle, SignedZerosKeepInsertionOrder) {
  // -0.0 and 0.0 compare equal, so only a stable order keeps the merged
  // mean's sign bit a function of the insertion sequence.
  MergingDigest real(8);
  ReferenceDigest ref(8);
  for (int i = 0; i < 200; ++i) {
    const double x = (i % 3 == 0) ? -0.0 : (i % 3 == 1 ? 0.0 : 1.0);
    real.add(x);
    ref.add(x);
  }
  EXPECT_TRUE(same_bits(real.snapshot(), ref.snapshot()));
}

}  // namespace
}  // namespace acute::stats
