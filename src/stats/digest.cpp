#include "stats/digest.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace acute::stats {

using sim::expects;

MergingDigest::MergingDigest(std::size_t compression)
    : compression_(compression) {
  expects(compression_ >= kMinCompression && compression_ <= kMaxCompression,
          "MergingDigest compression must be in [8, 65536]");
}

void MergingDigest::add(double x) {
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

void MergingDigest::merge(const MergingDigest& other) {
  if (other.count_ == 0) return;
  if (&other == this) {
    // Self-merge doubles every sample; copy first so the centroid insert
    // below never reads a range it is reallocating.
    const MergingDigest copy = other;
    merge(copy);
    return;
  }
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
  // Fold the other digest's centroids in as weighted points; the single
  // compress() below sorts them together with our centroids and any
  // buffered samples, re-applying the size bound over the whole union.
  centroids_.insert(centroids_.end(), other.centroids_.begin(),
                    other.centroids_.end());
  compacted_ = false;
  compress();
}

void MergingDigest::merge(MergingDigest&& other) {
  if (&other == this) {
    merge(static_cast<const MergingDigest&>(other));
    return;
  }
  if (count_ != 0 || compression_ != other.compression_) {
    // Non-empty target (or mismatched scale): the copy-free fast path below
    // would change which centroid list seeds the union, so fall back to the
    // copying merge and only salvage other's storage afterwards.
    merge(static_cast<const MergingDigest&>(other));
  } else if (other.count_ != 0) {
    // Adopt-after-compress: merge(const&) into an empty digest compresses
    // `other`, copies its (already k1-bound) centroids, and re-runs
    // compress() — which is a no-op on an already-compacted list. Adopting
    // the compacted storage wholesale is therefore bit-identical, and the
    // adopted buffer is empty, so later compactions (which trigger on
    // buffer_.size(), never capacity) fall at the same sample counts.
    other.compress();
    centroids_ = std::move(other.centroids_);
    buffer_ = std::move(other.buffer_);
    compacted_ = true;
    count_ = other.count_;
    sum_ = other.sum_;
    sum_sq_ = other.sum_sq_;
    min_ = other.min_;
    max_ = other.max_;
  }
  // Leave `other` empty-but-valid with released heap storage either way —
  // the frontier fold relies on the donor shrinking to its footprint floor.
  other.centroids_ = {};
  other.buffer_ = {};
  other.compacted_ = true;
  other.count_ = 0;
  other.sum_ = 0;
  other.sum_sq_ = 0;
  other.min_ = 0;
  other.max_ = 0;
}

void MergingDigest::compress() const {
  if (buffer_.empty() && compacted_) return;
  compacted_ = true;
  // Per-thread scratch, reused across calls: a steady-state fold allocates
  // nothing (the result goes into centroids_'s existing capacity).
  thread_local std::vector<Centroid> points;
  thread_local std::vector<Centroid> spare;
  thread_local std::vector<std::size_t> runs;
  points.assign(centroids_.begin(), centroids_.end());
  for (const double x : buffer_) points.push_back(Centroid{x, 1});
  buffer_.clear();
  centroids_.clear();
  if (points.empty()) return;

  // Stable order by mean: equal-mean points keep insertion order, so the
  // compaction result is a pure function of the insertion sequence. The
  // input is mostly sorted already — the compacted list, after merge() the
  // other digest's compacted list, then the insert buffer — so a natural
  // merge sort (split into maximal non-descending runs, merge neighbours,
  // left run first on ties) yields exactly std::stable_sort's permutation
  // in O(n) for the common fold, without its temporary-buffer allocation.
  const auto by_mean = [](const Centroid& a, const Centroid& b) {
    return a.mean < b.mean;
  };
  const std::size_t n = points.size();
  runs.assign(1, 0);
  for (std::size_t i = 1; i < n; ++i) {
    if (by_mean(points[i], points[i - 1])) runs.push_back(i);
  }
  runs.push_back(n);
  while (runs.size() > 2) {
    spare.resize(n);
    std::size_t kept = 1;
    for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
      const std::size_t first = runs[r];
      const std::size_t mid = runs[r + 1];
      const std::size_t last = r + 2 < runs.size() ? runs[r + 2] : mid;
      std::merge(points.begin() + first, points.begin() + mid,
                 points.begin() + mid, points.begin() + last,
                 spare.begin() + first, by_mean);
      runs[kept++] = last;
    }
    runs.resize(kept);
    points.swap(spare);
  }
  double total = 0;
  for (const Centroid& p : points) total += p.weight;

  // k1 scale function (Dunning's merging t-digest): a centroid may span at
  // most one unit of k(q) = (δ/2π)·asin(2q−1). The full k range is δ/2 and
  // closing a centroid means extending it would overflow its unit, so the
  // compacted list holds at most δ+1 centroids — the structural bound
  // max_centroids() advertises (with margin). asin's steep ends give the
  // distribution tails sample-sized centroids.
  const double k_scale =
      static_cast<double>(compression_) / (2.0 * 3.141592653589793);
  const auto k_of = [&](double q) {
    return k_scale * std::asin(std::clamp(2.0 * q - 1.0, -1.0, 1.0));
  };

  // The merge test is D = k(q_r) − k(q_l) <= 1. Since
  // dk/dq = k_scale/√(q(1−q)), D = k_scale·∫ dq/√(q(1−q)) over [q_l, q_r]
  // lies between k_scale·(q_r−q_l)/√g_max and k_scale·(q_r−q_l)/√g_min,
  // where g = q(1−q) at its largest and smallest on the interval. Compared
  // squared, those bounds decide most steps with no asin or sqrt; a step
  // whose bounds straddle 1 ± kSlack evaluates D exactly as before. The
  // shortcut is bit-identical iff it never disagrees with the computed D̂,
  // i.e. iff kSlack/2 exceeds |D̂ − D| (the bounds' own rounding is a few
  // ulp of a value near 1):
  //  * asin's own error and the two k_scale products contribute at most
  //    2·k_scale·(u + 2^-53·π/2), u = asin's error bound in units of 2^-52.
  //    At kMaxCompression (k_scale < 10431) that is below kSlack/4 for any
  //    u up to 50 ulp, far above the error libm implementations document.
  //  * 2q−1 is exact for q ≥ 1/4 (Sterbenz) and for q = 0; otherwise it is
  //    off by ≤ 2^-54, which asin amplifies by 1/√(1−x²) ≤ 1/√q. Requiring
  //    each nonzero endpoint to be ≥ q_guard, √q_guard = 8·k_scale·2^-54 /
  //    kSlack, caps this term at kSlack/4 for both endpoints together. At
  //    the default compression q_guard ≈ 2e-11, so only digests of more
  //    than 10^10 samples ever take the exact path because of it.
  constexpr double kSlack = 1e-9;
  constexpr double kCloseSq = (1 + kSlack) * (1 + kSlack);
  constexpr double kMergeSq = (1 - kSlack) * (1 - kSlack);
  const double guard_root = 8.0 * k_scale * 0x1p-54 / kSlack;
  const double q_guard = guard_root * guard_root;

  Centroid current = points.front();
  double weight_before = 0;  // total weight strictly left of `current`
  double q_left = 0;         // weight_before / total
  double g_left = 0;         // q_left·(1 − q_left)
  double k_left = 0;         // k_of(q_left), once the exact path needs it
  bool have_k_left = false;
  for (std::size_t i = 1; i < n; ++i) {
    const Centroid& next = points[i];
    const double proposed = current.weight + next.weight;
    const double q_right = (weight_before + proposed) / total;
    const double span = k_scale * (q_right - q_left);
    const double g_right = q_right * (1 - q_right);
    const double g_max = q_left <= 0.5 && q_right >= 0.5
                             ? 0.25
                             : std::max(g_left, g_right);
    const bool bounds_apply = (q_left > 0 ? q_left : q_right) >= q_guard;
    bool fits;
    if (bounds_apply && span * span > kCloseSq * g_max) {
      fits = false;
    } else if (bounds_apply &&
               span * span < kMergeSq * std::min(g_left, g_right)) {
      fits = true;
    } else {
      if (!have_k_left) {
        k_left = k_of(q_left);
        have_k_left = true;
      }
      fits = k_of(q_right) - k_left <= 1.0;
    }
    if (fits) {
      // Weighted average; weights are sample counts, so this is the exact
      // mean of the union.
      current.mean =
          (current.mean * current.weight + next.mean * next.weight) /
          proposed;
      current.weight = proposed;
    } else {
      weight_before += current.weight;
      centroids_.push_back(current);
      current = next;
      q_left = weight_before / total;
      g_left = q_left * (1 - q_left);
      have_k_left = false;
    }
  }
  centroids_.push_back(current);
}

DigestSnapshot MergingDigest::snapshot() const {
  compress();
  DigestSnapshot snap;
  snap.compression = compression_;
  snap.count = count_;
  snap.sum = sum_;
  snap.sum_sq = sum_sq_;
  snap.min = min_;
  snap.max = max_;
  snap.centroids.reserve(centroids_.size());
  for (const Centroid& c : centroids_) {
    snap.centroids.emplace_back(c.mean, c.weight);
  }
  return snap;
}

MergingDigest MergingDigest::from_snapshot(const DigestSnapshot& snap) {
  // Everything a hostile checkpoint line could lie about is checked before
  // it is trusted: compress() relies on finite, totally ordered means and
  // on integral weights whose sums stay exact (below 2^53).
  MergingDigest digest(snap.compression);
  expects(snap.centroids.size() <= centroid_limit(snap.compression),
          "DigestSnapshot holds more centroids than its compression allows");
  expects(snap.count <= (std::uint64_t{1} << 53),
          "DigestSnapshot count exceeds 2^53 (weights would be inexact)");
  expects(std::isfinite(snap.sum) && std::isfinite(snap.sum_sq) &&
              std::isfinite(snap.min) && std::isfinite(snap.max) &&
              snap.min <= snap.max,
          "DigestSnapshot sum/sum_sq/min/max must be finite, min <= max");
  // A centroid mean is a rounded weighted average, so a run of samples all
  // equal to min (or max) can drift a few hundred ulp past it; 2^-20 of the
  // value scale is far above any such drift and far below a real lie.
  const double slack =
      0x1p-20 * std::max(std::fabs(snap.min), std::fabs(snap.max));
  double total_weight = 0;
  double prev_mean = snap.min - slack;
  digest.centroids_.reserve(snap.centroids.size());
  for (const auto& [mean, weight] : snap.centroids) {
    expects(weight > 0 && weight <= 0x1p53 && std::floor(weight) == weight,
            "DigestSnapshot centroid weights must be positive integers");
    expects(std::isfinite(mean) && mean >= prev_mean,
            "DigestSnapshot centroid means must be finite, ascending and "
            "not below min");
    prev_mean = mean;
    total_weight += weight;
    digest.centroids_.push_back(Centroid{mean, weight});
  }
  expects(prev_mean <= snap.max + slack,
          "DigestSnapshot centroid means must not exceed max");
  // Weights are sample counts (integers held in doubles): the sum is exact
  // below 2^53 samples, so equality is the right check.
  expects(total_weight == static_cast<double>(snap.count),
          "DigestSnapshot centroid weights must sum to count");
  digest.count_ = snap.count;
  digest.sum_ = snap.sum;
  digest.sum_sq_ = snap.sum_sq;
  digest.min_ = snap.min;
  digest.max_ = snap.max;
  // snapshot() compacts before exporting, so the restored centroid list is
  // already under the k1 bound: mark it clean so a later merge() sees the
  // same centroid state the source digest would have presented.
  digest.compacted_ = true;
  return digest;
}

double MergingDigest::mean() const {
  expects(count_ > 0, "MergingDigest::mean on an empty digest");
  return sum_ / static_cast<double>(count_);
}

double MergingDigest::stddev() const {
  if (count_ < 2) return 0;
  const double n = static_cast<double>(count_);
  const double variance =
      std::max(0.0, (sum_sq_ - sum_ * sum_ / n) / (n - 1));
  return std::sqrt(variance);
}

double MergingDigest::min() const {
  expects(count_ > 0, "MergingDigest::min on an empty digest");
  return min_;
}

double MergingDigest::max() const {
  expects(count_ > 0, "MergingDigest::max on an empty digest");
  return max_;
}

std::size_t MergingDigest::centroid_count() const {
  compress();
  return centroids_.size();
}

double MergingDigest::quantile(double q) const {
  expects(count_ > 0, "MergingDigest::quantile on an empty digest");
  expects(q >= 0.0 && q <= 1.0, "MergingDigest::quantile requires q in [0,1]");
  compress();
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  // Walk centroids treating each as centred at its midpoint; interpolate
  // linearly between adjacent centroid means, clamped by the exact extremes.
  double cumulative = 0;
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    const Centroid& c = centroids_[i];
    const double center = cumulative + c.weight / 2;
    if (target <= center) {
      if (i == 0) {
        const double span = center;  // from min_ (rank 0) to first center
        const double t = span > 0 ? target / span : 1.0;
        return min_ + t * (c.mean - min_);
      }
      const Centroid& prev = centroids_[i - 1];
      const double prev_center = cumulative - prev.weight / 2;
      const double t = (target - prev_center) / (center - prev_center);
      return prev.mean + t * (c.mean - prev.mean);
    }
    cumulative += c.weight;
  }
  const Centroid& last = centroids_.back();
  const double last_center =
      static_cast<double>(count_) - last.weight / 2;
  const double span = static_cast<double>(count_) - last_center;
  const double t = span > 0 ? (target - last_center) / span : 1.0;
  return last.mean + t * (max_ - last.mean);
}

double MergingDigest::cdf(double x) const {
  if (count_ == 0) return 0;
  compress();
  if (x < min_) return 0;
  if (x >= max_) return 1;
  double cumulative = 0;
  double prev_mean = min_;
  double prev_center = 0;
  for (const Centroid& c : centroids_) {
    const double center = cumulative + c.weight / 2;
    if (x < c.mean) {
      const double span = c.mean - prev_mean;
      const double t = span > 0 ? (x - prev_mean) / span : 1.0;
      return (prev_center + t * (center - prev_center)) /
             static_cast<double>(count_);
    }
    cumulative += c.weight;
    prev_mean = c.mean;
    prev_center = center;
  }
  const double span = max_ - prev_mean;
  const double t = span > 0 ? (x - prev_mean) / span : 1.0;
  return (prev_center + t * (static_cast<double>(count_) - prev_center)) /
         static_cast<double>(count_);
}

}  // namespace acute::stats
