#include "stats/digest_io.hpp"

#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "sim/contracts.hpp"

namespace acute::stats {

using sim::expects;

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof x);
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

double double_from_bits(std::uint64_t bits) {
  double x = 0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

namespace {

void write_double(std::ostream& out, double x) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(double_bits(x)));
  out << hex;
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t value = 0;
  in >> value;
  expects(static_cast<bool>(in), what);
  return value;
}

double read_double(std::istream& in) {
  std::string token;
  in >> token;
  expects(token.size() == 16, "digest_io: malformed double bit pattern");
  char* end = nullptr;
  const std::uint64_t bits = std::strtoull(token.c_str(), &end, 16);
  expects(end == token.c_str() + token.size(),
          "digest_io: malformed double bit pattern");
  return double_from_bits(bits);
}

}  // namespace

void write_digest(std::ostream& out, const MergingDigest& digest) {
  const DigestSnapshot snap = digest.snapshot();
  out << "dgst " << snap.compression << ' ' << snap.count << ' ';
  write_double(out, snap.sum);
  out << ' ';
  write_double(out, snap.sum_sq);
  out << ' ';
  write_double(out, snap.min);
  out << ' ';
  write_double(out, snap.max);
  out << ' ' << snap.centroids.size();
  for (const auto& [mean, weight] : snap.centroids) {
    out << ' ';
    write_double(out, mean);
    out << ' ';
    write_double(out, weight);
  }
}

MergingDigest read_digest(std::istream& in) {
  std::string magic;
  in >> magic;
  expects(magic == "dgst", "digest_io: missing digest magic");
  DigestSnapshot snap;
  snap.compression =
      static_cast<std::size_t>(read_u64(in, "digest_io: short compression"));
  snap.count = read_u64(in, "digest_io: short count");
  snap.sum = read_double(in);
  snap.sum_sq = read_double(in);
  snap.min = read_double(in);
  snap.max = read_double(in);
  const std::uint64_t centroid_count =
      read_u64(in, "digest_io: short centroid count");
  // Bound the count before reserving: a lying count must fail as a contract
  // violation, not as a huge allocation (or std::bad_alloc).
  expects(snap.compression >= MergingDigest::kMinCompression &&
              snap.compression <= MergingDigest::kMaxCompression,
          "digest_io: compression out of range");
  expects(centroid_count <= MergingDigest::centroid_limit(snap.compression),
          "digest_io: centroid count exceeds the compression's bound");
  snap.centroids.reserve(centroid_count);
  for (std::uint64_t i = 0; i < centroid_count; ++i) {
    const double mean = read_double(in);
    const double weight = read_double(in);
    snap.centroids.emplace_back(mean, weight);
  }
  return MergingDigest::from_snapshot(snap);
}

}  // namespace acute::stats
