// Exact text serialization of MergingDigest, for campaign checkpoints.
//
// Doubles round-trip as IEEE-754 bit patterns (16 hex digits), never as
// decimal: a checkpointed digest must restore to the bit-identical state, or
// a resumed campaign's merged quantiles would drift from the uninterrupted
// run's. The encoding is a flat space-separated token stream, so digests
// embed directly into larger line-oriented records (checkpoint files).
#pragma once

#include <cstdint>
#include <iosfwd>

#include "stats/digest.hpp"

namespace acute::stats {

/// The IEEE-754 bit pattern of `x` (and back). memcpy-based, so NaNs and
/// signed zeros survive unchanged.
[[nodiscard]] std::uint64_t double_bits(double x);
[[nodiscard]] double double_from_bits(std::uint64_t bits);

/// Writes `digest` as tokens:
///   dgst <compression> <count> <sum> <sum_sq> <min> <max> <n> <mean>
///   <weight> ...
/// Integers are decimal; doubles are 16-hex-digit bit patterns. No trailing
/// separator — callers embedding a digest mid-line add their own.
void write_digest(std::ostream& out, const MergingDigest& digest);

/// Parses write_digest()'s token stream from `in`. Throws
/// sim::ContractViolation on malformed input (bad magic, short read,
/// structurally invalid snapshot — see MergingDigest::from_snapshot), and
/// bounds the centroid count before allocating for it.
[[nodiscard]] MergingDigest read_digest(std::istream& in);

}  // namespace acute::stats
