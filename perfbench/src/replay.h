// Unit-cost replays: wall-clock cost of one call into a public API, timed
// outside any cluster run and multiplied by the run's own counts to
// attribute time to the types, crypto and storage layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/payload.h"

namespace perfbench {

/// Mean ns to parse and decode one delivered payload of the samples' kind
/// (types::Envelope::parse plus the kind's typed decode); 0 when empty.
double replay_decode_ns(const std::vector<marlin::Payload>& samples);

/// Mean ns per signature verification on the suite the clusters use, over
/// distinct freshly signed 32-byte digests.
double replay_verify_ns(std::uint32_t n, std::uint64_t seed);

/// Mean SHA-256 cost per byte (ns) over `chunk`-byte inputs.
double replay_hash_ns_per_byte(std::size_t chunk);

/// Mean ns per block-record put through storage::KVStore. An empty `dir`
/// uses the in-memory Env; otherwise a PosixEnv rooted there (removed
/// afterwards). Returns a negative value if the store cannot be opened.
double replay_put_ns(const std::string& dir, std::uint64_t seed);

}  // namespace perfbench
