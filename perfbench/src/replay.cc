#include "replay.h"

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "types/messages.h"

namespace perfbench {

namespace {

using marlin::Bytes;
using marlin::BytesView;
namespace types = marlin::types;

// Each replay repeats its call until both floors are met, so a unit cost
// rests on enough calls to average out timer resolution.
constexpr std::uint64_t kMinCalls = 2000;
constexpr std::uint64_t kMinNs = 20'000'000;

bool decode_typed(const types::Envelope& env) {
  switch (env.kind) {
    case types::MsgKind::kClientRequest:
      return types::open_envelope<types::ClientRequestMsg>(env).is_ok();
    case types::MsgKind::kClientReply:
      return types::open_envelope<types::ClientReplyMsg>(env).is_ok();
    case types::MsgKind::kProposal:
      return types::open_envelope<types::ProposalMsg>(env).is_ok();
    case types::MsgKind::kVote:
      return types::open_envelope<types::VoteMsg>(env).is_ok();
    case types::MsgKind::kQcNotice:
      return types::open_envelope<types::QcNoticeMsg>(env).is_ok();
    case types::MsgKind::kViewChange:
      return types::open_envelope<types::ViewChangeMsg>(env).is_ok();
    case types::MsgKind::kFetchRequest:
      return types::open_envelope<types::FetchRequestMsg>(env).is_ok();
    case types::MsgKind::kFetchResponse:
      return types::open_envelope<types::FetchResponseMsg>(env).is_ok();
    case types::MsgKind::kSnapshotRequest:
      return types::open_envelope<types::SnapshotRequestMsg>(env).is_ok();
    case types::MsgKind::kSnapshotResponse:
      return types::open_envelope<types::SnapshotResponseMsg>(env).is_ok();
    case types::MsgKind::kTimeoutNotice:
      return types::open_envelope<types::TimeoutNoticeMsg>(env).is_ok();
  }
  return false;
}

Bytes digest_bytes(std::uint64_t seed) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  return b;
}

}  // namespace

double replay_decode_ns(const std::vector<marlin::Payload>& samples) {
  if (samples.empty()) return 0;
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  const std::uint64_t start = wall_ns();
  while (calls < kMinCalls || wall_ns() - start < kMinNs) {
    for (const marlin::Payload& p : samples) {
      auto env = types::Envelope::parse(p.view());
      if (env.is_ok() && decode_typed(env.value())) ++ok;
      ++calls;
    }
  }
  const double ns = static_cast<double>(wall_ns() - start);
  // Every sample was delivered to and accepted by a replica or client.
  if (ok != calls) std::fprintf(stderr, "decode replay: %llu of %llu failed\n",
                                static_cast<unsigned long long>(calls - ok),
                                static_cast<unsigned long long>(calls));
  return ns / static_cast<double>(calls);
}

double replay_verify_ns(std::uint32_t n, std::uint64_t seed) {
  const auto suite = marlin::crypto::make_fast_suite(n, digest_bytes(seed));
  constexpr std::size_t kDistinct = 512;
  std::vector<Bytes> messages;
  std::vector<Bytes> sigs;
  std::vector<marlin::ReplicaId> signers;
  marlin::Rng rng(seed);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const auto id = static_cast<marlin::ReplicaId>(i % n);
    messages.push_back(rng.next_bytes(32));
    sigs.push_back(suite->signer(id)->sign(messages.back()));
    signers.push_back(id);
  }
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  const std::uint64_t start = wall_ns();
  while (calls < kMinCalls || wall_ns() - start < kMinNs) {
    for (std::size_t i = 0; i < kDistinct; ++i) {
      if (suite->verifier().verify(signers[i], messages[i], sigs[i])) ++ok;
      ++calls;
    }
  }
  const double ns = static_cast<double>(wall_ns() - start);
  if (ok != calls) std::fprintf(stderr, "verify replay: rejected signatures\n");
  return ns / static_cast<double>(calls);
}

double replay_hash_ns_per_byte(std::size_t chunk) {
  marlin::Rng rng(chunk);
  const Bytes input = rng.next_bytes(chunk);
  std::uint64_t calls = 0;
  const std::uint64_t start = wall_ns();
  while (calls < kMinCalls || wall_ns() - start < kMinNs) {
    (void)marlin::crypto::Sha256::digest(input);
    ++calls;
  }
  const double ns = static_cast<double>(wall_ns() - start);
  return ns / static_cast<double>(calls * chunk);
}

double replay_put_ns(const std::string& dir, std::uint64_t seed) {
  namespace storage = marlin::storage;
  std::unique_ptr<storage::Env> env;
  if (dir.empty()) {
    env = storage::make_mem_env();
  } else {
    auto posix = storage::make_posix_env(dir);
    if (!posix.is_ok()) return -1;
    env = std::move(posix).take();
  }
  double result = -1;
  {
    auto opened = storage::KVStore::open(*env);
    if (!opened.is_ok()) return -1;
    const std::unique_ptr<storage::KVStore> db = std::move(opened).take();
    // The record ReplicaProcess::deliver writes per committed block:
    // view, height, op count and the block hash under "blk/<height>".
    marlin::Rng rng(seed);
    std::uint64_t calls = 0;
    bool ok = true;
    const std::uint64_t start = wall_ns();
    while (calls < kMinCalls || wall_ns() - start < kMinNs) {
      char key[32];
      std::snprintf(key, sizeof key, "blk/%012llu",
                    static_cast<unsigned long long>(calls + 1));
      marlin::Writer rec;
      rec.u64(calls / 4 + 1);
      rec.u64(calls + 1);
      rec.varint(rng.next_u64() % 4000);
      rec.raw(rng.next_bytes(32));
      ok = ok && db->put(key, rec.buffer()).is_ok();
      ++calls;
    }
    const double ns = static_cast<double>(wall_ns() - start);
    if (ok) result = ns / static_cast<double>(calls);
  }
  env.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return result;
}

}  // namespace perfbench
