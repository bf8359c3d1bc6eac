// Block model from the paper (§V-A): a block is
//   b = [pl, pview, view, height, op, justify]
// where `pl` is the hash of the parent block, `pview` the parent's view,
// and `justify` carries the QC(s) for the parent. A *virtual* block is the
// view-change special: its pl is ⊥ (zero hash) and it may acquire a "real"
// parent only after the fact (Case 2 of the pre-prepare phase). *Shadow*
// blocks are a bandwidth trick, not a distinct type: two blocks proposed in
// one PRE-PREPARE share the same `op` payload, and the wire format sends
// the payload once (see messages.h).
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "types/quorum_cert.h"

namespace marlin::types {

using crypto::Hash256;

/// One client operation (opaque payload plus routing metadata for replies).
/// A decoded op's payload aliases the frame it arrived in.
struct Operation {
  ClientId client = 0;
  RequestId request = 0;
  PayloadSlice payload;

  void encode(Writer& w) const;
  static Result<Operation> decode(Reader& r);
  bool operator==(const Operation&) const = default;
};

struct Block {
  Hash256 parent_link;    // pl: hash of parent; zero for genesis / virtual
  ViewNumber parent_view = 0;  // pview
  ViewNumber view = 0;
  Height height = 0;
  bool virtual_block = false;  // pl = ⊥ (paper's virtual block)
  std::vector<Operation> ops;
  Justify justify;  // QC(s) for the parent block (see quorum_cert.h)

  /// Deterministic content hash — the identity used by parent links, votes
  /// and QCs: SHA-256 over "marlin.block" and the block's encoding.
  /// Includes every field (the paper's shadow blocks share ops but differ
  /// in metadata, so they hash differently, as required).
  ///
  /// Memoized: every code path builds (or decodes) a block and only then
  /// hashes it, so the first call pins the identity. A block decoded from
  /// a Payload-backed Reader hashes the bytes it was decoded from in
  /// place (the decoders are canonical: those bytes are exactly what
  /// encode() writes), and blocks decoded from one shared frame share one
  /// digest computation across replicas.
  Hash256 hash() const;

  /// Drops the op payloads of an executed block (and with them the pinned
  /// frame they alias) while keeping its identity: hash() still returns
  /// the original digest. The block no longer matches that digest, so it
  /// must never be served again (see BlockStore::release_ops).
  void release_ops();

  bool is_genesis() const { return view == 0 && height == 0; }

  void encode(Writer& w) const;
  /// Records the decoded bytes for in-place hashing when `r` is backed by
  /// a Payload.
  static Result<Block> decode(Reader& r);
  /// Forgets the decoded bytes: for a block whose fields no longer match
  /// them (a shadow block rebuilt from its twin's ops). hash() then
  /// re-encodes.
  void forget_encoding() { identity_.encoding = PayloadSlice(); }
  bool operator==(const Block& o) const {
    return parent_link == o.parent_link && parent_view == o.parent_view &&
           view == o.view && height == o.height &&
           virtual_block == o.virtual_block && ops == o.ops &&
           justify == o.justify;
  }

  /// The genesis block every replica starts from.
  static Block genesis();

 private:
  // Identity must not survive a copy: `Block b = a; b.view = 3;` is a legal
  // way to derive a new block, and a copied memo or decoded encoding would
  // pin the old identity. Moves keep it — a moved block is the same block.
  struct Identity {
    mutable std::optional<Hash256> hash;
    PayloadSlice encoding;  // bytes this block was decoded from, if any
    Identity() = default;
    Identity(const Identity&) {}
    Identity& operator=(const Identity&) {
      hash.reset();
      encoding = PayloadSlice();
      return *this;
    }
    Identity(Identity&&) = default;
    Identity& operator=(Identity&&) = default;
  };
  Identity identity_;
};

/// Total payload bytes across ops (bandwidth accounting).
std::size_t ops_wire_size(const std::vector<Operation>& ops);

}  // namespace marlin::types
