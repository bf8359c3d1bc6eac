#include "types/block.h"

#include <deque>
#include <functional>
#include <unordered_map>

namespace marlin::types {

namespace {

// SHA-256 over the block domain tag (as Writer::str encodes it) followed by
// a block encoding.
Hash256 block_digest(BytesView encoding) {
  static const Bytes kTag = [] {
    Writer w;
    w.str("marlin.block");
    return std::move(w).take();
  }();
  crypto::Sha256 h;
  h.update(kTag);
  h.update(encoding);
  return h.finish();
}

// Cross-instance digest memo: every replica of a simulated cluster decodes
// its own Block from the same shared proposal frame, so the same bytes
// would be hashed up to n times. Entries are keyed by where the bytes sit
// (buffer address and length), so a hit is one probe whatever the block
// size. Each entry pins the buffer it names, so the address cannot be
// reused for other bytes while the entry lives. The memo is bounded by
// the bytes those pins keep alive, oldest entries evicted first — an
// entry-count bound would let a long run with fat batches pin thousands of
// whole proposal frames. thread_local so parallel simulations (chaos
// sweeps with --jobs) never contend or mix.
class SharedDigestMemo {
 public:
  static constexpr std::size_t kPinnedBudget = 4u << 20;

  Hash256 digest(const PayloadSlice& encoding) {
    const Key key{encoding.data(), encoding.size()};
    if (auto it = digests_.find(key); it != digests_.end()) return it->second;
    const Hash256 d = block_digest(encoding.view());
    const std::size_t pinned = encoding.pinned_bytes();
    if (pinned > kPinnedBudget) return d;
    digests_.emplace(key, d);
    pins_.push_back(encoding);
    pinned_ += pinned;
    while (pinned_ > kPinnedBudget) {
      const PayloadSlice& oldest = pins_.front();
      digests_.erase(Key{oldest.data(), oldest.size()});
      pinned_ -= oldest.pinned_bytes();
      pins_.pop_front();
    }
    return d;
  }

 private:
  struct Key {
    const std::uint8_t* data;
    std::size_t size;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      return std::hash<const void*>{}(k.data) ^
             (k.size * 0x9e3779b97f4a7c15ULL);
    }
  };

  std::unordered_map<Key, Hash256, KeyHasher> digests_;
  std::deque<PayloadSlice> pins_;  // insertion order, for eviction
  std::size_t pinned_ = 0;
};

Hash256 shared_digest(const PayloadSlice& encoding) {
  thread_local SharedDigestMemo memo;
  return memo.digest(encoding);
}

}  // namespace

void Operation::encode(Writer& w) const {
  w.u32(client);
  w.u64(request);
  w.bytes(payload);
}

Result<Operation> Operation::decode(Reader& r) {
  Operation op;
  if (Status s = r.u32(op.client); !s.is_ok()) return s;
  if (Status s = r.u64(op.request); !s.is_ok()) return s;
  if (Status s = r.bytes(op.payload); !s.is_ok()) return s;
  return op;
}

std::size_t ops_wire_size(const std::vector<Operation>& ops) {
  std::size_t total = 0;
  for (const Operation& op : ops) total += 4 + 8 + 2 + op.payload.size();
  return total;
}

Hash256 Block::hash() const {
  if (!identity_.hash) {
    if (!identity_.encoding.empty()) {
      identity_.hash = shared_digest(identity_.encoding);
    } else {
      Writer w(128 + ops_wire_size(ops));
      encode(w);
      identity_.hash = block_digest(w.buffer());
    }
  }
  return *identity_.hash;
}

void Block::release_ops() {
  (void)hash();  // pin the identity before the content goes
  ops.clear();
  ops.shrink_to_fit();
  identity_.encoding = PayloadSlice();
}

void Block::encode(Writer& w) const {
  w.raw(parent_link.view());
  w.u64(parent_view);
  w.u64(view);
  w.u64(height);
  w.boolean(virtual_block);
  w.varint(ops.size());
  for (const Operation& op : ops) op.encode(w);
  justify.encode(w);
}

Result<Block> Block::decode(Reader& r) {
  const std::size_t start = r.position();
  Block b;
  if (Status s = decode_hash(r, b.parent_link); !s.is_ok()) return s;
  if (Status s = r.u64(b.parent_view); !s.is_ok()) return s;
  if (Status s = r.u64(b.view); !s.is_ok()) return s;
  if (Status s = r.u64(b.height); !s.is_ok()) return s;
  if (Status s = r.boolean(b.virtual_block); !s.is_ok()) return s;
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count > (1u << 22)) {
    return error(ErrorCode::kCorruption, "oversized op batch");
  }
  b.ops.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Result<Operation> op = Operation::decode(r);
    if (!op.is_ok()) return op.status();
    b.ops.push_back(std::move(op).take());
  }
  Result<Justify> j = Justify::decode(r);
  if (!j.is_ok()) return j.status();
  b.justify = std::move(j).take();
  b.identity_.encoding = r.backed_since(start);
  return b;
}

Block Block::genesis() {
  return Block{};  // zero hash parent, view 0, height 0, no ops, no justify
}

}  // namespace marlin::types
