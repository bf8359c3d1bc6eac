// Zero-copy broadcast fabric tests: a broadcast serializes exactly once and
// every receiver shares the same underlying buffer (asserted via the
// network's delivery probe and Payload buffer identity); receivers keep
// sharing after decode — pooled and stored ops alias the sender's buffer;
// traffic accounting still counts each logical frame; Byzantine wire
// mutators copy-on-write — only tampered destinations get a private buffer,
// and a tampered block never borrows the honest block's identity.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "faults/byzantine.h"
#include "runtime/cluster.h"
#include "simnet/network.h"
#include "types/messages.h"

namespace marlin::runtime {
namespace {

using crypto::Hash256;
using sim::NodeId;

// Buffer-identity groups observed at delivery: for each (sender, buffer
// pointer) of a given wire kind, which destinations received that exact
// buffer. One broadcast that serialized once shows up as a single group
// covering every destination.
struct ProbeGroups {
  std::map<std::pair<NodeId, const std::uint8_t*>, std::set<NodeId>> groups;
  // Holding a reference to every observed buffer keeps it alive, so the
  // allocator can never hand a later serialization the same address —
  // pointer identity stays a faithful buffer identity for the whole run.
  std::vector<Payload> retained;

  void attach(sim::Network& net, std::uint8_t kind) {
    net.set_delivery_probe(
        [this, kind](NodeId from, NodeId to, const Payload& p) {
          if (p.empty() || p[0] != kind) return;
          auto [it, inserted] = groups.try_emplace({from, p.data()});
          if (inserted) retained.push_back(p);
          it->second.insert(to);
        });
  }
};

constexpr auto kRequestKind =
    static_cast<std::uint8_t>(types::MsgKind::kClientRequest);
constexpr auto kProposalKind =
    static_cast<std::uint8_t>(types::MsgKind::kProposal);

// Every delivered buffer of the given kinds, one retained Payload each (see
// ProbeGroups on why retaining keeps pointer identity faithful).
struct BufferLog {
  std::map<const std::uint8_t*, Payload> buffers;

  void attach(sim::Network& net, std::set<std::uint8_t> kinds) {
    net.set_delivery_probe([this, kinds](NodeId, NodeId, const Payload& p) {
      if (!p.empty() && kinds.count(p[0]) != 0) {
        buffers.try_emplace(p.data(), p);
      }
    });
  }

  /// The logged buffer `slice` points into, or nullptr for a private copy.
  const Payload* owner_of(const PayloadSlice& slice) const {
    for (const auto& [ptr, p] : buffers) {
      if (slice.shares_buffer(p)) return &p;
    }
    return nullptr;
  }
};

types::ProposalMsg open_proposal(const Payload& frame) {
  auto env = types::Envelope::parse(frame);
  EXPECT_TRUE(env.is_ok());
  auto msg = types::open_envelope<types::ProposalMsg>(env.value());
  EXPECT_TRUE(msg.is_ok());
  return std::move(msg).take();
}

TEST(Fabric, BroadcastSharesOneBufferAcrossAllReceivers) {
  sim::Simulator sim(1);
  ClusterConfig cfg;
  cfg.f = 2;  // n = 7
  cfg.seed = 11;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  Cluster cluster(sim, cfg);

  ProbeGroups probe;
  probe.attach(cluster.network(), kProposalKind);

  cluster.start();
  sim.run_until(TimePoint::origin() + Duration::seconds(2));

  // At least one proposal broadcast must have reached all 7 replicas
  // through one shared buffer — i.e. it was serialized exactly once.
  bool found_full_group = false;
  for (const auto& [key, dests] : probe.groups) {
    if (dests.size() == cluster.n()) {
      found_full_group = true;
      break;
    }
  }
  EXPECT_TRUE(found_full_group)
      << "no proposal broadcast delivered one shared buffer to all "
      << cluster.n() << " replicas";
  EXPECT_GT(cluster.replica(0).metrics().counter("replica.committed_ops"), 0u);
}

TEST(Fabric, SharedPayloadStillCountsEveryLogicalFrame) {
  // Physical sharing must not change the traffic books: a payload sent to
  // three destinations counts three sends and three deliveries, with bytes
  // accounted per frame — identical to three independent copies.
  sim::Simulator sim(9);
  sim::NetConfig net_cfg;
  net_cfg.jitter = Duration::zero();
  sim::Network net(sim, net_cfg);
  struct Sink : sim::NetworkNode {
    int count = 0;
    void on_message(NodeId, Payload) override { ++count; }
  };
  Sink nodes[4];
  for (auto& n : nodes) net.add_node(&n);

  const Bytes frame(1000, 0x04);  // leading byte 4 = "vote" kind slot
  const Payload shared{Bytes(frame)};
  for (NodeId to = 1; to <= 3; ++to) net.send(0, to, shared);
  sim.run();

  EXPECT_EQ(net.stats(0).messages_sent, 3u);
  EXPECT_EQ(net.stats(0).bytes_sent, 3000u);
  EXPECT_EQ(net.stats(0).msgs_sent_by_kind[4], 3u);
  EXPECT_EQ(net.stats(0).bytes_sent_by_kind[4], 3000u);
  for (NodeId to = 1; to <= 3; ++to) {
    EXPECT_EQ(nodes[to].count, 1);
    EXPECT_EQ(net.stats(to).messages_delivered, 1u);
    EXPECT_EQ(net.stats(to).bytes_delivered, 1000u);
    EXPECT_EQ(net.stats(to).bytes_delivered_by_kind[4], 1000u);
  }
}

TEST(Fabric, EquivocatingLeaderCopiesOnWriteOnlyForTamperedPeers) {
  // Leader of view 1 (replica 1) equivocates: odd-id peers get a tampered
  // proposal (private buffer), everyone else keeps sharing the honest
  // serialization. The box mutates per destination, so one broadcast splits
  // into one shared group (self + even ids) plus per-odd-peer copies.
  sim::Simulator sim(1);
  ClusterConfig cfg;
  cfg.f = 2;  // n = 7; quorum 5 = leader + even ids, so view 1 makes progress
  cfg.seed = 23;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  Cluster cluster(sim, cfg);
  cluster.set_byzantine(1, faults::ByzantineMode::kEquivocate);

  ProbeGroups probe;
  probe.attach(cluster.network(), kProposalKind);

  cluster.start();
  sim.run_until(TimePoint::origin() + Duration::seconds(2));

  ASSERT_GT(cluster.replica(1).byzantine().interventions(), 0u)
      << "equivocation never triggered";

  // Find a broadcast where the honest buffer reached every even id (and
  // the leader itself) while the tampered odd ids are absent from it.
  const std::set<NodeId> honest_dests{0, 1, 2, 4, 6};
  bool found_cow_split = false;
  for (const auto& [key, dests] : probe.groups) {
    if (key.first != 1) continue;
    if (dests == honest_dests) {
      found_cow_split = true;
      break;
    }
  }
  EXPECT_TRUE(found_cow_split)
      << "no proposal broadcast from the equivocator split into the "
         "honest shared group {0,1,2,4,6}";
  // Odd peers still received proposals from the leader — via their own
  // (tampered) buffers.
  bool odd_received = false;
  for (const auto& [key, dests] : probe.groups) {
    if (key.first != 1) continue;
    if (dests.count(3) != 0 || dests.count(5) != 0) {
      EXPECT_TRUE(dests.count(0) == 0 && dests.count(2) == 0 &&
                  dests.count(4) == 0 && dests.count(6) == 0)
          << "a tampered buffer leaked to an honest-group destination";
      odd_received = true;
    }
  }
  EXPECT_TRUE(odd_received);
  EXPECT_FALSE(cluster.any_safety_violation());
}

TEST(Fabric, ReceiversAliasTheSendersBufferInPoolAndStore) {
  // Decoding copies nothing: an op pooled from a client-request broadcast,
  // and an op of a stored proposal, sit in the one buffer the sender
  // serialized — at the same address on every replica.
  sim::Simulator sim(1);
  ClusterConfig cfg;
  cfg.f = 2;  // n = 7
  cfg.seed = 11;
  cfg.clients.count = 1;
  cfg.clients.window = 4;
  Cluster cluster(sim, cfg);
  const std::uint32_t n = cluster.n();

  BufferLog log;
  log.attach(cluster.network(), {kRequestKind, kProposalKind});
  cluster.start();

  // Until the first requests sit in the followers' pools.
  auto pooled_everywhere = [&] {
    std::uint32_t holding = 0;
    for (ReplicaId r = 0; r < n; ++r) {
      bool any = false;
      cluster.replica(r).protocol().pool().for_each(
          [&](const types::Operation&) { any = true; });
      holding += any ? 1 : 0;
    }
    return holding >= n - 1;  // the leader may have drained its pool
  };
  for (int step = 0; step < 2000 && !pooled_everywhere(); ++step) {
    sim.run_until(sim.now() + Duration::millis(1));
  }
  ASSERT_TRUE(pooled_everywhere());
  std::map<RequestId, const std::uint8_t*> request_bytes;
  for (ReplicaId r = 0; r < n; ++r) {
    cluster.replica(r).protocol().pool().for_each(
        [&](const types::Operation& op) {
          const Payload* owner = log.owner_of(op.payload);
          ASSERT_NE(owner, nullptr) << "replica " << r << " copied op bytes";
          EXPECT_EQ((*owner)[0], kRequestKind);
          auto [it, first] = request_bytes.try_emplace(op.request,
                                                       op.payload.data());
          EXPECT_EQ(it->second, op.payload.data())
              << "replicas hold request " << op.request << " at two addresses";
        });
  }
  EXPECT_FALSE(request_bytes.empty());

  sim.run_until(TimePoint::origin() + Duration::seconds(2));
  ASSERT_FALSE(cluster.any_safety_violation());

  // The highest block with ops that every replica has committed.
  Height common = ~Height{0};
  for (ReplicaId r = 0; r < n; ++r) {
    common = std::min(common, cluster.replica(r).protocol().committed_height());
  }
  const auto& store0 = cluster.replica(0).protocol().store();
  Hash256 target = cluster.replica(0).protocol().committed_hash();
  while (true) {
    const types::Block* b = store0.get(target);
    ASSERT_NE(b, nullptr);
    ASSERT_FALSE(b->is_genesis()) << "no committed block carries ops";
    if (b->height <= common && !b->ops.empty()) break;
    target = store0.parent_of(target);
  }

  // Every replica holds the ops inside the leader's one proposal buffer —
  // the proposer too, which stores its block as decoded from that frame.
  std::map<const std::uint8_t*, std::uint32_t> proposal_holders;
  for (ReplicaId r = 0; r < n; ++r) {
    const types::Block* b = cluster.replica(r).protocol().store().get(target);
    ASSERT_NE(b, nullptr) << "replica " << r;
    ASSERT_FALSE(b->ops.empty()) << "replica " << r;
    const Payload* owner = log.owner_of(b->ops[0].payload);
    ASSERT_NE(owner, nullptr) << "replica " << r << " copied op bytes";
    if ((*owner)[0] == kProposalKind) ++proposal_holders[owner->data()];
    for (const types::Operation& op : b->ops) {
      EXPECT_TRUE(op.payload.shares_buffer(*owner)) << "replica " << r;
    }
  }
  ASSERT_EQ(proposal_holders.size(), 1u);
  EXPECT_EQ(proposal_holders.begin()->second, n);
}

TEST(Fabric, EquivocatedProposalGetsPrivateBufferAndOwnIdentity) {
  // Same equivocation as above. Each tampered frame is a private buffer
  // whose block hashes differently from its honest twin, and the
  // cross-replica digest memo never lets one answer for the other.
  sim::Simulator sim(1);
  ClusterConfig cfg;
  cfg.f = 2;
  cfg.seed = 23;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  Cluster cluster(sim, cfg);
  cluster.set_byzantine(1, faults::ByzantineMode::kEquivocate);

  ProbeGroups probe;
  probe.attach(cluster.network(), kProposalKind);
  cluster.start();
  sim.run_until(TimePoint::origin() + Duration::seconds(2));
  ASSERT_GT(cluster.replica(1).byzantine().interventions(), 0u);

  std::map<const std::uint8_t*, Payload> frames;
  for (const Payload& p : probe.retained) frames.emplace(p.data(), p);

  // Honest frames by (view, height) of their block.
  const std::set<NodeId> honest_dests{0, 1, 2, 4, 6};
  std::map<std::pair<ViewNumber, Height>, Payload> honest;
  for (const auto& [key, dests] : probe.groups) {
    if (key.first != 1 || dests != honest_dests) continue;
    const Payload& p = frames.at(key.second);
    const types::ProposalMsg m = open_proposal(p);
    if (m.entries.size() != 1) continue;
    honest.emplace(std::make_pair(m.view, m.entries[0].block.height), p);
  }
  ASSERT_FALSE(honest.empty());

  int pairs = 0;
  for (const auto& [key, dests] : probe.groups) {
    if (key.first != 1 || (dests.count(3) == 0 && dests.count(5) == 0)) {
      continue;
    }
    const Payload& p = frames.at(key.second);
    const types::ProposalMsg forged = open_proposal(p);
    ASSERT_EQ(forged.entries.size(), 1u);
    const types::Block& fb = forged.entries[0].block;
    auto twin = honest.find({forged.view, fb.height});
    if (twin == honest.end()) continue;
    ++pairs;
    EXPECT_FALSE(p.shares_buffer(twin->second));
    const types::ProposalMsg real = open_proposal(twin->second);
    const types::Block& hb = real.entries[0].block;
    // Hash the forged block first, then the honest one, then both again
    // through re-encoded copies (which bypass the memo entirely).
    const Hash256 forged_hash = fb.hash();
    const Hash256 honest_hash = hb.hash();
    EXPECT_NE(forged_hash, honest_hash);
    const types::Block fcopy = fb;
    const types::Block hcopy = hb;
    EXPECT_EQ(fcopy.hash(), forged_hash);
    EXPECT_EQ(hcopy.hash(), honest_hash);
    // The honest replicas know the block under its honest identity.
    EXPECT_TRUE(cluster.replica(0).protocol().store().contains(honest_hash));
    EXPECT_FALSE(cluster.replica(0).protocol().store().contains(forged_hash));
  }
  EXPECT_GT(pairs, 0);
  EXPECT_FALSE(cluster.any_safety_violation());
}

}  // namespace
}  // namespace marlin::runtime
