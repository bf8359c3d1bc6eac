// Tests for the threshold-signature instantiation of quorum certificates
// (paper §III): suite-level combine/verify, protocol runs with constant-
// size QCs, wire-size comparison against signature groups, and full
// simulated-cluster operation including view changes.
#include <gtest/gtest.h>

#include "protocol_harness.h"
#include "runtime/experiment.h"

namespace marlin {
namespace {

using consensus::testing::BusMessage;
using consensus::testing::Kind;
using consensus::testing::op_of;
using consensus::testing::peek;
using consensus::testing::ProtocolHarness;

// ---------------------------------------------------------------------------
// Suite-level combine / verify
// ---------------------------------------------------------------------------

class ThresholdSuite : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = crypto::make_fast_suite(7, to_bytes("th"));
    msg_ = to_bytes("digest under test");
  }

  std::pair<ReplicaId, Bytes> share(ReplicaId r) {
    return {r, suite_->signer(r)->sign(msg_)};
  }

  std::unique_ptr<crypto::SignatureSuite> suite_;
  Bytes msg_;
};

TEST_F(ThresholdSuite, CombineAndVerify) {
  auto combined = suite_->threshold_combine(
      msg_, {share(0), share(1), share(2), share(3), share(4)}, 5);
  ASSERT_TRUE(combined.has_value());
  EXPECT_EQ(combined->size(), crypto::kSignatureSize);
  EXPECT_TRUE(suite_->threshold_verify(msg_, *combined));
}

TEST_F(ThresholdSuite, BelowThresholdFails) {
  EXPECT_FALSE(
      suite_->threshold_combine(msg_, {share(0), share(1)}, 3).has_value());
}

TEST_F(ThresholdSuite, InvalidSharesDoNotCount) {
  auto bad = share(2);
  bad.second[0] ^= 0x01;
  EXPECT_FALSE(
      suite_->threshold_combine(msg_, {share(0), share(1), bad}, 3)
          .has_value());
}

TEST_F(ThresholdSuite, DuplicateSharesDoNotCount) {
  EXPECT_FALSE(
      suite_->threshold_combine(msg_, {share(0), share(0), share(0)}, 3)
          .has_value());
}

TEST_F(ThresholdSuite, VerifyRejectsWrongMessage) {
  auto combined =
      suite_->threshold_combine(msg_, {share(0), share(1), share(2)}, 3);
  ASSERT_TRUE(combined.has_value());
  EXPECT_FALSE(suite_->threshold_verify(to_bytes("other"), *combined));
}

TEST_F(ThresholdSuite, VerifyRejectsTamperedSignature) {
  auto combined =
      suite_->threshold_combine(msg_, {share(0), share(1), share(2)}, 3);
  ASSERT_TRUE(combined.has_value());
  (*combined)[10] ^= 0xff;
  EXPECT_FALSE(suite_->threshold_verify(msg_, *combined));
}

TEST_F(ThresholdSuite, EcdsaSuiteSupportsThresholdToo) {
  auto ecdsa = crypto::make_ecdsa_suite(4, to_bytes("th-ecdsa"));
  const Bytes m = to_bytes("m");
  std::vector<std::pair<ReplicaId, Bytes>> parts;
  for (ReplicaId r = 0; r < 3; ++r) {
    parts.emplace_back(r, ecdsa->signer(r)->sign(m));
  }
  auto combined = ecdsa->threshold_combine(m, parts, 3);
  ASSERT_TRUE(combined.has_value());
  EXPECT_TRUE(ecdsa->threshold_verify(m, *combined));
}

// ---------------------------------------------------------------------------
// Protocol behaviour in threshold mode
// ---------------------------------------------------------------------------

class ThresholdProtocol : public ::testing::TestWithParam<Kind> {};

INSTANTIATE_TEST_SUITE_P(Protocols, ThresholdProtocol,
                         ::testing::Values(Kind::kMarlin, Kind::kHotStuff),
                         [](const auto& info) {
                           return info.param == Kind::kMarlin ? "Marlin"
                                                              : "HotStuff";
                         });

TEST_P(ThresholdProtocol, CommitsWithConstantSizeQcs) {
  consensus::ReplicaConfig cfg;
  cfg.use_threshold_sigs = true;
  ProtocolHarness h(GetParam(), 1, cfg);

  bool saw_threshold_qc = false;
  bool saw_group_qc = false;
  h.set_drop([&](const BusMessage& m) {
    if (auto n = peek<types::QcNoticeMsg>(m, types::MsgKind::kQcNotice)) {
      if (n->qc.is_threshold_form()) {
        saw_threshold_qc = true;
      } else if (!n->qc.sigs.parts.empty()) {
        saw_group_qc = true;
      }
    }
    return false;
  });

  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).committed_height(), 1u) << "replica " << r;
  }
  EXPECT_TRUE(saw_threshold_qc);
  EXPECT_FALSE(saw_group_qc);
  EXPECT_TRUE(h.all_consistent());
}

TEST_P(ThresholdProtocol, ViewChangeWorksInThresholdMode) {
  consensus::ReplicaConfig cfg;
  cfg.use_threshold_sigs = true;
  ProtocolHarness h(GetParam(), 1, cfg);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.crash(1);
  h.submit_to_all(op_of(1, 2));
  h.timeout(0);
  h.timeout(2);
  h.timeout(3);
  h.deliver_all();
  for (ReplicaId r : {0u, 2u, 3u}) {
    EXPECT_EQ(h.replica(r).committed_height(), 2u) << "replica " << r;
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(ThresholdProtocolMarlin, UnhappyViewChangeInThresholdMode) {
  consensus::ReplicaConfig cfg;
  cfg.use_threshold_sigs = true;
  cfg.disable_happy_path = true;
  ProtocolHarness h(Kind::kMarlin, 1, cfg);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.submit_to_all(op_of(1, 2));
  h.timeout_all();
  h.deliver_all();
  EXPECT_EQ(h.marlin(2).unhappy_view_changes(), 1u);
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).committed_height(), 2u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(ThresholdWireSize, QcsShrinkAtScale) {
  // The bandwidth argument: a 31-replica sig-group QC carries 21
  // signatures; the threshold form always carries one.
  auto wire_size = [](bool threshold, std::uint32_t f) {
    consensus::ReplicaConfig cfg;
    cfg.use_threshold_sigs = threshold;
    ProtocolHarness h(Kind::kMarlin, f, cfg);
    std::size_t commit_notice_bytes = 0;
    h.set_drop([&](const BusMessage& m) {
      if (auto n = peek<types::QcNoticeMsg>(m, types::MsgKind::kQcNotice)) {
        if (n->phase == types::Phase::kCommit && commit_notice_bytes == 0) {
          commit_notice_bytes = m.envelope.wire().size();
        }
      }
      return false;
    });
    h.start_all();
    h.submit_to_all(op_of(1, 1));
    h.deliver_all();
    return commit_notice_bytes;
  };
  const std::size_t group_f3 = wire_size(false, 3);    // n=10, quorum 7
  const std::size_t threshold_f3 = wire_size(true, 3);
  ASSERT_GT(group_f3, 0u);
  ASSERT_GT(threshold_f3, 0u);
  EXPECT_GT(group_f3, threshold_f3 + 5 * crypto::kSignatureSize);
  // And the threshold form's size is ~independent of n.
  EXPECT_NEAR(static_cast<double>(wire_size(true, 1)),
              static_cast<double>(threshold_f3), 16.0);
}

// ---------------------------------------------------------------------------
// Simulated cluster in threshold mode (costs charged)
// ---------------------------------------------------------------------------

TEST(ThresholdCluster, RunsEndToEndAndPairingCostsBite) {
  auto run = [](bool threshold) {
    runtime::ClusterConfig cfg;
    cfg.f = 1;
    cfg.clients.count = 8;
    cfg.clients.window = 32;
    cfg.consensus.max_batch_ops = 200;  // small blocks → QC costs dominate
    cfg.consensus.use_threshold_sigs = threshold;
    cfg.seed = 77;
    return runtime::run_experiment(runtime::throughput_options(
        cfg, Duration::seconds(2), Duration::seconds(6)));
  };
  const auto group = run(false);
  const auto threshold = run(true);
  EXPECT_TRUE(group.safety_ok);
  EXPECT_TRUE(threshold.safety_ok);
  EXPECT_GT(threshold.throughput_ops, 10.0);
  // At n = 4 with fast links, pairing costs make threshold mode slower —
  // the paper's observation for small n.
  EXPECT_GT(group.throughput_ops, threshold.throughput_ops);
}

}  // namespace
}  // namespace marlin
