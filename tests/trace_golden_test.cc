// Golden protocol traces: the exact consensus event sequence for a
// 4-replica happy-path commit is pinned for Marlin and HotStuff, and the
// full trace is byte-identical across same-seed runs (the determinism
// property the observability layer is designed around). Fault-driven runs
// (view changes, restarts, amnesia recovery, an equivocating leader, a
// partitioned replica catching up by fetch or by snapshot) are pinned by
// the SHA-256 of their full trace.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "consensus/hotstuff.h"
#include "consensus/marlin.h"
#include "crypto/sha256.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/cluster.h"

namespace marlin {
namespace {

using obs::EventType;
using obs::TraceEvent;
using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::ProtocolKind;
using faults::ByzantineMode;
using faults::FaultAction;

ClusterConfig tiny_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.consensus.protocol = protocol;
  cfg.clients.count = 1;
  cfg.clients.window = 4;
  cfg.clients.max_requests = 4;  // one block's worth, then quiesce
  cfg.consensus.pipelined = false;
  cfg.seed = 7;
  return cfg;
}

/// Runs the cluster for `secs` simulated seconds with a trace attached and
/// returns the full JSONL dump.
std::string run_traced(ClusterConfig cfg, int secs, obs::TraceSink* sink) {
  sim::Simulator sim(cfg.seed);
  cfg.trace = sink;
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(secs));
  EXPECT_FALSE(cluster.any_safety_violation());
  return obs::trace_to_jsonl(*sink);
}

bool is_consensus_event(EventType t) {
  switch (t) {
    case EventType::kProposalSent:
    case EventType::kProposalReceived:
    case EventType::kVoteSent:
    case EventType::kQcFormed:
    case EventType::kPhaseTransition:
    case EventType::kCommit:
      return true;
    default:
      return false;
  }
}

/// "type@node" labels of the consensus events up to and including the 4th
/// kCommit (every replica delivering the first block), in trace order.
std::vector<std::string> happy_path_sequence(
    const std::vector<TraceEvent>& events) {
  std::vector<std::string> out;
  int commits = 0;
  for (const TraceEvent& e : events) {
    if (!is_consensus_event(e.type)) continue;
    out.push_back(std::string(obs::event_type_name(e.type)) + "@" +
                  std::to_string(e.node));
    if (e.type == EventType::kCommit && ++commits == 4) break;
  }
  return out;
}

TEST(GoldenTrace, MarlinHappyPathCommitSequence) {
  obs::TraceSink sink;
  run_traced(tiny_config(ProtocolKind::kMarlin), 2, &sink);

  // Two-phase happy path, leader of view 1 is replica 1:
  //   proposal broadcast -> all accept + vote (prepare) -> leader forms the
  //   prepare QC and enters commit -> QC notice triggers commit votes ->
  //   commit QC -> decide -> every replica delivers the block. The node
  //   interleaving is fixed by the seed's network jitter.
  const std::vector<std::string> expected = {
      "proposal_sent@1",     "proposal_received@1", "vote_sent@1",
      "proposal_received@3", "vote_sent@3",         "proposal_received@0",
      "vote_sent@0",         "proposal_received@2", "vote_sent@2",
      "qc_formed@1",         "phase_transition@1",  "vote_sent@1",
      "vote_sent@2",         "vote_sent@0",         "vote_sent@3",
      "qc_formed@1",         "phase_transition@1",  "commit@1",
      "commit@0",            "commit@3",            "commit@2",
  };
  EXPECT_EQ(happy_path_sequence(sink.events()), expected);

  // The two QCs of the first block are a prepare QC then a commit QC.
  std::vector<std::uint8_t> qc_phases;
  for (const TraceEvent& e : sink.events()) {
    if (e.type == EventType::kQcFormed && qc_phases.size() < 2) {
      qc_phases.push_back(e.phase);
    }
  }
  ASSERT_EQ(qc_phases.size(), 2u);
  EXPECT_STREQ(obs::trace_phase_name(qc_phases[0]), "prepare");
  EXPECT_STREQ(obs::trace_phase_name(qc_phases[1]), "commit");
}

TEST(GoldenTrace, HotStuffHappyPathCommitSequence) {
  obs::TraceSink sink;
  run_traced(tiny_config(ProtocolKind::kHotStuff), 2, &sink);

  // Three-phase happy path: prepare -> pre-commit -> commit -> decide, one
  // vote round per phase before any replica delivers. The node interleaving
  // is fixed by the seed's network jitter.
  const std::vector<std::string> expected = {
      "proposal_sent@1",     "proposal_received@1", "vote_sent@1",
      "proposal_received@3", "vote_sent@3",         "proposal_received@0",
      "vote_sent@0",         "proposal_received@2", "vote_sent@2",
      "qc_formed@1",         "phase_transition@1",  "vote_sent@1",
      "vote_sent@2",         "vote_sent@0",         "vote_sent@3",
      "qc_formed@1",         "phase_transition@1",  "vote_sent@1",
      "vote_sent@0",         "vote_sent@3",         "vote_sent@2",
      "qc_formed@1",         "phase_transition@1",  "commit@1",
      "commit@0",            "commit@3",            "commit@2",
  };
  EXPECT_EQ(happy_path_sequence(sink.events()), expected);

  std::vector<std::uint8_t> qc_phases;
  for (const TraceEvent& e : sink.events()) {
    if (e.type == EventType::kQcFormed && qc_phases.size() < 3) {
      qc_phases.push_back(e.phase);
    }
  }
  ASSERT_EQ(qc_phases.size(), 3u);
  EXPECT_STREQ(obs::trace_phase_name(qc_phases[0]), "prepare");
  EXPECT_STREQ(obs::trace_phase_name(qc_phases[1]), "precommit");
  EXPECT_STREQ(obs::trace_phase_name(qc_phases[2]), "commit");
}

TEST(GoldenTrace, SameSeedTracesAreByteIdentical) {
  for (ProtocolKind protocol :
       {ProtocolKind::kMarlin, ProtocolKind::kHotStuff}) {
    obs::TraceSink a_sink, b_sink;
    const std::string a =
        run_traced(tiny_config(protocol), 3, &a_sink);
    const std::string b =
        run_traced(tiny_config(protocol), 3, &b_sink);
    EXPECT_GT(a_sink.size(), 0u);
    EXPECT_EQ(a, b) << "protocol " << static_cast<int>(protocol);
  }
}

TEST(GoldenTrace, DifferentSeedsDiverge) {
  obs::TraceSink a_sink, b_sink;
  ClusterConfig cfg = tiny_config(ProtocolKind::kMarlin);
  // Full load (no request cap) so seed-dependent client timing shows up.
  cfg.clients.max_requests = 0;
  const std::string a = run_traced(cfg, 3, &a_sink);
  cfg.seed = 8;
  const std::string b = run_traced(cfg, 3, &b_sink);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Non-happy paths: full-trace fingerprints
// ---------------------------------------------------------------------------

ClusterConfig faulted_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.seed = 11;
  cfg.consensus.protocol = protocol;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  return cfg;
}

using CoverageCheck =
    std::function<void(Cluster&, const std::vector<TraceEvent>&)>;

/// Runs `cfg` (its fault plan included) for `secs` simulated seconds and
/// returns the hex SHA-256 of the full JSONL trace. `covered` asserts that
/// the run really went down the path its pin is meant to cover.
std::string trace_fingerprint(ClusterConfig cfg, int secs,
                              const CoverageCheck& covered) {
  obs::TraceSink sink{1u << 20};
  sim::Simulator sim(cfg.seed);
  cfg.trace = &sink;
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(secs));
  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_EQ(sink.size(), sink.total_recorded()) << "trace ring evicted";
  covered(cluster, sink.events());
  const std::string jsonl = obs::trace_to_jsonl(sink);
  return crypto::Sha256::digest(
             BytesView(reinterpret_cast<const std::uint8_t*>(jsonl.data()),
                       jsonl.size()))
      .to_hex();
}

std::uint64_t sum_over_replicas(
    Cluster& cluster,
    const std::function<std::uint64_t(runtime::ReplicaHost&)>& f) {
  std::uint64_t total = 0;
  for (ReplicaId i = 0; i < cluster.n(); ++i) total += f(cluster.replica(i));
  return total;
}

/// A snapshot suffix was applied by `node` (kStateTransfer a == 2).
bool snapshot_applied(const std::vector<TraceEvent>& events, ReplicaId node) {
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kStateTransfer && e.a == 2 && e.node == node) {
      return true;
    }
  }
  return false;
}

ClusterConfig restart_and_wipe(ProtocolKind protocol) {
  ClusterConfig cfg = faulted_config(protocol);
  cfg.faults.actions = {
      FaultAction::restart(Duration::millis(800), 2, Duration::millis(400)),
      FaultAction::wipe_disk(Duration::millis(1800), 3, Duration::millis(600)),
  };
  return cfg;
}

ClusterConfig equivocating_leader(ProtocolKind protocol) {
  ClusterConfig cfg = faulted_config(protocol);
  cfg.faults.actions = {
      FaultAction::byzantine(Duration::zero(), 1, ByzantineMode::kEquivocate),
  };
  return cfg;
}

// Replica 2 restarted from disk; replica 3 revived amnesiac and re-anchored
// on a peer's snapshot (adopt_recovery_tip).
void check_restart_and_wipe(Cluster& c, const std::vector<TraceEvent>& ev) {
  EXPECT_GT(c.replica(2).restarts(), 0u);
  EXPECT_GT(c.replica(3).restarts(), 0u);
  EXPECT_TRUE(snapshot_applied(ev, 3));
  EXPECT_FALSE(c.replica(3).protocol().recovering());
}

/// Replica 3 is cut off from the rest for `cut_for`, then rejoins and
/// catches up through the fetch plane. A shorter `one_way_delay` commits
/// more blocks per second, so the same cut leaves a wider gap.
ClusterConfig partition_and_heal(ProtocolKind protocol, Duration cut_for,
                                 Duration one_way_delay) {
  ClusterConfig cfg = faulted_config(protocol);
  cfg.net.one_way_delay = one_way_delay;
  const Duration at = Duration::millis(800);
  cfg.faults.actions = {
      FaultAction::partition(at, {{0, 1, 2}, {3}}),
      FaultAction::heal(at + cut_for),
  };
  return cfg;
}

/// Wire sends of `kind` by `node` (kMsgSent events).
std::size_t sends_of_kind(const std::vector<TraceEvent>& events,
                          ReplicaId node, types::MsgKind kind) {
  std::size_t count = 0;
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kMsgSent && e.node == node &&
        e.kind == static_cast<std::uint8_t>(kind)) {
      ++count;
    }
  }
  return count;
}

// A short cut: replica 3 lags by less than one fetch batch and closes the
// gap with FetchResponses alone.
void check_fetch_catch_up(Cluster& c, const std::vector<TraceEvent>& ev) {
  EXPECT_GT(sends_of_kind(ev, 3, types::MsgKind::kFetchRequest), 0u);
  EXPECT_FALSE(snapshot_applied(ev, 3));
  EXPECT_EQ(c.replica(3).protocol().committed_height(),
            c.replica(0).protocol().committed_height());
}

// A long cut: replica 3's fetch finds the provider more than one batch
// ahead, and the provider answers it with a snapshot.
void check_snapshot_catch_up(Cluster& c, const std::vector<TraceEvent>& ev) {
  EXPECT_GT(sends_of_kind(ev, 3, types::MsgKind::kFetchRequest), 0u);
  EXPECT_TRUE(snapshot_applied(ev, 3));
  EXPECT_GT(c.replica(3).protocol().committed_height(), 0u);
}

void check_equivocation(Cluster& c, const std::vector<TraceEvent>&) {
  EXPECT_GT(c.replica(1).byzantine().interventions(), 0u);
  EXPECT_GT(c.min_committed_height(), 0u);
}

// The pinned digests must only change with a deliberate change of
// protocol behaviour; a refactor of the consensus code keeps them.
TEST(GoldenTrace, NonHappyPathFingerprints) {
  ClusterConfig marlin_crash = faulted_config(ProtocolKind::kMarlin);
  marlin_crash.faults.actions = {
      FaultAction::crash_leader(Duration::seconds(1))};
  ClusterConfig marlin_unhappy = marlin_crash;
  marlin_unhappy.consensus.disable_happy_path = true;
  ClusterConfig hotstuff_crash = faulted_config(ProtocolKind::kHotStuff);
  hotstuff_crash.faults.actions = marlin_crash.faults.actions;

  struct Case {
    const char* name;
    ClusterConfig cfg;
    int secs;
    CoverageCheck covered;
    const char* sha256;
  };
  const std::vector<Case> cases = {
      {"marlin-happy-vc", marlin_crash, 4,
       [](Cluster& c, const std::vector<TraceEvent>&) {
         EXPECT_GT(sum_over_replicas(c, [](runtime::ReplicaHost& r) {
                     return r.marlin()->happy_view_changes();
                   }),
                   0u);
       },
       "501bf9840c8242e52bbad7f46f21f080783290dc9ea2e6a38fe8e6d680e87a1f"},
      {"marlin-unhappy-vc", marlin_unhappy, 4,
       [](Cluster& c, const std::vector<TraceEvent>&) {
         EXPECT_GT(sum_over_replicas(c, [](runtime::ReplicaHost& r) {
                     return r.marlin()->unhappy_view_changes();
                   }),
                   0u);
       },
       "e3e708066e895741390b6c73d2f5ca80f3337c1de58a0e8ada493607999033f8"},
      {"hotstuff-new-view", hotstuff_crash, 4,
       [](Cluster& c, const std::vector<TraceEvent>&) {
         EXPECT_GT(sum_over_replicas(c, [](runtime::ReplicaHost& r) {
                     return r.hotstuff()->view_changes_led();
                   }),
                   0u);
       },
       "3e2acfb55b5d3c8c12a335a9c741b235cc9c82228ada8a42d530de591d662932"},
      {"marlin-restart-wipe", restart_and_wipe(ProtocolKind::kMarlin), 4,
       check_restart_and_wipe,
       "d309409844410364c7fbb9443813348816d25b182aba7320229c59541f86e83c"},
      {"hotstuff-restart-wipe", restart_and_wipe(ProtocolKind::kHotStuff), 4,
       check_restart_and_wipe,
       "81237e33895356033b25c19667008665442edfc1fc156d5be22ce944d7eebb7a"},
      {"marlin-equivocate", equivocating_leader(ProtocolKind::kMarlin), 3,
       check_equivocation,
       "01e8e12ebab06924f56ea09b1ac2ad2aae25f3f6561c139c1e6ae7af42d8e29f"},
      {"hotstuff-equivocate", equivocating_leader(ProtocolKind::kHotStuff), 3,
       check_equivocation,
       "fa03fbc96db1aa8e38a6834117f1e22ff1f00879c3a90cd7f341f258c60e5e54"},
      {"marlin-fetch",
       partition_and_heal(ProtocolKind::kMarlin, Duration::millis(100),
                          Duration::millis(40)),
       3, check_fetch_catch_up,
       "fc2368c7dd64dc0465be1d1e348c064238cc8cb2097b684225a95d5c4d34a966"},
      {"hotstuff-fetch",
       partition_and_heal(ProtocolKind::kHotStuff, Duration::millis(100),
                          Duration::millis(40)),
       3, check_fetch_catch_up,
       "17a06d0a43978f4f0762be33fc145e3e7e9c22764e84f37e87f1a36e8c6150a6"},
      {"marlin-fetch-snapshot",
       partition_and_heal(ProtocolKind::kMarlin, Duration::millis(2000),
                          Duration::millis(5)),
       4, check_snapshot_catch_up,
       "792109ba71f7f2a25902537244c44752f9aa764f17e5b87fed1f82354f4dab14"},
      {"hotstuff-fetch-snapshot",
       partition_and_heal(ProtocolKind::kHotStuff, Duration::millis(2000),
                          Duration::millis(5)),
       4, check_snapshot_catch_up,
       "b9e953a4eb252ee2555610ffecae2ba58b9dae82b609073b9420c353f59a3660"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(trace_fingerprint(c.cfg, c.secs, c.covered), c.sha256);
  }
}

}  // namespace
}  // namespace marlin
