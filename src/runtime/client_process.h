// Closed-loop BFT client: keeps `window` requests outstanding, broadcasts
// each request to every replica, accepts a result once f+1 matching replies
// arrive (paper §III), records end-to-end latency, and retransmits on
// timeout (covers leader failure / dropped batches).
#pragma once

#include <map>

#include "common/histogram.h"
#include "common/ids.h"
#include "obs/trace.h"
#include "simnet/network.h"
#include "types/messages.h"

namespace marlin::runtime {

/// Per-process client wiring (one instance per client). The cluster-level
/// knobs shared by all clients live in runtime::ClientConfig (cluster.h).
struct ClientProcessConfig {
  ClientId id = 0;
  QuorumParams quorum;
  /// Outstanding requests kept in flight (closed loop).
  std::uint32_t window = 1;
  /// Request payload size in bytes (0 = the paper's no-op mode).
  std::size_t payload_size = 150;
  Duration retransmit_timeout = Duration::seconds(4);
  /// Stop issuing new requests after this many (0 = unlimited).
  std::uint64_t max_requests = 0;
  /// Records kClientSubmit / kReplyAccepted when set (non-owning).
  obs::TraceSink* trace = nullptr;
};

class ClientProcess final : public sim::NetworkNode {
 public:
  /// `sched` is the client's home scheduler; `rng` jitters the paced
  /// request stream. The caller owns the rng fork order — Cluster forks
  /// client streams in id order, which the golden traces pin.
  ClientProcess(marlin::Scheduler& sched, sim::Network& net,
                ClientProcessConfig config, Rng rng);

  sim::NodeId attach();
  void start();

  void on_message(sim::NodeId from, Payload payload) override;

  WindowedCounter& completed() { return completed_; }
  LatencyHistogram& latency() { return latency_; }
  std::uint64_t issued() const { return next_request_ - 1; }
  std::uint64_t in_flight() const { return pending_.size(); }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Pending {
    TimePoint first_sent;
    PayloadSlice payload;  // kept for retransmission
    types::ReplyTally replies;
    sim::TimerHandle retransmit;
  };

  void issue_next();
  void arm_retransmit(RequestId id);
  void flush_burst();
  Bytes payload_for(RequestId id);

  marlin::Scheduler& sim_;
  sim::Network& net_;
  ClientProcessConfig config_;
  sim::NodeId node_id_ = 0;
  RequestId next_request_ = 1;
  std::map<RequestId, Pending> pending_;
  std::vector<types::Operation> burst_;  // requests awaiting one flush
  WindowedCounter completed_;
  LatencyHistogram latency_;
  std::uint64_t retransmissions_ = 0;
  Rng rng_;
};

}  // namespace marlin::runtime
