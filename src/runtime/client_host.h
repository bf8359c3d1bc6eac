// Closed-loop BFT client on either backend: keeps `window` requests
// outstanding, broadcasts each request to every replica, accepts a result
// once f+1 matching replies arrive (paper §III), records end-to-end
// latency, and retransmits on timeout (covers leader failure / dropped
// batches). The world comes in through a HostIo (host_io.h); sends happen
// outside any protocol task, so they leave the node immediately.
#pragma once

#include <atomic>
#include <deque>
#include <memory>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "runtime/host_io.h"
#include "types/messages.h"

namespace marlin::runtime {

/// Per-client wiring (one instance per client). The cluster-level knobs
/// shared by all clients live in runtime::ClientConfig (cluster.h).
struct ClientHostConfig {
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

class ClientHost final : public FrameHandler {
 public:
  /// Attaches `io`. `rng` fills request payloads; the caller owns the
  /// stream (the sim cluster forks client streams in id order, which the
  /// golden traces pin).
  ClientHost(std::unique_ptr<HostIo> io, ClientHostConfig config, Rng rng);

  /// Issues the first window of requests.
  void start();
  /// Stops issuing and retransmitting (shutdown sequencing: a quiesced
  /// client keeps accepting replies while replicas drain).
  void quiesce();

  void on_message(std::uint32_t from, Payload payload) override;

  /// On metal, read these only while the cluster is stopped.
  WindowedCounter& completed() { return completed_; }
  LatencyHistogram& latency() { return latency_; }
  std::uint64_t issued() const { return next_request_ - 1; }
  std::uint64_t in_flight() const { return live_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Requests completed so far; safe to read from any thread while a metal
  /// loop runs (progress polls).
  std::uint64_t completed_total() const { return completed_total_.load(); }

 private:
  struct Pending {
    TimePoint first_sent;
    PayloadSlice payload;  // kept for retransmission
    types::ReplyTally replies;
    TimerHandle retransmit;
    bool live = false;  // issued and not yet completed
  };

  /// The outstanding request `id`, or null when it completed (or was
  /// never issued).
  Pending* find_pending(RequestId id);
  void complete(Pending& p);
  void issue_next();
  void arm_retransmit(RequestId id);
  void flush_burst();

  std::unique_ptr<HostIo> io_;
  ClientHostConfig config_;
  std::uint32_t node_id_;  // n + id
  RequestId next_request_ = 1;
  // Requests window_base_ .. next_request_-1, indexed by id - window_base_:
  // ids are sequential, so a reply frame's ids land on neighbouring
  // entries. Completed entries stay (not live) until they reach the front.
  std::deque<Pending> window_;
  RequestId window_base_ = 1;
  std::uint64_t live_ = 0;
  std::vector<types::Operation> burst_;  // requests awaiting one flush
  WindowedCounter completed_;
  std::atomic<std::uint64_t> completed_total_{0};  // mirrors completed_
  LatencyHistogram latency_;
  std::uint64_t retransmissions_ = 0;
  bool quiesced_ = false;
  Rng rng_;
};

}  // namespace marlin::runtime
