// Closed-loop BFT client on the real runtime: same protocol behaviour as
// runtime::ClientProcess (broadcast each request to all replicas, accept on
// f+1 matching replies, retransmit on timeout), with wheel timers and TCP
// sends in place of simulator events. Runs on its node's EventLoop thread.
#pragma once

#include <atomic>
#include <map>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "realnet/tcp_transport.h"
#include "types/messages.h"

namespace marlin::realnet {

struct RealClientConfig {
  ClientId id = 0;
  QuorumParams quorum;
  std::uint32_t window = 1;
  std::size_t payload_size = 150;
  Duration retransmit_timeout = Duration::seconds(4);
  /// Stop issuing new requests after this many (0 = unlimited).
  std::uint64_t max_requests = 0;
  /// Payload entropy seed (cluster seed + client id keeps runs repeatable).
  std::uint64_t rng_seed = 1;
  obs::TraceSink* trace = nullptr;
};

class RealClient {
 public:
  RealClient(EventLoop& loop, TcpTransport& transport, RealClientConfig config)
      : loop_(loop),
        transport_(transport),
        config_(config),
        rng_(config.rng_seed) {}

  /// Issues the first window of requests. Loop thread only.
  void start();

  /// Transport ingress (wired by the cluster). Loop thread only.
  void on_message(std::uint32_t from, Payload payload);

  /// Stops issuing and retransmitting (shutdown sequencing: quiesced
  /// clients keep accepting replies while replicas drain). Loop thread.
  void quiesce();

  /// Loop-thread state: read it only while the cluster is stopped.
  WindowedCounter& completed() { return completed_; }
  /// Requests completed so far; safe to read from any thread while the
  /// loop runs.
  std::uint64_t completed_total() const {
    return completed_total_.load();
  }
  LatencyHistogram& latency() { return latency_; }
  std::uint64_t issued() const { return next_request_ - 1; }
  std::uint64_t in_flight() const { return pending_.size(); }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Pending {
    TimePoint first_sent;
    PayloadSlice payload;  // kept for retransmission
    types::ReplyTally replies;
    TimerHandle retransmit;
  };

  void issue_next();
  void arm_retransmit(RequestId id);
  void flush_burst();

  EventLoop& loop_;
  TcpTransport& transport_;
  RealClientConfig config_;
  RequestId next_request_ = 1;
  std::map<RequestId, Pending> pending_;
  std::vector<types::Operation> burst_;  // requests awaiting one flush
  WindowedCounter completed_;
  std::atomic<std::uint64_t> completed_total_{0};  // mirrors completed_
  LatencyHistogram latency_;
  std::uint64_t retransmissions_ = 0;
  bool quiesced_ = false;
  Rng rng_;
};

}  // namespace marlin::realnet
