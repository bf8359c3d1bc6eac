#include "runtime/client_host.h"

#include <algorithm>

namespace marlin::runtime {

ClientHost::ClientHost(std::unique_ptr<HostIo> io, ClientHostConfig config,
                       Rng rng)
    : io_(std::move(io)),
      config_(config),
      node_id_(config.quorum.n + config.id),
      rng_(std::move(rng)) {
  io_->attach(*this);
}

void ClientHost::start() {
  for (std::uint32_t i = 0; i < config_.window; ++i) issue_next();
  flush_burst();
}

void ClientHost::quiesce() {
  quiesced_ = true;
  for (Pending& p : window_) p.retransmit.cancel();
}

ClientHost::Pending* ClientHost::find_pending(RequestId id) {
  if (id < window_base_ || id - window_base_ >= window_.size()) return nullptr;
  Pending& p = window_[id - window_base_];
  return p.live ? &p : nullptr;
}

void ClientHost::complete(Pending& p) {
  p.retransmit.cancel();
  p = Pending{};  // drops the payload and the tally now
  --live_;
  while (!window_.empty() && !window_.front().live) {
    window_.pop_front();
    ++window_base_;
  }
}

void ClientHost::issue_next() {
  if (quiesced_) return;
  if (config_.max_requests != 0 && next_request_ > config_.max_requests) {
    return;
  }
  const RequestId id = next_request_++;
  Pending& p = window_.emplace_back();
  p.live = true;
  ++live_;
  p.first_sent = io_->now();
  p.payload = rng_.next_bytes(config_.payload_size);
  p.replies.expect(config_.quorum.reply_quorum());
  burst_.push_back(types::Operation{config_.id, id, p.payload});
  if (config_.trace) {
    // First issue only; retransmissions reuse the original submit time.
    config_.trace->record({.node = node_id_,
                           .type = obs::EventType::kClientSubmit,
                           .a = id,
                           .b = config_.id});
  }
  arm_retransmit(id);
}

void ClientHost::arm_retransmit(RequestId id) {
  if (quiesced_) return;
  Pending* p = find_pending(id);
  if (p == nullptr) return;
  p->retransmit.cancel();
  p->retransmit = io_->after(config_.retransmit_timeout, [this, id] {
    Pending* again = find_pending(id);
    if (again == nullptr) return;
    ++retransmissions_;
    burst_.push_back(types::Operation{config_.id, id, again->payload});
    flush_burst();
    arm_retransmit(id);
  });
}

/// Sends every buffered request (issued within the current event) as one
/// frame to each replica.
void ClientHost::flush_burst() {
  if (burst_.empty()) return;
  types::ClientRequestMsg msg;
  msg.ops = std::move(burst_);
  burst_.clear();
  // Serialize once; every replica's in-flight copy shares the same buffer.
  const Payload wire =
      types::make_envelope(types::MsgKind::kClientRequest, msg).wire();
  for (ReplicaId r = 0; r < config_.quorum.n; ++r) io_->send(r, wire);
}

void ClientHost::on_message(std::uint32_t from, Payload payload) {
  (void)from;
  auto env = types::Envelope::parse(payload);
  if (!env.is_ok() || env.value().kind != types::MsgKind::kClientReply) return;
  auto reply = types::open_envelope<types::ClientReplyMsg>(env.value());
  if (!reply.is_ok()) return;
  const types::ClientReplyMsg& m = reply.value();
  if (m.client != config_.id) return;

  for (RequestId id : m.requests) {
    Pending* p = find_pending(id);
    if (p == nullptr) continue;
    if (p->replies.add(m.replica, m.result) <
        config_.quorum.reply_quorum()) {
      continue;
    }

    const TimePoint now = io_->now();
    latency_.record(now - p->first_sent);
    completed_.record(now);
    ++completed_total_;
    if (config_.trace) {
      // The reply result carries the committing block's leading 8 hash
      // bytes — the same compact id replicas stamp on their trace events.
      std::uint64_t block_id = 0;
      const std::size_t n = std::min<std::size_t>(m.result.size(), 8);
      for (std::size_t i = 0; i < n; ++i) {
        block_id = (block_id << 8) | m.result[i];
      }
      config_.trace->record({.node = node_id_,
                             .type = obs::EventType::kReplyAccepted,
                             .view = m.view,
                             .height = m.height,
                             .block = block_id,
                             .a = id,
                             .b = config_.id});
    }
    complete(*p);
    issue_next();
  }
  flush_burst();
}

}  // namespace marlin::runtime
