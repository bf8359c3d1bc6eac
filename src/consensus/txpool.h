// Per-replica mempool. Clients broadcast requests to every replica; the
// current leader drains batches from here, and commits prune entries on
// all replicas. Deduplication is by (client, request id); a per-client
// executed watermark drops stale re-submissions.
#pragma once

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "types/block.h"

namespace marlin::consensus {

class TxPool {
 public:
  /// Adds an operation; ignored when already pooled or already executed.
  /// `at` is the enqueue time, kept only for pool-wait attribution.
  void add(types::Operation op, TimePoint at = TimePoint::origin()) {
    ClientRecord& rec = record(op.client);
    if (rec.executed(op.request) || rec.pooled.contains(op.request)) return;
    rec.pooled.insert(op.request);
    queue_.push_back({std::move(op), at});
  }

  /// Pops up to `max_ops` operations for a new proposal, skipping any that
  /// committed since they were pooled.
  std::vector<types::Operation> next_batch(std::size_t max_ops) {
    std::vector<types::Operation> batch;
    batch.reserve(std::min(max_ops, queue_.size()));
    bool first = true;
    while (batch.size() < max_ops && !queue_.empty()) {
      Entry entry = std::move(queue_.front());
      queue_.pop_front();
      ClientRecord& rec = record(entry.op.client);
      rec.pooled.erase_oldest(entry.op.request);
      if (rec.executed(entry.op.request)) continue;
      if (first) {
        // FIFO order: the first surviving op has waited the longest.
        last_batch_oldest_ = entry.at;
        first = false;
      }
      batch.push_back(std::move(entry.op));
    }
    return batch;
  }

  /// Enqueue time of the oldest op in the last non-empty next_batch()
  /// result (origin before any batch was drained).
  TimePoint last_batch_oldest_enqueue() const { return last_batch_oldest_; }

  /// Marks a committed operation: advances the executed watermark and
  /// drops the pooled copy lazily (skipped at pop time, or by purge()).
  void mark_committed(const types::Operation& op) {
    ClientRecord& rec = record(op.client);
    if (!rec.any_executed || op.request > rec.watermark) {
      rec.watermark = op.request;
      rec.any_executed = true;
    }
  }

  bool executed(ClientId client, RequestId request) const {
    const std::size_t slot = slot_of(client);
    return slot != kNoSlot && records_[slot].executed(request);
  }

  /// Drops committed ops from the front of the queue. Commits arrive
  /// roughly in pool order, so this keeps the queue near its uncommitted
  /// size at O(1) amortized per op.
  void purge() {
    while (!queue_.empty()) {
      const types::Operation& op = queue_.front().op;
      ClientRecord& rec = record(op.client);
      if (!rec.executed(op.request)) break;
      rec.pooled.erase_oldest(op.request);
      queue_.pop_front();
    }
  }

  /// Pending (not-yet-committed) work, purged first.
  std::size_t pending() {
    purge();
    return queue_.size();
  }
  bool empty() {
    purge();
    return queue_.empty();
  }

  /// Visits every pooled op, oldest first (committed ones not yet purged
  /// included).
  template <typename F>
  void for_each(F&& visit) const {
    for (const Entry& e : queue_) visit(e.op);
  }

 private:
  struct Entry {
    types::Operation op;
    TimePoint at;  // enqueue time (observability only)
  };

  /// One client's pooled request ids, exact for any id. The queue is FIFO,
  /// so a client's ids leave in the order they arrived. Ids arriving in
  /// ascending order (clients number requests sequentially) form a sorted
  /// run with O(1) append and pop-front and binary-search lookup; an id at
  /// or below the run's tail (a retransmission, reordering) goes to an
  /// ordered overflow set. Every operation is O(log k) in the client's k
  /// pooled ids, whatever the arrival order.
  class PooledIds {
   public:
    bool contains(RequestId id) const {
      if (head_ < run_.size() && id >= run_[head_] && id <= run_.back() &&
          std::binary_search(run_.begin() + static_cast<std::ptrdiff_t>(head_),
                             run_.end(), id)) {
        return true;
      }
      return !overflow_.empty() && overflow_.contains(id);
    }

    /// `id` must not be present.
    void insert(RequestId id) {
      if (head_ == run_.size() || id > run_.back()) {
        if (run_.capacity() == 0) run_.reserve(kFirstRun);
        run_.push_back(id);
      } else {
        overflow_.insert(id);
      }
    }

    /// Removes `id`, which must be the client's oldest pooled id: either
    /// the run's head (every earlier run id has left) or in the overflow.
    void erase_oldest(RequestId id) {
      if (head_ < run_.size() && run_[head_] == id) {
        if (++head_ == run_.size()) {
          run_.clear();
          head_ = 0;
        } else if (head_ >= 64 && head_ * 2 >= run_.size()) {
          // Compact: moves fewer ids than were popped since the last one.
          run_.erase(run_.begin(),
                     run_.begin() + static_cast<std::ptrdiff_t>(head_));
          head_ = 0;
        }
        return;
      }
      overflow_.erase(id);
    }

   private:
    static constexpr std::size_t kFirstRun = 32;  // one allocation, not six
    std::vector<RequestId> run_;  // ascending; live from head_
    std::size_t head_ = 0;
    std::set<RequestId> overflow_;
  };

  /// Everything the pool keeps per client, in one place: consecutive ops
  /// of one client (a request frame carries a run of them) touch one
  /// record.
  struct ClientRecord {
    RequestId watermark = 0;  // highest executed request, if any_executed
    bool any_executed = false;
    PooledIds pooled;

    bool executed(RequestId request) const {
      return any_executed && request <= watermark;
    }
  };

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  std::size_t slot_of(ClientId client) const {
    if (cached_slot_ != kNoSlot && cached_client_ == client) {
      return cached_slot_;
    }
    auto it = slots_.find(client);
    if (it == slots_.end()) return kNoSlot;
    cached_client_ = client;
    cached_slot_ = it->second;
    return cached_slot_;
  }

  ClientRecord& record(ClientId client) {
    std::size_t slot = slot_of(client);
    if (slot == kNoSlot) {
      slot = records_.size();
      records_.emplace_back();
      slots_.emplace(client, slot);
      cached_client_ = client;
      cached_slot_ = slot;
    }
    return records_[slot];
  }

  std::deque<Entry> queue_;
  std::vector<ClientRecord> records_;  // one per client ever seen
  std::unordered_map<ClientId, std::size_t> slots_;  // client -> records_
  // Last record found: a frame's ops are one client's, so most lookups
  // stop here.
  mutable ClientId cached_client_ = 0;
  mutable std::size_t cached_slot_ = kNoSlot;
  TimePoint last_batch_oldest_;
};

}  // namespace marlin::consensus
