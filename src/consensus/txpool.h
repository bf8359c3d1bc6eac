// Per-replica mempool. Clients broadcast requests to every replica; the
// current leader drains batches from here, and commits prune entries on
// all replicas. Deduplication is by (client, request id); a per-client
// executed watermark drops stale re-submissions.
#pragma once

#include <deque>
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
    const std::uint64_t key = op_key(op);
    if (pooled_.contains(key)) return;
    auto it = executed_.find(op.client);
    if (it != executed_.end() && op.request <= it->second) return;
    pooled_.insert(key);
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
      pooled_.erase(op_key(entry.op));
      auto it = executed_.find(entry.op.client);
      if (it != executed_.end() && entry.op.request <= it->second) continue;
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
  /// drops the pooled copy lazily (skipped at pop time).
  void mark_committed(const types::Operation& op) {
    auto [it, inserted] = executed_.try_emplace(op.client, op.request);
    if (!inserted && op.request > it->second) it->second = op.request;
  }

  bool executed(ClientId client, RequestId request) const {
    auto it = executed_.find(client);
    return it != executed_.end() && request <= it->second;
  }

  /// Pending (not-yet-committed) work. Commits arrive roughly in pool
  /// order, so purging stale entries from the front keeps these accurate
  /// at O(1) amortized.
  std::size_t pending() {
    purge_front();
    return queue_.size();
  }
  bool empty() {
    purge_front();
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

  void purge_front() {
    while (!queue_.empty()) {
      const types::Operation& op = queue_.front().op;
      if (!executed(op.client, op.request)) break;
      pooled_.erase(op_key(op));
      queue_.pop_front();
    }
  }

  static std::uint64_t op_key(const types::Operation& op) {
    // Clients issue sequential ids; (client, request) packs into 64 bits
    // for the life of any experiment.
    return static_cast<std::uint64_t>(op.client) << 40 | op.request;
  }

  /// Dedup keys of pooled ops in one open-addressing table (linear
  /// probing, tombstones): each op inserts and erases one key, and a
  /// node-based set would allocate for every one. The table allocates only
  /// when it grows or sweeps its tombstones, and keeps its load at most
  /// 3/4, so every probe ends at an empty slot.
  class KeySet {
   public:
    bool contains(std::uint64_t key) const {
      if (slots_.empty()) return false;
      for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        const Slot& s = slots_[i];
        if (s.state == kEmpty) return false;
        if (s.state == kFull && s.key == key) return true;
      }
    }

    /// `key` must not be present.
    void insert(std::uint64_t key) {
      if ((used_ + 1) * 4 > slots_.size() * 3) rebuild();
      std::size_t i = home(key);
      while (slots_[i].state == kFull) i = (i + 1) & mask();
      if (slots_[i].state == kEmpty) ++used_;
      slots_[i] = Slot{key, kFull};
      ++live_;
    }

    void erase(std::uint64_t key) {
      if (slots_.empty()) return;
      for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        Slot& s = slots_[i];
        if (s.state == kEmpty) return;
        if (s.state == kFull && s.key == key) {
          s.state = kTombstone;
          --live_;
          return;
        }
      }
    }

   private:
    enum State : std::uint8_t { kEmpty, kFull, kTombstone };
    struct Slot {
      std::uint64_t key = 0;
      State state = kEmpty;
    };

    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t home(std::uint64_t key) const {
      key ^= key >> 33;  // murmur3 finalizer: spreads sequential ids
      key *= 0xff51afd7ed558ccdULL;
      key ^= key >> 33;
      return static_cast<std::size_t>(key) & mask();
    }
    /// Rehashes the live keys into a table at most half full, dropping
    /// tombstones.
    void rebuild() {
      std::size_t capacity = 16;
      while (live_ * 2 >= capacity) capacity *= 2;
      std::vector<Slot> old(capacity);
      old.swap(slots_);
      used_ = 0;
      live_ = 0;
      for (const Slot& s : old) {
        if (s.state == kFull) insert(s.key);
      }
    }

    std::vector<Slot> slots_;  // size is 0 or a power of two
    std::size_t used_ = 0;     // full slots plus tombstones
    std::size_t live_ = 0;     // full slots
  };

  std::deque<Entry> queue_;
  KeySet pooled_;
  std::unordered_map<ClientId, RequestId> executed_;
  TimePoint last_batch_oldest_;
};

}  // namespace marlin::consensus
