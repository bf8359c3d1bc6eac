// Tests for the real-socket runtime (src/realnet): the timer wheel, the
// epoll event loop, the TCP transport pair (framing, reconnect), and full
// localhost clusters — commit liveness, clean shutdown draining in-flight
// sends, and replica kill+relaunch reloading durable state over TCP.
//
// These tests run real threads and real sockets on 127.0.0.1, so they use
// generous deadlines and poll for conditions instead of pinning exact
// timings (wall-clock here is not the simulator's virtual clock).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "obs/critical_path.h"
#include "realnet/clock.h"
#include "realnet/event_loop.h"
#include "realnet/http_client.h"
#include "realnet/real_cluster.h"
#include "realnet/tcp_transport.h"
#include "realnet/timer_wheel.h"
#include "runtime/cluster.h"

namespace marlin::realnet {
namespace {

// Polls `cond` (on this thread) until true or `patience` elapses.
bool eventually(Duration patience, const std::function<bool()>& cond) {
  const TimePoint deadline = mono_now() + patience;
  while (mono_now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// ---------------------------------------------------------------------------
// TimerWheel
// ---------------------------------------------------------------------------

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel;
  std::vector<int> order;
  const TimePoint t0 = TimePoint::origin();
  wheel.schedule_at(t0 + Duration::millis(30), [&] { order.push_back(3); });
  wheel.schedule_at(t0 + Duration::millis(10), [&] { order.push_back(1); });
  wheel.schedule_at(t0 + Duration::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  wheel.advance(t0 + Duration::millis(40));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, DoesNotFireEarly) {
  TimerWheel wheel;
  bool fired = false;
  wheel.schedule_at(TimePoint::from_nanos(50'000'000), [&] { fired = true; });
  wheel.advance(TimePoint::from_nanos(49'000'000));
  EXPECT_FALSE(fired);
  wheel.advance(TimePoint::from_nanos(50'000'000));
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CancelledTimerDoesNotFire) {
  TimerWheel wheel;
  bool fired = false;
  TimerHandle h = wheel.schedule_at(TimePoint::from_nanos(10'000'000),
                                    [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  wheel.advance(TimePoint::from_nanos(20'000'000));
  EXPECT_FALSE(fired);
  // Cancelling again (stale handle) is a no-op.
  h.cancel();
}

TEST(TimerWheel, StaleHandleCannotCancelReusedSlot) {
  TimerWheel wheel;
  int fired = 0;
  TimerHandle h1 = wheel.schedule_at(TimePoint::from_nanos(1'000'000),
                                     [&] { ++fired; });
  wheel.advance(TimePoint::from_nanos(2'000'000));
  EXPECT_EQ(fired, 1);
  // The slab slot is free now; a new timer may reuse it. The old handle's
  // generation is stale and must not cancel the new timer.
  TimerHandle h2 = wheel.schedule_at(TimePoint::from_nanos(3'000'000),
                                     [&] { ++fired; });
  h1.cancel();
  EXPECT_TRUE(h2.active());
  wheel.advance(TimePoint::from_nanos(4'000'000));
  EXPECT_EQ(fired, 2);
}

TEST(TimerWheel, FarDeadlineSurvivesWheelRotations) {
  TimerWheel wheel;
  // > kBuckets ticks out: hashes into a bucket that is visited several
  // times before the deadline; must fire only at the deadline.
  bool fired = false;
  const TimePoint far = TimePoint::from_nanos(3'500'000'000);  // 3.5 s
  wheel.schedule_at(far, [&] { fired = true; });
  for (std::int64_t ms = 0; ms < 3500; ms += 100) {
    wheel.advance(TimePoint::from_nanos(ms * 1'000'000));
    ASSERT_FALSE(fired) << "fired early at " << ms << " ms";
  }
  wheel.advance(far);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, NextTimeoutTracksEarliestPending) {
  TimerWheel wheel;
  const TimePoint t0 = TimePoint::origin();
  EXPECT_EQ(wheel.next_timeout_ns(t0), -1);
  wheel.schedule_at(t0 + Duration::millis(50), [] {});
  TimerHandle near = wheel.schedule_at(t0 + Duration::millis(10), [] {});
  EXPECT_EQ(wheel.next_timeout_ns(t0), Duration::millis(10).as_nanos());
  near.cancel();
  EXPECT_EQ(wheel.next_timeout_ns(t0), Duration::millis(50).as_nanos());
}

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, RunsPostedTasksOnLoopThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    on_loop = loop.on_loop_thread();
    ran = true;
    loop.stop();
  });
  t.join();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(on_loop);
}

TEST(EventLoop, TimersFireAtRealTime) {
  EventLoop loop;
  std::atomic<std::int64_t> fired_at{0};
  const TimePoint start = mono_now();
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    loop.schedule(Duration::millis(30), [&] {
      fired_at = (mono_now() - start).as_nanos();
      loop.stop();
    });
  });
  t.join();
  // Fired, and not before the deadline (wheel resolution is 1 ms).
  EXPECT_GE(fired_at.load(), Duration::millis(29).as_nanos());
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

struct TransportNode {
  EventLoop loop;
  std::unique_ptr<TcpTransport> transport;
  std::thread thread;
  std::uint16_t port = 0;

  explicit TransportNode(std::uint32_t id, TransportConfig config = {}) {
    transport = std::make_unique<TcpTransport>(loop, id, config);
    auto p = transport->listen(0);
    EXPECT_TRUE(p.is_ok());
    port = p.value();
  }

  void run() {
    thread = std::thread([this] { loop.run(); });
  }

  void stop() {
    loop.post([this] {
      transport->shutdown();
      loop.stop();
    });
    if (thread.joinable()) thread.join();
  }
};

TEST(TcpTransport, DeliversFramesWithSenderId) {
  TransportNode a(0), b(1);
  std::mutex mu;
  std::vector<std::pair<std::uint32_t, Bytes>> got;
  b.transport->set_handler([&](std::uint32_t from, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(from, Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  Bytes msg{3, 0xde, 0xad};  // a "proposal" frame
  a.loop.post([&] { a.transport->send(1, Payload(msg)); });

  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got[0].first, 0u);
    EXPECT_EQ(got[0].second, msg);
  }
  // Stats: payload bytes only (no frame headers), by kind, both ends.
  a.stop();
  b.stop();
  EXPECT_EQ(a.transport->stats().messages_sent, 1u);
  EXPECT_EQ(a.transport->stats().bytes_sent, msg.size());
  EXPECT_EQ(a.transport->stats().msgs_sent_by_kind[3], 1u);
  EXPECT_EQ(b.transport->stats().messages_delivered, 1u);
  EXPECT_EQ(b.transport->stats().bytes_delivered, msg.size());
  EXPECT_EQ(b.transport->stats().msgs_delivered_by_kind[3], 1u);
  EXPECT_EQ(a.transport->pending_egress_bytes(), 0u);
}

TEST(TcpTransport, SelfSendLoopsBack) {
  TransportNode a(7);
  std::atomic<int> got{0};
  a.transport->set_handler([&](std::uint32_t from, Payload p) {
    EXPECT_EQ(from, 7u);
    EXPECT_EQ(p.size(), 3u);
    ++got;
  });
  a.run();
  a.loop.post([&] { a.transport->send(7, Payload(Bytes{4, 1, 2})); });
  ASSERT_TRUE(eventually(Duration::seconds(2), [&] { return got == 1; }));
  a.stop();
  EXPECT_EQ(a.transport->stats().messages_sent, 1u);
  EXPECT_EQ(a.transport->stats().messages_delivered, 1u);
}

TEST(TcpTransport, ManyFramesArriveInOrder) {
  TransportNode a(0), b(1);
  std::mutex mu;
  std::vector<Bytes> got;
  b.transport->set_handler([&](std::uint32_t, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  constexpr int kFrames = 500;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes msg{4};  // vote kind
      msg.push_back(static_cast<std::uint8_t>(i));
      msg.push_back(static_cast<std::uint8_t>(i >> 8));
      msg.resize(3 + static_cast<std::size_t>(i % 97) * 11, 0xab);
      a.transport->send(1, Payload(std::move(msg)));
    }
  });

  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == kFrames;
  }));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i][1], static_cast<std::uint8_t>(i)) << "frame " << i;
    ASSERT_EQ(got[i][2], static_cast<std::uint8_t>(i >> 8)) << "frame " << i;
  }
  a.stop();
  b.stop();
}

// End-of-tick egress coalescing: a burst of sends posted in one loop
// iteration leaves through (far) fewer flushes than frames, and the
// receiver still sees every frame in order.
TEST(TcpTransport, CoalescesBurstIntoFewFlushes) {
  TransportNode a(0), b(1);
  std::mutex mu;
  std::vector<Bytes> got;
  b.transport->set_handler([&](std::uint32_t, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  // Wait for the connection so the burst hits the coalescing (connected)
  // path rather than the pre-connect queue.
  Bytes probe{4, 0xff, 0xff};
  a.loop.post([&] { a.transport->send(1, Payload(probe)); });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1;
  }));

  constexpr int kFrames = 256;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes msg{4};
      msg.push_back(static_cast<std::uint8_t>(i));
      msg.push_back(static_cast<std::uint8_t>(i >> 8));
      a.transport->send(1, Payload(std::move(msg)));
    }
  });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1 + kFrames;
  }));
  a.stop();
  b.stop();

  // One flush for the probe, then the burst: sendmsg caps at 16 frames per
  // syscall, so 256 frames need >= 16 flush_peer passes — but every one of
  // them came from a single end-of-tick flush cycle, far fewer than 256
  // per-send writes.
  EXPECT_GE(a.transport->flushes(), 1u + kFrames / 16);
  EXPECT_LT(a.transport->flushes(), 1u + kFrames);
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i + 1][1], static_cast<std::uint8_t>(i)) << "frame " << i;
    ASSERT_EQ(got[i + 1][2], static_cast<std::uint8_t>(i >> 8));
  }
}

// coalesce_max_defer_bytes=0 must fall back to write-per-send (the escape
// hatch for latency-critical configs) with identical delivery.
TEST(TcpTransport, CoalescingDisabledStillDelivers) {
  TransportConfig tc;
  tc.coalesce_max_defer_bytes = 0;
  TransportNode a(0, tc), b(1);
  std::mutex mu;
  std::size_t got = 0;
  b.transport->set_handler([&](std::uint32_t, Payload) {
    std::lock_guard<std::mutex> lock(mu);
    ++got;
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();
  constexpr int kFrames = 64;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      a.transport->send(1, Payload(Bytes{4, static_cast<std::uint8_t>(i)}));
    }
  });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got == kFrames;
  }));
  a.stop();
  b.stop();
}

// Per-wake ingress budgets: with budgets far smaller than the burst, the
// receiver needs many epoll wakes (level-triggered re-fires) but must
// still deliver every frame exactly once, in order.
TEST(TcpTransport, IngressBudgetCutoffResumesNextWake) {
  TransportConfig small;
  small.ingress_budget_bytes = 512;  // a few frames per wake
  small.ingress_budget_frames = 4;
  TransportNode a(0), b(1, small);
  std::mutex mu;
  std::vector<Bytes> got;
  b.transport->set_handler([&](std::uint32_t, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  constexpr int kFrames = 300;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes msg{4};
      msg.push_back(static_cast<std::uint8_t>(i));
      msg.push_back(static_cast<std::uint8_t>(i >> 8));
      msg.resize(3 + static_cast<std::size_t>(i % 13) * 7, 0xcd);
      a.transport->send(1, Payload(std::move(msg)));
    }
  });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == kFrames;
  }));
  a.stop();
  b.stop();

  {
    std::lock_guard<std::mutex> lock(mu);
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_EQ(got[i][1], static_cast<std::uint8_t>(i)) << "frame " << i;
      ASSERT_EQ(got[i][2], static_cast<std::uint8_t>(i >> 8));
    }
  }
  // The byte budget forced the burst across many wakes: ~15 KB of frames
  // at <= 512 bytes ingested per wake is ~30 wakes even if the kernel
  // buffered the whole burst before the receiver's first read.
  EXPECT_GE(b.transport->ingress_wakes(), 20u);
}

TEST(TcpTransport, ReconnectsAfterReceiverRestart) {
  TransportNode a(0);
  std::atomic<int> got{0};

  std::uint16_t b_port = 0;
  {
    TransportNode b(1);
    b_port = b.port;
    b.transport->set_handler([&](std::uint32_t, Payload) { ++got; });
    a.transport->set_peer(1, Endpoint{"127.0.0.1", b_port});
    a.run();
    b.run();
    a.loop.post([&] { a.transport->send(1, Payload(Bytes{4, 1})); });
    ASSERT_TRUE(eventually(Duration::seconds(5), [&] { return got == 1; }));
    b.stop();  // receiver dies; a's dialed connection breaks
  }

  // New incarnation on the same port (a's endpoint table is unchanged).
  EventLoop loop2;
  TcpTransport b2(loop2, 1);
  {
    // Rebinding an ephemeral port can race another process grabbing it;
    // retry briefly (SO_REUSEADDR covers TIME_WAIT).
    Result<std::uint16_t> p = b2.listen(b_port);
    ASSERT_TRUE(p.is_ok()) << p.status().message();
  }
  b2.set_handler([&](std::uint32_t, Payload) { ++got; });
  std::thread t2([&] { loop2.run(); });

  // Sends queued/dropped while b was down get a new connection: the send
  // below dials afresh (or rides a backoff retry) and must arrive.
  ASSERT_TRUE(eventually(Duration::seconds(8), [&] {
    a.loop.post([&] { a.transport->send(1, Payload(Bytes{4, 2})); });
    return got.load() >= 2;
  }));

  loop2.post([&] {
    b2.shutdown();
    loop2.stop();
  });
  t2.join();
  a.stop();
}

// ---------------------------------------------------------------------------
// RealCluster: commit liveness on localhost TCP
// ---------------------------------------------------------------------------

runtime::ClusterConfig quick_cluster_config(std::uint32_t f) {
  runtime::ClusterConfig cfg;
  cfg.f = f;
  cfg.seed = 7;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  cfg.clients.payload_size = 32;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(500);
  cfg.consensus.pacemaker.timeout_jitter = 0.2;
  return cfg;
}

TEST(RealCluster, CommitsClientOpsOverTcp) {
  RealCluster cluster(quick_cluster_config(1));
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.client(0).completed_total() > 50 &&
           cluster.client(1).completed_total() > 50;
  }));
  cluster.stop();

  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_TRUE(cluster.committed_heights_consistent());
  EXPECT_GT(cluster.min_committed_height(), 0u);
  // Every replica moved real bytes on the wire.
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_GT(cluster.node_stats(i).bytes_delivered, 0u) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// One metrology on both backends (runtime::Deployment)
// ---------------------------------------------------------------------------

constexpr Duration kContractWarmup = Duration::millis(500);
constexpr Duration kContractWindow = Duration::millis(1500);

// Every number a report reads, asserted through the base both clusters
// share. `clients_in_window` is the clients' own in-window counts, summed
// by the caller through its concrete cluster.
void expect_one_metrology(const runtime::Deployment& d,
                          std::uint64_t clients_in_window) {
  EXPECT_GT(d.completed_in_window(), 0u);
  EXPECT_EQ(d.completed_in_window(), clients_in_window);
  EXPECT_NEAR(static_cast<double>(d.completed_in_window()),
              d.client_throughput() * kContractWindow.as_seconds_f(), 1.0);
  // Ops also commit during warmup; the all-time count includes them.
  EXPECT_GT(d.total_completed(), d.completed_in_window());
  EXPECT_LE(d.latency_ms(50), d.latency_ms(99));
  EXPECT_FALSE(d.any_safety_violation());
  EXPECT_TRUE(d.committed_heights_consistent());
  EXPECT_GT(d.min_committed_height(), 0u);
}

TEST(Deployment, SimAndMetalShareOneMetrology) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  cfg.net.one_way_delay = Duration::micros(50);  // the sim models localhost

  sim::Simulator sim(cfg.seed);
  runtime::Cluster simulated(sim, cfg);
  const TimePoint w_start = TimePoint::origin() + kContractWarmup;
  simulated.set_measurement_window(w_start, w_start + kContractWindow);
  simulated.start();
  sim.run_until(w_start + kContractWindow);
  std::uint64_t sim_window = 0;
  for (ClientId c = 0; c < simulated.client_count(); ++c) {
    sim_window += simulated.client(c).completed().in_window();
  }
  {
    SCOPED_TRACE("sim");
    expect_one_metrology(simulated, sim_window);
  }

  RealCluster metal(cfg);
  ASSERT_TRUE(metal.ok().is_ok()) << metal.ok().message();
  const TimePoint t0 = mono_now() + kContractWarmup;
  metal.set_measurement_window(t0, t0 + kContractWindow);
  metal.start();
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      (t0 + kContractWindow - mono_now()).as_nanos()));
  metal.stop();
  std::uint64_t metal_window = 0;
  for (ClientId c = 0; c < metal.client_count(); ++c) {
    metal_window += metal.client(c).completed().in_window();
  }
  SCOPED_TRACE("metal");
  expect_one_metrology(metal, metal_window);
}

TEST(RealCluster, CleanShutdownDrainsEgress) {
  RealCluster cluster(quick_cluster_config(1));
  ASSERT_TRUE(cluster.ok().is_ok());
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > 20;
  }));
  cluster.stop();
  // Drain-on-shutdown: no node may strand queued frames.
  for (std::uint32_t id = 0; id < cluster.n(); ++id) {
    EXPECT_EQ(cluster.transport(id).pending_egress_bytes(), 0u)
        << "node " << id;
  }
}

TEST(RealCluster, TracesRecordCommitsAndDeliveries) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.trace = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok());
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > 10;
  }));
  cluster.stop();

  const auto events = cluster.merged_trace_events();
  ASSERT_FALSE(events.empty());
  bool saw_commit = false, saw_delivery = false, saw_reply = false;
  for (const auto& e : events) {
    saw_commit |= e.type == obs::EventType::kCommit;
    saw_delivery |= e.type == obs::EventType::kMsgDelivered;
    saw_reply |= e.type == obs::EventType::kReplyAccepted;
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_delivery);
  EXPECT_TRUE(saw_reply);
  // Merged events are time-sorted.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].at.as_nanos(), events[i].at.as_nanos());
  }
}

// On metal every node has its own sink, so seq is per node and a seq sort
// interleaves the nodes out of time order. sort_by_time puts any such
// permutation back into the merged order, and the critical path read from
// it splits every edge into queue + wire + cpu parts that add up.
TEST(RealCluster, TraceAnalysisReadsTimeOrderNotSeqOrder) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.trace = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok());
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > 100;
  }));
  cluster.stop();

  const auto events = cluster.merged_trace_events();
  auto scrambled = events;
  std::stable_sort(scrambled.begin(), scrambled.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.seq < b.seq;
                   });
  EXPECT_NE(scrambled, events);
  obs::sort_by_time(scrambled);
  EXPECT_EQ(scrambled, events);
  EXPECT_EQ(obs::critical_path_report(scrambled),
            obs::critical_path_report(events));

  std::size_t complete = 0;
  for (const obs::CriticalPath& p : obs::critical_paths(events)) {
    if (!p.complete) continue;
    ++complete;
    for (const obs::CriticalPathEdge& e : p.edges) {
      EXPECT_EQ((e.queue + e.wire + e.cpu).as_nanos(),
                e.duration().as_nanos())
          << e.label;
    }
  }
  EXPECT_GT(complete, 0u);
}

// ---------------------------------------------------------------------------
// RealCluster: kill + relaunch over a durable store
// ---------------------------------------------------------------------------

TEST(RealCluster, KilledReplicaRelaunchesFromDiskAndRejoins) {
  const std::string dir = "/tmp/marlin_realnet_relaunch_test";
  std::filesystem::remove_all(dir);

  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.data_dir = dir;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();

  // Let the cluster commit, then hard-kill a non-leader replica.
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > 30;
  }));
  cluster.kill_replica(2);
  EXPECT_FALSE(cluster.replica_alive(2));

  // n=4 tolerates one crash: progress must continue while 2 is down.
  const std::uint64_t before = cluster.total_completed();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > before + 30;
  }));

  // Relaunch over the surviving data dir: the new incarnation must restore
  // the persisted consensus state (write-ahead voting record) and rejoin.
  ASSERT_TRUE(cluster.relaunch_replica(2).is_ok());
  EXPECT_TRUE(cluster.replica_alive(2));
  EXPECT_TRUE(cluster.replica(2).recovered());

  // The relaunched replica catches up over TCP: its committed height must
  // start advancing again (fetch/catch-up runs over the same transport).
  ASSERT_TRUE(eventually(Duration::seconds(30), [&] {
    return cluster.replica(2).protocol().committed_height() > 0;
  }));

  cluster.stop();
  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_TRUE(cluster.committed_heights_consistent());
  // The relaunch exports the same recovery counters as a simulated
  // restart (restart_test's RecoveryMetricsAreExported).
  const auto& metrics = cluster.replica(2).metrics();
  EXPECT_EQ(metrics.counter_value("recovery.restarts"), 1u);
  EXPECT_GT(metrics.counter_value("recovery.wal_records_replayed"), 0u);
  std::filesystem::remove_all(dir);
}

// A relaunched replica serves telemetry on the port it had before the kill
// (real_cluster.h: "stable across relaunch"), and its /status reports the
// restore from disk. Relaunch with telemetry on rebuilds the server on the
// new incarnation's loop, the path the sanitizer jobs run.
TEST(RealCluster, RelaunchedReplicaKeepsItsTelemetryPort) {
  const std::string dir = "/tmp/marlin_realnet_relaunch_telemetry_test";
  std::filesystem::remove_all(dir);

  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.data_dir = dir;
  opts.telemetry = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();

  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > 30;
  }));
  const std::uint16_t port2 = cluster.telemetry_port(2);
  ASSERT_NE(port2, 0);
  cluster.kill_replica(2);
  const std::uint64_t before = cluster.total_completed();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > before + 30;
  }));
  ASSERT_TRUE(cluster.relaunch_replica(2).is_ok());
  EXPECT_EQ(cluster.telemetry_port(2), port2);

  std::string status;
  EXPECT_TRUE(eventually(Duration::seconds(10), [&] {
    auto resp = http_get("127.0.0.1", port2, "/status", Duration::seconds(2));
    if (!resp.is_ok() || resp.value().status_code != 200) return false;
    status = resp.value().body;
    return true;
  }));
  EXPECT_NE(status.find("\"recovered\":true"), std::string::npos) << status;
  ASSERT_TRUE(eventually(Duration::seconds(30), [&] {
    return cluster.replica(2).protocol().committed_height() > 0;
  }));

  cluster.stop();
  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_TRUE(cluster.committed_heights_consistent());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Telemetry plane observes transport faults from outside the process
// ---------------------------------------------------------------------------

// Scrape helper: GET /metrics and pull one series value out of the
// Prometheus text (exact-name match at line start, value after the space).
double scraped_metric(std::uint16_t port, const std::string& series) {
  auto resp =
      http_get("127.0.0.1", port, "/metrics", Duration::seconds(2));
  if (!resp.is_ok() || resp.value().status_code != 200) return -1;
  const std::string& body = resp.value().body;
  const std::string needle = series + " ";
  std::size_t pos = body.find(needle);
  while (pos != std::string::npos && pos != 0 && body[pos - 1] != '\n') {
    pos = body.find(needle, pos + 1);
  }
  if (pos == std::string::npos) return -1;
  return std::atof(body.c_str() + pos + needle.size());
}

TEST(RealCluster, ScrapedMetricsObserveKilledPeerAndReconnect) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.telemetry = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();

  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return cluster.total_completed() > 30;
  }));
  const std::uint16_t port0 = cluster.telemetry_port(0);
  ASSERT_NE(port0, 0);

  // Baseline scrape of replica 0: the transport health series exist and
  // the egress queue high-water mark shows frames actually queued.
  EXPECT_GE(scraped_metric(port0, "marlin_transport_connects_ok"), 1.0);
  EXPECT_GT(scraped_metric(port0,
                           "marlin_transport_egress_high_water_bytes"),
            0.0);
  // Hot-path series pinned here so renames break a test, not a dashboard:
  // egress coalescing, batched ingress decode, and their batch-size
  // summaries all flow through /metrics on a live replica.
  EXPECT_GE(scraped_metric(port0, "marlin_transport_flushes"), 1.0);
  EXPECT_GE(scraped_metric(port0, "marlin_transport_ingress_wakes"), 1.0);
  EXPECT_GT(scraped_metric(port0, "marlin_transport_frames_per_flush_count"),
            0.0);
  EXPECT_GT(scraped_metric(port0, "marlin_loop_frames_per_wake_count"), 0.0);

  // Kill replica 2. Marlin's linearity means followers only talk to the
  // leader, so replica 2's death is invisible to most transports — but the
  // leader broadcasts proposals to everyone and must observe the stream
  // reset plus redial/backoff churn. Scrape every survivor and find it.
  cluster.kill_replica(2);
  const std::uint32_t survivors[] = {0, 1, 3};
  auto observer = [&]() -> std::uint16_t {
    for (std::uint32_t i : survivors) {
      const std::uint16_t p = cluster.telemetry_port(i);
      if (scraped_metric(p, "marlin_transport_connections_lost") >= 1.0 &&
          scraped_metric(p, "marlin_transport_redials_scheduled") >= 1.0) {
        return p;
      }
    }
    return 0;
  };
  ASSERT_TRUE(eventually(Duration::seconds(15),
                         [&] { return observer() != 0; }))
      << "no survivor observed the lost connection";
  const std::uint16_t leader_port = observer();

  // Redials to the dead peer keep failing: the failure counter climbs.
  ASSERT_TRUE(eventually(Duration::seconds(15), [&] {
    return scraped_metric(leader_port, "marlin_transport_connect_failures") >=
           1.0;
  }));

  // /status agrees: peer 2 shows disconnected on the observer's peer table.
  auto status =
      http_get("127.0.0.1", leader_port, "/status", Duration::seconds(2));
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(
      status.value().body.find(
          "{\"id\":2,\"connected\":false"),
      std::string::npos)
      << status.value().body;

  cluster.stop();
  EXPECT_FALSE(cluster.any_safety_violation());
}

}  // namespace
}  // namespace marlin::realnet
