// Flow-state lifecycle (DESIGN.md §15): inline last_seen stamps, the
// cursor-bounded idle sweep, segmented online resize, and the NF-level
// expiry contracts — FIN teardown leaves no state behind, idle aging
// releases NAT ports, retransmitted FINs never close a half-open
// connection, and growth absorbs load beyond the provisioned capacity
// while readers run. The simulator tests pin the sweep's timing exactly:
// expiry within one rotation of the timeout, a per-tick scan of
// ceil(groups / rotation_ticks), and live flows kept alive under every
// state strategy.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/core_picker.hpp"
#include "core/flow_state.hpp"
#include "core/flow_table.hpp"
#include "core/middlebox.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "nf/load_balancer.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "nic/pktgen.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "state/strategy.hpp"

namespace sprayer::core {
namespace {

constexpr u32 kCores = 4;

net::FiveTuple tuple_of(u32 i) {
  return net::FiveTuple{
      net::Ipv4Addr{10, static_cast<u8>(i >> 8), static_cast<u8>(i), 1},
      net::Ipv4Addr{10, 99, static_cast<u8>(i >> 8), static_cast<u8>(i)},
      static_cast<u16>(1024 + (i % 40000)), 80, net::kProtoTcp};
}

net::FiveTuple udp_tuple_of(u32 i) {
  net::FiveTuple t = tuple_of(i);
  t.protocol = net::kProtoUdp;
  return t;
}

// --- unit: inline last_seen stamps ------------------------------------------

TEST(FlowTableStamps, TouchAndReadBack) {
  FlowTable t(64, 16, 0);
  const auto key = tuple_of(1);
  void* e = t.insert(key);
  ASSERT_NE(e, nullptr);
  // Insert zeroes the stamp along with the entry.
  EXPECT_EQ(FlowTable::last_seen(e), 0u);
  FlowTable::touch(e, 5 * kSecond);
  EXPECT_EQ(FlowTable::last_seen(e), 5 * kSecond);
  // touch_if_stale: within the granularity window the stamp stays put...
  FlowTable::touch_if_stale(e, 5 * kSecond + kMicrosecond, kMillisecond);
  EXPECT_EQ(FlowTable::last_seen(e), 5 * kSecond);
  // ...and past it the stamp advances.
  FlowTable::touch_if_stale(e, 5 * kSecond + 2 * kMillisecond, kMillisecond);
  EXPECT_EQ(FlowTable::last_seen(e), 5 * kSecond + 2 * kMillisecond);
}

TEST(FlowTableStamps, SlotReuseClearsStamp) {
  FlowTable t(64, 16, 0);
  const auto key = tuple_of(2);
  void* e = t.insert(key);
  ASSERT_NE(e, nullptr);
  FlowTable::touch(e, 9 * kSecond);
  ASSERT_TRUE(t.remove(key));
  // Re-inserting (likely the same slot) must not inherit the old stamp.
  void* e2 = t.insert(key);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(FlowTable::last_seen(e2), 0u);
}

// --- unit: segmented online resize ------------------------------------------

TEST(FlowTableGrowth, GrowthOffKeepsSeedFullTableBehavior) {
  // Mirror of FlowTable.RespectsMaxLoadFactor: without set_growth() the
  // table must fill to capacity - capacity/8 and then refuse.
  FlowTable t(64, 8, 0);
  u32 inserted = 0;
  for (u32 i = 0; i < 64; ++i) {
    if (t.insert(tuple_of(i)) != nullptr) ++inserted;
  }
  EXPECT_EQ(inserted, 64u - 64u / 8u);
  EXPECT_EQ(t.num_segments(), 1u);
  EXPECT_EQ(t.capacity(), 64u);
}

TEST(FlowTableGrowth, GrowsBySegmentsAndFindsEverything) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  constexpr u32 kFlows = 150;  // > 2 segments' worth of headroom
  for (u32 i = 0; i < kFlows; ++i) {
    auto* e = static_cast<u8*>(t.insert(tuple_of(i)));
    ASSERT_NE(e, nullptr) << "insert " << i << " failed despite growth";
    std::memset(e, static_cast<int>(i & 0xff), 16);
  }
  EXPECT_EQ(t.size(), kFlows);
  EXPECT_GT(t.num_segments(), 1u);
  EXPECT_LE(t.num_segments(), 4u);
  EXPECT_EQ(t.capacity(), 64u * t.num_segments());
  for (u32 i = 0; i < kFlows; ++i) {
    const auto* e = static_cast<const u8*>(t.find_local(tuple_of(i)));
    ASSERT_NE(e, nullptr) << "flow " << i << " lost after growth";
    EXPECT_EQ(e[0], static_cast<u8>(i & 0xff));
    // The remote (cross-core) path must see segment entries too.
    EXPECT_EQ(t.find_remote(tuple_of(i)), e);
  }
}

TEST(FlowTableGrowth, InsertIsIdempotentAcrossSegments) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  for (u32 i = 0; i < 120; ++i) ASSERT_NE(t.insert(tuple_of(i)), nullptr);
  ASSERT_GT(t.num_segments(), 1u);
  const u64 size_before = t.size();
  // Re-inserting every key must return the existing entry, never a
  // duplicate in a later segment.
  for (u32 i = 0; i < 120; ++i) {
    void* again = t.insert(tuple_of(i));
    EXPECT_EQ(again, t.find_local(tuple_of(i)));
  }
  EXPECT_EQ(t.size(), size_before);
}

TEST(FlowTableGrowth, RemoveWorksInEverySegmentAndCapacityIsBounded) {
  FlowTable t(64, 16, 0);
  t.set_growth(2);
  std::vector<net::FiveTuple> keys;
  for (u32 i = 0; i < 4096; ++i) {
    const auto key = tuple_of(i);
    if (t.insert(key) == nullptr) break;  // both segments full
    keys.push_back(key);
  }
  // Growth is bounded by max_segments: the table refused eventually.
  EXPECT_EQ(t.num_segments(), 2u);
  EXPECT_LT(keys.size(), 128u);
  for (const auto& key : keys) EXPECT_TRUE(t.remove(key));
  EXPECT_EQ(t.size(), 0u);
  // And the emptied table accepts inserts again.
  EXPECT_NE(t.insert(tuple_of(9999)), nullptr);
}

TEST(FlowTableGrowth, FindBatchSpansSegments) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  constexpr u32 kFlows = 120;
  std::vector<net::FiveTuple> keys;
  std::vector<FlowTable::FlowHash> hashes;
  for (u32 i = 0; i < kFlows; ++i) {
    keys.push_back(tuple_of(i));
    hashes.push_back(FlowTable::hash_of(keys.back()));
    ASSERT_NE(t.insert(keys.back(), hashes.back()), nullptr);
  }
  ASSERT_GT(t.num_segments(), 1u);
  std::vector<const void*> out(kFlows, nullptr);
  const u32 hits = t.find_batch(keys, hashes, out);
  EXPECT_EQ(hits, kFlows);
  for (u32 i = 0; i < kFlows; ++i) {
    EXPECT_EQ(out[i], t.find_remote(keys[i], hashes[i])) << i;
  }
}

// --- unit: the cursor-bounded sweep -----------------------------------------

TEST(FlowTableSweep, VisitsEveryEntryOncePerRotationAndIsBounded) {
  FlowTable t(256, 16, 0);
  constexpr u32 kFlows = 100;
  for (u32 i = 0; i < kFlows; ++i) ASSERT_NE(t.insert(tuple_of(i)), nullptr);
  const u64 total = t.total_groups();
  EXPECT_EQ(total, 256u / FlowTable::kGroupWidth);
  u64 cursor = 0;
  std::multiset<std::string> seen;
  u64 calls = 0;
  while (cursor < total) {
    // Bounded work: never more than 4 groups per call.
    const u32 scanned = t.sweep_groups(
        cursor, 4, [&](const net::FiveTuple& key, void*, Time) {
          seen.insert(key.to_string());
        });
    EXPECT_LE(scanned, 4u);
    ++calls;
  }
  EXPECT_GE(calls, total / 4);
  EXPECT_EQ(seen.size(), kFlows);  // each entry exactly once: no dups
  for (u32 i = 0; i < kFlows; ++i) {
    EXPECT_EQ(seen.count(tuple_of(i).to_string()), 1u) << i;
  }
  // The cursor wraps: a second rotation revisits the same population.
  std::multiset<std::string> second;
  for (u64 g = 0; g < total; g += 4) {
    (void)t.sweep_groups(cursor, 4,
                         [&](const net::FiveTuple& key, void*, Time) {
                           second.insert(key.to_string());
                         });
  }
  EXPECT_EQ(second, seen);
}

TEST(FlowTableSweep, CoversNewSegmentsAfterGrowth) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  constexpr u32 kFlows = 120;
  for (u32 i = 0; i < kFlows; ++i) ASSERT_NE(t.insert(tuple_of(i)), nullptr);
  ASSERT_GT(t.num_segments(), 1u);
  u64 cursor = 0;
  std::set<std::string> seen;
  const u64 total = t.total_groups();
  for (u64 g = 0; g < total; g += 8) {
    (void)t.sweep_groups(cursor, 8,
                         [&](const net::FiveTuple& key, void*, Time) {
                           seen.insert(key.to_string());
                         });
  }
  EXPECT_EQ(seen.size(), kFlows);
}

// --- unit: FlowStateApi::sweep_idle — UDP-style pure idle aging -------------

TEST(SweepIdle, ExpiresIdleUdpFlowsAndSparesRefreshedOnes) {
  // UDP flows have no FIN: idle aging is the only way they ever leave the
  // table. Single-core writing-partition api: it owns every flow.
  FlowTable table(256, 16, 0);
  FlowTable* tables[] = {&table};
  CorePicker picker(1);
  CostModel costs;
  Cycles sink = 0;
  FlowStateApi api(0, tables, picker, costs, sink);

  constexpr Time kIdle = 10 * kSecond;
  api.set_now(100 * kSecond);
  constexpr u32 kFlows = 40;
  for (u32 i = 0; i < kFlows; ++i) {
    ASSERT_NE(api.insert_local_flow(udp_tuple_of(i)), nullptr);
  }
  // Half the flows stay active: refresh their stamps much later.
  api.set_now(150 * kSecond);
  for (u32 i = 0; i < kFlows; i += 2) {
    ASSERT_NE(api.get_local_flow(udp_tuple_of(i)), nullptr);
  }
  // Sweep at a time where only the unrefreshed half is past the timeout.
  api.set_now(155 * kSecond);
  auto pred = [&api](const net::FiveTuple&, const void*, Time last_seen) {
    return last_seen + kIdle <= api.now();
  };
  u32 expired = 0;
  auto on_expire = [&](const net::FiveTuple& key, FlowTable::FlowHash hash) {
    EXPECT_TRUE(api.remove_local_flow(key, hash));
    ++expired;
  };
  // Drive full rotations until a whole pass finds nothing more.
  for (u32 round = 0; round < 4; ++round) {
    (void)api.sweep_idle(static_cast<u32>(table.total_groups()), pred,
                         on_expire);
  }
  EXPECT_EQ(expired, kFlows / 2);
  EXPECT_EQ(table.size(), kFlows / 2);
  for (u32 i = 0; i < kFlows; ++i) {
    const bool refreshed = (i % 2) == 0;
    EXPECT_EQ(api.get_local_flow(udp_tuple_of(i)) != nullptr, refreshed) << i;
  }
}

TEST(SweepIdle, CandidateBatchIsBoundedPerCall) {
  FlowTable table(4096, 16, 0);
  FlowTable* tables[] = {&table};
  CorePicker picker(1);
  CostModel costs;
  Cycles sink = 0;
  FlowStateApi api(0, tables, picker, costs, sink);
  api.set_now(kSecond);
  // Far more idle flows than one sweep call may expire.
  for (u32 i = 0; i < 2000; ++i) {
    ASSERT_NE(api.insert_local_flow(udp_tuple_of(i)), nullptr);
  }
  api.set_now(100 * kSecond);
  u32 expired = 0;
  const auto st = api.sweep_idle(
      static_cast<u32>(table.total_groups()),
      [](const net::FiveTuple&, const void*, Time) { return true; },
      [&](const net::FiveTuple& key, FlowTable::FlowHash hash) {
        EXPECT_TRUE(api.remove_local_flow(key, hash));
        ++expired;
      });
  EXPECT_EQ(expired, FlowStateApi::kSweepCandidates);
  EXPECT_EQ(st.expired, FlowStateApi::kSweepCandidates);
}

// --- threaded harness --------------------------------------------------------

net::Packet* make_packet(net::PacketPool& pool, const net::FiveTuple& t,
                         u8 flags) {
  net::TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  return net::build_tcp_raw(pool, spec);
}

void must_inject(ThreadedMiddlebox& mbox, net::PacketPool& pool,
                 const net::FiveTuple& t, u8 flags) {
  for (;;) {
    net::Packet* pkt = make_packet(pool, t, flags);
    if (pkt != nullptr && mbox.inject(pkt)) return;
    std::this_thread::yield();
  }
}

void settle(ThreadedMiddlebox& mbox, u32 millis = 25) {
  mbox.wait_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  mbox.wait_idle();
}

/// Live flow entries, each counted once whatever the strategy's layout.
u64 live_entries(ThreadedMiddlebox& mbox) {
  return mbox.state_strategy().live_flows(0);
}

SprayerConfig lifecycle_cfg(state::StateStrategyKind kind, Time idle) {
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.overload_policy = OverloadPolicy::kBlock;
  cfg.housekeeping_interval = 5 * kMillisecond;
  cfg.state.kind = kind;
  cfg.lifecycle.idle_timeout = idle;
  return cfg;
}

constexpr state::StateStrategyKind kAllKinds[] = {
    state::StateStrategyKind::kWritingPartition,
    state::StateStrategyKind::kReplication,
};

// --- teardown: FIN handshake leaves zero state, under every strategy --------

void fin_teardown_under(state::StateStrategyKind kind) {
  net::PacketPool pool(8192, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Idle aging stays out of the way (60s default): removals below are pure
  // FIN teardown.
  ThreadedMiddlebox mbox(lifecycle_cfg(kind, 0), monitor, std::move(sink));
  mbox.start();
  const auto flows = nic::random_tcp_flows(48, 11);
  for (const auto& f : flows) must_inject(mbox, pool, f, net::TcpFlags::kSyn);
  mbox.wait_idle();
  // Full bidirectional close: one FIN per direction.
  for (const auto& f : flows) {
    must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  mbox.wait_idle();
  for (const auto& f : flows) {
    must_inject(mbox, pool, f.reversed(),
                net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  const auto totals = monitor.aggregate();
  EXPECT_EQ(totals.connections_opened, flows.size());
  EXPECT_EQ(totals.connections_closed, flows.size());
  EXPECT_EQ(live_entries(mbox), 0u) << "stranded entries after FINs";
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(FinTeardown, WritingPartition) {
  fin_teardown_under(state::StateStrategyKind::kWritingPartition);
}
TEST(FinTeardown, Replication) {
  fin_teardown_under(state::StateStrategyKind::kReplication);
}

// --- the double-FIN bug: retransmitted FINs must not close ------------------

TEST(FinTeardown, RetransmittedFinStaysOpenMonitor) {
  net::PacketPool pool(4096, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  ThreadedMiddlebox mbox(
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0), monitor,
      std::move(sink));
  mbox.start();
  const auto f = tuple_of(7);
  must_inject(mbox, pool, f, net::TcpFlags::kSyn);
  mbox.wait_idle();
  // Three copies of the SAME direction's FIN: the old fin_count logic
  // closed on the second copy; direction bits must keep it half-open.
  for (int i = 0; i < 3; ++i) {
    must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  EXPECT_EQ(monitor.aggregate().connections_closed, 0u);
  EXPECT_EQ(live_entries(mbox), 1u);
  // The peer's FIN completes the handshake.
  must_inject(mbox, pool, f.reversed(),
              net::TcpFlags::kFin | net::TcpFlags::kAck);
  settle(mbox);
  EXPECT_EQ(monitor.aggregate().connections_closed, 1u);
  EXPECT_EQ(live_entries(mbox), 0u);
  mbox.stop();
}

TEST(FinTeardown, RetransmittedFinStaysOpenLoadBalancer) {
  net::PacketPool pool(4096, 256);
  nf::LbConfig lb_cfg;
  lb_cfg.backends.push_back(
      {net::MacAddr::from_id(100), net::Ipv4Addr{10, 1, 0, 1}});
  nf::LoadBalancerNf lb(lb_cfg);
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  ThreadedMiddlebox mbox(
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0), lb,
      std::move(sink));
  mbox.start();
  const net::FiveTuple f{net::Ipv4Addr{10, 0, 0, 1}, lb_cfg.vip, 2001,
                         lb_cfg.vport, net::kProtoTcp};
  must_inject(mbox, pool, f, net::TcpFlags::kSyn);
  mbox.wait_idle();
  for (int i = 0; i < 3; ++i) {
    must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  // Pin still held: three same-direction FINs are one half-close.
  EXPECT_EQ(lb.active_connections()[0], 1);
  must_inject(mbox, pool, f.reversed(),
              net::TcpFlags::kFin | net::TcpFlags::kAck);
  settle(mbox);
  EXPECT_EQ(lb.active_connections()[0], 0);
  mbox.stop();
}

// --- idle aging: NAT sessions release their ports, replicas converge --------

void nat_idle_aging_under(state::StateStrategyKind kind) {
  net::PacketPool pool(8192, 256);
  nf::NatConfig nat_cfg;
  nf::NatNf nat(nat_cfg);
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Aggressive idle timeout: sessions that go quiet are reaped within a
  // few sweep rotations.
  ThreadedMiddlebox mbox(lifecycle_cfg(kind, 40 * kMillisecond), nat,
                         std::move(sink));
  mbox.start();
  const auto flows = nic::random_tcp_flows(24, 17);
  for (const auto& f : flows) {
    must_inject(mbox, pool, f, net::TcpFlags::kSyn);
    mbox.wait_idle();
  }
  EXPECT_EQ(nat.counters().sessions_opened, flows.size());
  // No claimed-port assertion here: the timeout is aggressive enough that
  // on a loaded host the earliest sessions can already be reaped before
  // the ramp finishes. The quiescent-state checks below are the contract.
  // Go quiet; idle aging must reclaim every session (two entries each) and
  // conserve the port pool. Worst case: 40ms idle + 8-tick rotation at 5ms.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         nat.port_pool().claimed() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  settle(mbox);
  EXPECT_EQ(nat.port_pool().claimed(), 0u) << "leaked NAT ports";
  EXPECT_EQ(live_entries(mbox), 0u) << "stranded NAT entries";
  EXPECT_EQ(nat.counters().sessions_expired, flows.size());
  if (kind == state::StateStrategyKind::kReplication) {
    const auto report = mbox.state_strategy().check_divergence();
    EXPECT_TRUE(report.clean())
        << "expiry diverged: missing=" << report.missing_entries
        << " extra=" << report.extra_entries
        << " mismatched=" << report.mismatched_entries;
  }
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(IdleAging, NatReleasesPortsWritingPartition) {
  nat_idle_aging_under(state::StateStrategyKind::kWritingPartition);
}
TEST(IdleAging, NatReleasesPortsReplication) {
  nat_idle_aging_under(state::StateStrategyKind::kReplication);
}

TEST(IdleAging, ActiveTrafficKeepsSessionsAlive) {
  net::PacketPool pool(8192, 256);
  nf::NatNf nat;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  ThreadedMiddlebox mbox(
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition,
                    60 * kMillisecond),
      nat, std::move(sink));
  mbox.start();
  const auto flows = nic::random_tcp_flows(8, 23);
  for (const auto& f : flows) {
    must_inject(mbox, pool, f, net::TcpFlags::kSyn);
    mbox.wait_idle();
  }
  // Keep every session busy for several timeout periods: the per-packet
  // get_flow touch must hold expiry off.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (std::chrono::steady_clock::now() < until) {
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kAck);
    }
    mbox.wait_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(nat.counters().sessions_expired, 0u)
      << "sweep expired sessions with live traffic";
  EXPECT_EQ(nat.port_pool().claimed(), flows.size());
  mbox.stop();
}

// --- simulated time: exact expiry bounds and keep-alive under every strategy -

/// A SimMiddlebox between inside (port 0) and outside (port 1) injection
/// links and sinks that free whatever leaves, remembering the last
/// forwarded tuple. Housekeeping runs on simulated time: core c's ticks
/// land at every multiple of the interval, and stepping the clock one
/// interval at a time runs exactly one tick per core.
struct SimRig {
  class FreeSink final : public sim::IPacketSink {
   public:
    void receive(net::Packet* pkt) override {
      if (pkt->parse()) last = pkt->five_tuple();
      pkt->pool()->free(pkt);
    }
    net::FiveTuple last{};
  };

  static sim::LinkConfig ingress_port(u8 port) {
    sim::LinkConfig cfg;
    cfg.egress_port_label = port;
    return cfg;
  }

  sim::Simulator sim;
  net::PacketPool pool{4096, 256};
  FreeSink sink;
  SimMiddlebox mbox;
  sim::Link in0;
  sim::Link in1;
  sim::Link out0;
  sim::Link out1;

  SimRig(const SprayerConfig& cfg, INetworkFunction& nf)
      : mbox(sim, cfg, nf),
        in0(sim, ingress_port(0), mbox.ingress(), "in0"),
        in1(sim, ingress_port(1), mbox.ingress(), "in1"),
        out0(sim, sim::LinkConfig{}, sink, "out0"),
        out1(sim, sim::LinkConfig{}, sink, "out1") {
    mbox.attach_tx_link(0, out0);
    mbox.attach_tx_link(1, out1);
  }

  /// Send one TCP packet from the inside (or the outside). Same (tuple,
  /// flags, seed) gives the same bytes, hence the same TCP checksum and the
  /// same spray core.
  void send(const net::FiveTuple& t, u8 flags, bool outside = false) {
    const u64 payload_seed = 1;
    u8 payload[8];
    std::memcpy(payload, &payload_seed, sizeof(payload));
    net::TcpSegmentSpec spec;
    spec.tuple = t;
    spec.flags = flags;
    spec.payload_len = sizeof(payload);
    spec.payload = payload;
    (outside ? in1 : in0).send(net::build_tcp_raw(pool, spec));
  }

  void advance(Time dt) { sim.run_until(sim.now() + dt); }
};

SprayerConfig sim_cfg(state::StateStrategyKind kind, Time tick, Time idle) {
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.housekeeping_interval = tick;
  cfg.state.kind = kind;
  cfg.lifecycle.idle_timeout = idle;
  return cfg;
}

TEST(SimAging, MonitorExpiresWithinOneRotationAndScansItsBudget) {
  // T / 8 > 8H, so the rotation period is T / 8 (25 ticks), not 8 ticks.
  constexpr Time kTick = 10 * kMillisecond;
  constexpr Time kIdle = 2 * kSecond;
  constexpr u64 kRotationTicks = kIdle / 8 / kTick;
  static_assert(kRotationTicks > 8);
  constexpr Time kRotation = kIdle / 8;

  nf::MonitorNf monitor;
  SimRig rig(sim_cfg(state::StateStrategyKind::kWritingPartition, kTick,
                     kIdle),
             monitor);
  const net::FiveTuple flow = tuple_of(7);
  rig.send(flow, net::TcpFlags::kSyn);
  rig.advance(kMillisecond);
  FlowTable& table = rig.mbox.flow_table(rig.mbox.picker().pick(flow));
  ASSERT_EQ(table.size(), 1u);
  Time last_seen = 0;
  table.for_each([&](const net::FiveTuple&, void* entry) {
    last_seen = FlowTable::last_seen(entry);
  });
  ASSERT_GT(last_seen, 0u);

  const u64 budget =
      (table.total_groups() + kRotationTicks - 1) / kRotationTicks;
  std::vector<u64> cursor(kCores);
  for (u32 c = 0; c < kCores; ++c) {
    cursor[c] = rig.mbox.context(static_cast<CoreId>(c)).flows().sweep_cursor();
  }
  const Time present_until = last_seen + kIdle - kTick;
  const Time gone_by = last_seen + kIdle + kRotation + kTick;
  while (rig.sim.now() < gone_by) {
    // Step to the next tick boundary: exactly one housekeeping tick per core.
    rig.sim.run_until((rig.sim.now() / kTick + 1) * kTick);
    for (u32 c = 0; c < kCores; ++c) {
      const u64 now_at =
          rig.mbox.context(static_cast<CoreId>(c)).flows().sweep_cursor();
      ASSERT_LE(now_at - cursor[c], budget)
          << "core " << c << " scanned past ceil(groups / rotation_ticks) "
          << "in one tick at t=" << to_seconds(rig.sim.now());
      cursor[c] = now_at;
    }
    if (rig.sim.now() <= present_until) {
      ASSERT_EQ(table.size(), 1u)
          << "expired early at t=" << to_seconds(rig.sim.now());
    }
  }
  EXPECT_EQ(table.size(), 0u) << "not expired within one rotation";
  EXPECT_EQ(monitor.aggregate().connections_expired, 1u);
  // The sweep really rotated: more than one full pass over the table.
  EXPECT_GT(cursor[0], table.total_groups());
}

/// ACKs every 5 ms against a 60 ms timeout, for four timeouts, in one
/// direction only: outbound (the session lives on the outbound entry's
/// stamp) or on the return path (it lives on the pair entry's stamp, which
/// NAT's pair-idle check reads).
void sim_keepalive_under(state::StateStrategyKind kind, bool return_path) {
  constexpr Time kTick = 5 * kMillisecond;
  constexpr Time kIdle = 60 * kMillisecond;
  nf::NatNf nat;
  SimRig rig(sim_cfg(kind, kTick, kIdle), nat);
  std::vector<net::FiveTuple> acked;  // the tuple each session's ACKs carry
  for (const auto& f : nic::random_tcp_flows(8, 23)) {
    rig.send(f, net::TcpFlags::kSyn);
    rig.advance(kMillisecond);
    acked.push_back(return_path ? rig.sink.last.reversed() : f);
  }
  ASSERT_EQ(nat.counters().sessions_opened, acked.size());

  // Each session's ACK is one fixed packet, so it always lands on one core.
  // Find that core; the test only bites when some ACK lands away from the
  // session's designated core (under replication that core stamps its own
  // replica, not the owner's).
  u32 away = 0;
  for (const auto& t : acked) {
    const MiddleboxReport before = rig.mbox.report();
    rig.send(t, net::TcpFlags::kAck, return_path);
    rig.advance(kMillisecond);
    const MiddleboxReport after = rig.mbox.report();
    for (u32 c = 0; c < kCores; ++c) {
      if (after.per_core[c].regular_packets !=
              before.per_core[c].regular_packets &&
          c != rig.mbox.picker().pick(t)) {
        ++away;
      }
    }
  }
  ASSERT_GT(away, 0u) << "every ACK sprays to its designated core";

  for (Time t = 0; t < 4 * kIdle; t += kTick) {
    for (const auto& a : acked) rig.send(a, net::TcpFlags::kAck, return_path);
    rig.advance(kTick);
  }
  EXPECT_EQ(nat.counters().sessions_expired, 0u)
      << "sweep expired live sessions under " << state::to_string(kind);
  EXPECT_EQ(nat.port_pool().claimed(), acked.size());

  // Silence: now every session must idle out within one rotation.
  rig.advance(kIdle + 8 * kTick + kTick);
  EXPECT_EQ(nat.counters().sessions_expired, acked.size());
  EXPECT_EQ(nat.port_pool().claimed(), 0u);
}

TEST(SimAging, KeepAliveWritingPartition) {
  sim_keepalive_under(state::StateStrategyKind::kWritingPartition, false);
  sim_keepalive_under(state::StateStrategyKind::kWritingPartition, true);
}
TEST(SimAging, KeepAliveReplication) {
  sim_keepalive_under(state::StateStrategyKind::kReplication, false);
  sim_keepalive_under(state::StateStrategyKind::kReplication, true);
}

// --- report(): every live flow counted once, whatever the layout -------------

TEST(SimReport, FlowEntriesCountEachLiveFlowOnce) {
  // Every replica holds every flow: summing the per-core tables would count
  // each flow once per core under replication.
  for (const auto kind : kAllKinds) {
    nf::MonitorNf monitor;
    SimRig rig(sim_cfg(kind, 0, 0), monitor);
    const auto flows = nic::random_tcp_flows(16, 29);
    for (const auto& f : flows) rig.send(f, net::TcpFlags::kSyn);
    rig.advance(kMillisecond);
    ASSERT_EQ(monitor.aggregate().connections_opened, flows.size());
    EXPECT_EQ(rig.mbox.report().flow_entries, flows.size())
        << "under " << state::to_string(kind);
  }
}

// --- table_full: the silent-drop bug is now observable -----------------------

TEST(TableFull, MonitorCountsRefusedSyns) {
  net::PacketPool pool(8192, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Tiny tables, growth off: the SYN flood must overflow them.
  SprayerConfig cfg =
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0);
  cfg.lifecycle.flow_table_capacity = 64;
  ThreadedMiddlebox mbox(cfg, monitor, std::move(sink));
  mbox.start();
  constexpr u32 kSyns = 400;  // 4 cores x 56 usable slots << 400 flows
  for (u32 i = 0; i < kSyns; ++i) {
    must_inject(mbox, pool, tuple_of(i), net::TcpFlags::kSyn);
  }
  settle(mbox);
  const auto totals = monitor.aggregate();
  EXPECT_GT(totals.table_full, 0u);
  EXPECT_EQ(totals.connections_opened + totals.table_full, kSyns);
  mbox.stop();
}

// --- segmented resize under load (the TSan witness) --------------------------

TEST(ResizeUnderLoad, GrowthAbsorbsSynFloodWhileCoresRun) {
  net::PacketPool pool(16384, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Provision small, allow 8 segments: the flood fits only by growing
  // online while all cores insert, read, and sweep.
  SprayerConfig cfg =
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0);
  cfg.lifecycle.flow_table_capacity = 256;
  cfg.lifecycle.max_table_segments = 8;
  ThreadedMiddlebox mbox(cfg, monitor, std::move(sink));
  mbox.start();
  constexpr u32 kFlows = 2000;
  for (u32 i = 0; i < kFlows; ++i) {
    must_inject(mbox, pool, tuple_of(i), net::TcpFlags::kSyn);
    // Interleave reads of earlier flows: concurrent find during growth.
    if (i % 7 == 0) {
      must_inject(mbox, pool, tuple_of(i / 2), net::TcpFlags::kAck);
    }
  }
  settle(mbox);
  const auto totals = monitor.aggregate();
  EXPECT_EQ(totals.table_full, 0u) << "growth failed to absorb the flood";
  EXPECT_EQ(totals.connections_opened, kFlows);
  u64 grown_tables = 0;
  for (u32 c = 0; c < kCores; ++c) {
    if (mbox.flow_table(static_cast<CoreId>(c)).num_segments() > 1) {
      ++grown_tables;
    }
  }
  EXPECT_GT(grown_tables, 0u) << "no table actually grew";
  // Teardown drains everything back out across segment boundaries.
  for (u32 i = 0; i < kFlows; ++i) {
    must_inject(mbox, pool, tuple_of(i),
                net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  mbox.wait_idle();
  for (u32 i = 0; i < kFlows; ++i) {
    must_inject(mbox, pool, tuple_of(i).reversed(),
                net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  EXPECT_EQ(monitor.aggregate().connections_closed, kFlows);
  EXPECT_EQ(live_entries(mbox), 0u);
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

}  // namespace
}  // namespace sprayer::core
