// NAT in depth: port pool semantics, designated-core-preserving port
// selection, header rewriting with valid checksums in both directions,
// session lifecycle (SYN/FIN/RST), pool exhaustion, and end-to-end TCP.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/middlebox.hpp"
#include "net/checksum.hpp"
#include "nf/nat.hpp"
#include "nf/port_pool.hpp"
#include "nic/pktgen.hpp"
#include "tcp/iperf.hpp"

namespace sprayer::nf {
namespace {

TEST(PortPool, ClaimReleaseExhaust) {
  PortPool pool(100, 103);  // 4 ports
  EXPECT_EQ(pool.size(), 4u);
  std::vector<u16> claimed;
  for (int i = 0; i < 4; ++i) {
    const u16 p = pool.claim();
    ASSERT_NE(p, 0);
    EXPECT_GE(p, 100);
    EXPECT_LE(p, 103);
    claimed.push_back(p);
  }
  EXPECT_EQ(pool.claim(), 0);  // exhausted
  EXPECT_EQ(pool.available(), 0u);
  pool.release(claimed[2]);
  EXPECT_EQ(pool.claim(), claimed[2]);  // rotating cursor finds it
}

TEST(PortPool, ClaimMatchingHonorsPredicate) {
  PortPool pool(1000, 1999);
  const u16 even = pool.claim_matching([](u16 p) { return p % 2 == 0; });
  ASSERT_NE(even, 0);
  EXPECT_EQ(even % 2, 0);
  const u16 none =
      pool.claim_matching([](u16) { return false; });
  EXPECT_EQ(none, 0);
  EXPECT_EQ(pool.claimed(), 1u);
}

TEST(PortPool, ReleaseValidation) {
  PortPool pool(10, 20);
  EXPECT_THROW(pool.release(9), std::logic_error);    // out of range
  EXPECT_THROW(pool.release(15), std::logic_error);   // not claimed
}

// A tiny harness running the NAT inside the simulated middlebox with
// hand-crafted packets.
struct NatBench {
  sim::Simulator sim;
  net::PacketPool pool{4096, 256};
  NatNf nat;
  core::SimMiddlebox mbox;
  std::vector<net::Packet*> out;  // captured at the sinks

  class Capture final : public sim::IPacketSink {
   public:
    explicit Capture(std::vector<net::Packet*>& sink) : sink_(sink) {}
    void receive(net::Packet* pkt) override { sink_.push_back(pkt); }

   private:
    std::vector<net::Packet*>& sink_;
  } capture{out};

  sim::Link in_link;
  sim::Link out_link;
  sim::Link back_link;

  NatBench()
      : nat(NatConfig{}),
        mbox(sim, core::SprayerConfig{}, nat),
        in_link(sim, make_in_cfg(0), mbox.ingress(), "in0"),
        out_link(sim, sim::LinkConfig{}, capture, "out1"),
        back_link(sim, sim::LinkConfig{}, capture, "out0") {
    mbox.attach_tx_link(1, out_link);
    mbox.attach_tx_link(0, back_link);
  }

  ~NatBench() {
    for (net::Packet* pkt : out) pool.free(pkt);
  }

  static sim::LinkConfig make_in_cfg(u8 port) {
    sim::LinkConfig cfg;
    cfg.egress_port_label = port;
    return cfg;
  }

  /// Send one TCP packet from the inside (port 0) and run to quiescence.
  void send_inside(const net::FiveTuple& t, u8 flags, u64 payload_seed = 1) {
    net::TcpSegmentSpec spec;
    spec.tuple = t;
    spec.flags = flags;
    spec.payload_len = 8;
    u8 payload[8];
    std::memcpy(payload, &payload_seed, 8);
    spec.payload = payload;
    in_link.send(net::build_tcp_raw(pool, spec));
    // Bounded: periodic housekeeping events keep the queue non-empty.
    sim.run_until(sim.now() + kMillisecond);
  }
};

const net::FiveTuple kFlow{net::Ipv4Addr{10, 0, 0, 5},
                           net::Ipv4Addr{93, 184, 216, 34}, 43210, 443,
                           net::kProtoTcp};

TEST(Nat, SynOpensSessionAndRewritesSource) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);

  ASSERT_EQ(b.out.size(), 1u);
  net::Packet* pkt = b.out[0];
  ASSERT_TRUE(pkt->parse());
  net::Ipv4View ip = pkt->ipv4();
  EXPECT_EQ(ip.src(), (net::Ipv4Addr{192, 0, 2, 1}));  // default external
  EXPECT_EQ(ip.dst(), kFlow.dst_ip);                   // untouched
  EXPECT_NE(pkt->tcp().src_port(), kFlow.src_port);    // translated

  // Checksums must remain valid after the incremental updates.
  EXPECT_EQ(net::internet_checksum(ip.bytes(), ip.header_len()), 0);
  EXPECT_TRUE(net::l4_checksum_valid(ip.src(), ip.dst(), net::kProtoTcp,
                                     pkt->l4_bytes(),
                                     ip.total_length() - ip.header_len()));
  EXPECT_EQ(b.nat.counters().sessions_opened, 1u);
  EXPECT_EQ(b.nat.port_pool().claimed(), 1u);
}

TEST(Nat, TranslatedReturnFlowMapsToSameDesignatedCore) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);
  ASSERT_EQ(b.out.size(), 1u);
  ASSERT_TRUE(b.out[0]->parse());
  const net::FiveTuple translated = b.out[0]->five_tuple();

  // The invariant that makes the Figure 5 NAT work under spraying: the
  // return flow's designated core is the core that owns the state.
  EXPECT_EQ(b.mbox.picker().pick(translated.reversed()),
            b.mbox.picker().pick(kFlow));
}

TEST(Nat, ReturnTrafficRewrittenBackToClient) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);
  ASSERT_EQ(b.out.size(), 1u);
  ASSERT_TRUE(b.out[0]->parse());
  const net::FiveTuple translated = b.out[0]->five_tuple();

  // Server's SYN-ACK arrives on the outside port (1).
  net::TcpSegmentSpec spec;
  spec.tuple = translated.reversed();
  spec.flags = net::TcpFlags::kSyn | net::TcpFlags::kAck;
  net::Packet* synack = net::build_tcp_raw(b.pool, spec);
  sim::LinkConfig in1 = NatBench::make_in_cfg(1);
  sim::Link outside_link(b.sim, in1, b.mbox.ingress(), "in1");
  outside_link.send(synack);
  b.sim.run_until(b.sim.now() + kMillisecond);

  ASSERT_EQ(b.out.size(), 2u);
  net::Packet* back = b.out[1];
  ASSERT_TRUE(back->parse());
  // Restored to the original client address/port.
  EXPECT_EQ(back->ipv4().dst(), kFlow.src_ip);
  EXPECT_EQ(back->tcp().dst_port(), kFlow.src_port);
  EXPECT_EQ(back->ipv4().src(), kFlow.dst_ip);
  net::Ipv4View ip = back->ipv4();
  EXPECT_TRUE(net::l4_checksum_valid(ip.src(), ip.dst(), net::kProtoTcp,
                                     back->l4_bytes(),
                                     ip.total_length() - ip.header_len()));
}

TEST(Nat, RegularPacketsUseExistingSession) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);
  b.send_inside(kFlow, net::TcpFlags::kAck, 2);
  b.send_inside(kFlow, net::TcpFlags::kAck | net::TcpFlags::kPsh, 3);
  EXPECT_EQ(b.out.size(), 3u);
  EXPECT_EQ(b.nat.counters().sessions_opened, 1u);  // no duplicate sessions
  for (net::Packet* pkt : b.out) {
    ASSERT_TRUE(pkt->parse());
    EXPECT_EQ(pkt->ipv4().src(), (net::Ipv4Addr{192, 0, 2, 1}));
  }
}

TEST(Nat, UnsolicitedPacketsDropped) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kAck);  // no session: dropped
  EXPECT_EQ(b.out.size(), 0u);
  EXPECT_EQ(b.nat.counters().unmatched_dropped, 1u);

  // Inbound SYN (port 1) must not open a session either.
  net::TcpSegmentSpec spec;
  spec.tuple = kFlow;
  spec.flags = net::TcpFlags::kSyn;
  sim::LinkConfig in1 = NatBench::make_in_cfg(1);
  sim::Link outside_link(b.sim, in1, b.mbox.ingress(), "in1");
  outside_link.send(net::build_tcp_raw(b.pool, spec));
  b.sim.run_until(b.sim.now() + kMillisecond);
  EXPECT_EQ(b.out.size(), 0u);
  EXPECT_EQ(b.nat.counters().sessions_opened, 0u);
}

TEST(Nat, RstTearsDownImmediately) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);
  EXPECT_EQ(b.nat.port_pool().claimed(), 1u);
  b.send_inside(kFlow, net::TcpFlags::kRst);
  EXPECT_EQ(b.nat.counters().sessions_closed, 1u);
  EXPECT_EQ(b.nat.port_pool().claimed(), 0u);
  EXPECT_EQ(b.mbox.flow_table(b.mbox.picker().pick(kFlow)).size(), 0u);
}

TEST(Nat, TwoFinsCloseTheSession) {
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);
  ASSERT_TRUE(b.out[0]->parse());
  const net::FiveTuple translated = b.out[0]->five_tuple();

  b.send_inside(kFlow, net::TcpFlags::kFin | net::TcpFlags::kAck);
  EXPECT_EQ(b.nat.counters().sessions_closed, 0u);  // half-closed

  net::TcpSegmentSpec spec;
  spec.tuple = translated.reversed();
  spec.flags = net::TcpFlags::kFin | net::TcpFlags::kAck;
  sim::LinkConfig in1 = NatBench::make_in_cfg(1);
  sim::Link outside_link(b.sim, in1, b.mbox.ingress(), "in1");
  outside_link.send(net::build_tcp_raw(b.pool, spec));
  b.sim.run_until(b.sim.now() + kMillisecond);

  EXPECT_EQ(b.nat.counters().sessions_closed, 1u);
  // TIME_WAIT: the translation lingers and the port stays claimed until
  // the deadline.
  EXPECT_EQ(b.nat.port_pool().claimed(), 1u);
  core::FlowTable& table = b.mbox.flow_table(b.mbox.picker().pick(kFlow));
  EXPECT_GT(table.size(), 0u);
  // The close stamped both entries: TIME_WAIT runs from that instant.
  Time closed_at = 0;
  table.for_each([&](const net::FiveTuple&, void* entry) {
    closed_at = std::max(closed_at, core::FlowTable::last_seen(entry));
  });
  const Time deadline = closed_at + NatConfig{}.time_wait;

  // A trailing ACK (the close handshake's last segment) still translates.
  const auto before_out = b.out.size();
  b.send_inside(kFlow, net::TcpFlags::kAck, 99);
  EXPECT_EQ(b.out.size(), before_out + 1);

  // Held until the deadline, released by the first housekeeping tick past
  // it — however far the idle sweep's rotation has to go.
  b.sim.run_until(deadline - kMicrosecond);
  EXPECT_EQ(b.nat.port_pool().claimed(), 1u);
  EXPECT_EQ(b.nat.counters().sessions_expired, 0u);
  b.sim.run_until(deadline + b.mbox.config().housekeeping_interval);
  EXPECT_EQ(b.nat.port_pool().claimed(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(b.nat.counters().sessions_expired, 1u);
}

TEST(Nat, RevivedSessionOutlivesItsStaleTimeWaitDeadline) {
  // A SYN during TIME_WAIT revives the session, so the queued deadline
  // goes stale; a second close queues a fresh one. Only that one may
  // release the port.
  NatBench b;
  b.send_inside(kFlow, net::TcpFlags::kSyn);
  ASSERT_TRUE(b.out[0]->parse());
  const net::FiveTuple back = b.out[0]->five_tuple().reversed();
  sim::Link outside_link(b.sim, NatBench::make_in_cfg(1), b.mbox.ingress(),
                         "in1");
  const Time tick = b.mbox.config().housekeeping_interval;
  const Time time_wait = NatConfig{}.time_wait;
  auto close_both_ways = [&] {
    b.send_inside(kFlow, net::TcpFlags::kFin | net::TcpFlags::kAck);
    net::TcpSegmentSpec spec;
    spec.tuple = back;
    spec.flags = net::TcpFlags::kFin | net::TcpFlags::kAck;
    outside_link.send(net::build_tcp_raw(b.pool, spec));
    const Time sent = b.sim.now();
    b.sim.run_until(sent + kMillisecond);
    return sent;  // the close ran within the millisecond after this
  };

  const Time first_close = close_both_ways();
  ASSERT_EQ(b.nat.counters().sessions_closed, 1u);
  b.send_inside(kFlow, net::TcpFlags::kSyn);  // revive
  EXPECT_EQ(b.nat.counters().sessions_opened, 2u);
  b.sim.run_until(first_close + kMillisecond + time_wait + tick);
  EXPECT_EQ(b.nat.port_pool().claimed(), 1u) << "stale deadline reaped";
  EXPECT_EQ(b.nat.counters().sessions_expired, 0u);

  const Time second_close = close_both_ways();
  ASSERT_EQ(b.nat.counters().sessions_closed, 2u);
  b.sim.run_until(second_close + kMillisecond + time_wait + tick);
  EXPECT_EQ(b.nat.port_pool().claimed(), 0u);
  EXPECT_EQ(b.nat.counters().sessions_expired, 1u);
  EXPECT_EQ(b.mbox.flow_table(b.mbox.picker().pick(kFlow)).size(), 0u);
}

TEST(Nat, PortExhaustionDropsNewSessions) {
  NatConfig cfg;
  cfg.port_lo = 10000;
  cfg.port_hi = 10003;  // 4 ports only

  sim::Simulator sim;
  net::PacketPool pool(1024, 256);
  NatNf nat(cfg);
  core::SimMiddlebox mbox(sim, core::SprayerConfig{}, nat);

  class NullSink final : public sim::IPacketSink {
   public:
    void receive(net::Packet* pkt) override { pkt->pool()->free(pkt); }
  } sink;
  sim::LinkConfig in0;
  in0.egress_port_label = 0;
  sim::Link in_link(sim, in0, mbox.ingress(), "in");
  sim::Link out1(sim, sim::LinkConfig{}, sink, "o1");
  sim::Link out0(sim, sim::LinkConfig{}, sink, "o0");
  mbox.attach_tx_link(1, out1);
  mbox.attach_tx_link(0, out0);

  const auto flows = nic::random_tcp_flows(10, 99);
  for (const auto& f : flows) {
    net::TcpSegmentSpec spec;
    spec.tuple = f;
    spec.flags = net::TcpFlags::kSyn;
    in_link.send(net::build_tcp_raw(pool, spec));
  }
  sim.run_until(sim.now() + kMillisecond);

  // Port selection needs a port whose reverse flow maps to the right core,
  // so with only 4 ports some of the first 4+ sessions may already fail —
  // but at least one must succeed and the rest must be counted.
  EXPECT_GT(nat.counters().sessions_opened, 0u);
  EXPECT_LE(nat.counters().sessions_opened, 4u);
  EXPECT_GT(nat.counters().port_exhausted, 0u);
  // Every SYN either opened a session or hit pool exhaustion (an exhausted
  // SYN is also counted as an unmatched drop).
  EXPECT_EQ(nat.counters().sessions_opened + nat.counters().port_exhausted,
            10u);
  EXPECT_EQ(nat.counters().unmatched_dropped,
            nat.counters().port_exhausted);
}

TEST(Nat, EndToEndTcpThroughSprayedNat) {
  NatNf nat;
  tcp::IperfScenario sc;
  sc.num_flows = 4;
  sc.warmup = from_seconds(0.02);
  sc.duration = from_seconds(0.1);
  sc.tcp.bytes_to_send = 2'000'000;
  sc.mbox.mode = core::DispatchMode::kSpray;
  sc.seed = 31;
  const auto result = run_iperf(nat, sc);

  EXPECT_EQ(nat.counters().sessions_opened, 4u);
  for (const auto& f : result.flows) {
    EXPECT_EQ(f.final_state, tcp::TcpState::kDone) << f.tuple.to_string();
  }
  EXPECT_EQ(nat.counters().sessions_closed, 4u);
  EXPECT_EQ(nat.port_pool().claimed(), 0u);
}

}  // namespace
}  // namespace sprayer::nf
