#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"

namespace sprayer::suite {

namespace {

constexpr u32 kPayloadLen = kFrameLen - net::kTcpHeadersLen;  // 6
constexpr u32 kElephantFrames = 4096;
/// `wide` sessions: far from the NAT port pool's limit, so port claims stay
/// cheap (README.md, "Why wide has 16,384 sessions").
constexpr u32 kWideSessions = 16384;
/// `churn` concurrent connections, served round-robin.
constexpr u32 kChurnSlots = 16384;
constexpr u32 kWideFrames = 1u << 18;
/// Rounds of the churn cycle: each round sends one packet of every slot's
/// current connection, so a connection's packets are kChurnSlots apart.
constexpr u32 kChurnRounds = 32;
constexpr double kChurnMeanData = 6.0;

/// Client tuples to the VIP, distinct within one trace.
class TupleSource {
 public:
  explicit TupleSource(Rng& rng) : rng_(rng) {}

  net::FiveTuple next() {
    for (;;) {
      const u32 ip = (10u << 24) | static_cast<u32>(rng_.uniform(1u << 24));
      const u16 port = static_cast<u16>(1024 + rng_.uniform(65536 - 1024));
      if (!used_.insert((u64{ip} << 16) | port).second) continue;
      net::FiveTuple t;
      t.src_ip = net::Ipv4Addr{ip};
      t.dst_ip = kVip;
      t.src_port = port;
      t.dst_port = kVport;
      t.protocol = net::kProtoTcp;
      return t;
    }
  }

 private:
  Rng& rng_;
  std::unordered_set<u64> used_;
};

/// Appends kFrameLen-byte frames built by the repo's packet builder.
class FrameWriter {
 public:
  FrameWriter() : scratch_(2, 256) {}

  void append(std::vector<u8>& out, const net::FiveTuple& tuple, u8 flags,
              Rng* payload_rng) {
    net::TcpSegmentSpec spec;
    spec.tuple = tuple;
    spec.flags = flags;
    // The LB must rewrite this: the output check accepts backend MACs only.
    spec.dst_mac = net::MacAddr::from_id(0xfeed);
    u8 payload[kPayloadLen] = {};
    if (payload_rng != nullptr) {
      for (u8& b : payload) b = static_cast<u8>(payload_rng->next());
      spec.payload = payload;
      spec.payload_len = kPayloadLen;
    }
    net::Packet* pkt = net::build_tcp_raw(scratch_, spec);
    SPRAYER_CHECK(pkt != nullptr && pkt->len() == kFrameLen);
    out.insert(out.end(), pkt->data(), pkt->data() + kFrameLen);
    scratch_.free(pkt);
  }

 private:
  net::PacketPool scratch_;
};

constexpr u8 kData = net::TcpFlags::kAck;

Trace elephant(Rng& rng) {
  TupleSource tuples(rng);
  FrameWriter writer;
  Trace t;
  const net::FiveTuple flow = tuples.next();
  writer.append(t.syns, flow, net::TcpFlags::kSyn, nullptr);
  // A random payload per frame gives the one flow per-packet checksum
  // entropy, so the checksum spray spreads it over every core (the paper's
  // Fig. 6). With thousands of distinct frames the split between cores is
  // even for every seed; a few dozen variants would split it unevenly and
  // make the rate depend on the seed.
  t.frames.reserve(std::size_t{kElephantFrames} * kFrameLen);
  for (u32 i = 0; i < kElephantFrames; ++i) {
    writer.append(t.frames, flow, kData, &rng);
  }
  return t;
}

Trace wide(Rng& rng) {
  TupleSource tuples(rng);
  FrameWriter writer;
  Trace t;
  std::vector<net::FiveTuple> flows(kWideSessions);
  for (auto& f : flows) {
    f = tuples.next();
    writer.append(t.syns, f, net::TcpFlags::kSyn, nullptr);
  }
  t.frames.reserve(std::size_t{kWideFrames} * kFrameLen);
  for (u32 i = 0; i < kWideFrames; ++i) {
    writer.append(t.frames, flows[rng.uniform(kWideSessions)], kData, &rng);
  }
  return t;
}

/// Data packets per connection: geometric on {1, 2, ...} with mean
/// kChurnMeanData (the caller truncates it to fit the cycle).
u32 churn_length(Rng& rng) {
  const double p = 1.0 / kChurnMeanData;
  double u;
  do {
    u = rng.uniform01();
  } while (u == 0.0);
  const double extra = std::floor(std::log(u) / std::log1p(-p));
  return static_cast<u32>(std::min<double>(1.0 + extra, kChurnRounds));
}

Trace churn(Rng& rng) {
  TupleSource tuples(rng);
  FrameWriter writer;
  // Per slot, kChurnRounds packets: back-to-back connections of SYN, L data
  // packets, client RST. The last connection is sized so that the slot
  // closes exactly at the end of the cycle.
  struct Pkt {
    u32 tuple;
    u8 flags;
  };
  std::vector<net::FiveTuple> conns;
  std::vector<Pkt> plan(std::size_t{kChurnSlots} * kChurnRounds);
  for (u32 s = 0; s < kChurnSlots; ++s) {
    u32 r = 0;
    while (r < kChurnRounds) {
      const u32 remaining = kChurnRounds - r;
      u32 data = churn_length(rng);
      if (data + 2 > remaining || remaining - (data + 2) < 2) {
        data = remaining - 2;
      }
      const u32 id = static_cast<u32>(conns.size());
      conns.push_back(tuples.next());
      auto put = [&](u8 flags) {
        plan[std::size_t{r} * kChurnSlots + s] = Pkt{id, flags};
        ++r;
      };
      put(net::TcpFlags::kSyn);
      for (u32 i = 0; i < data; ++i) put(kData);
      put(net::TcpFlags::kRst);
    }
  }
  Trace t;
  t.frames.reserve(plan.size() * kFrameLen);
  for (const Pkt& p : plan) {
    writer.append(t.frames, conns[p.tuple], p.flags,
                  p.flags == kData ? &rng : nullptr);
  }
  return t;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Trace make_trace(Workload w, u64 seed) {
  // `churn` and `churn_repl` share the seed stream: identical frames, so
  // the pair isolates the state layer.
  Rng rng(seed * 4 + (is_churn(w) ? 2 : static_cast<u64>(w)));
  switch (w) {
    case Workload::kElephant:
      return elephant(rng);
    case Workload::kWide:
      return wide(rng);
    case Workload::kChurn:
    case Workload::kChurnRepl:
      return churn(rng);
  }
  return {};
}

}  // namespace sprayer::suite
