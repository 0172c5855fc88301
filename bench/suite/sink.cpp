#include "sink.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "net/checksum.hpp"
#include "net/packet_pool.hpp"
#include "traffic.hpp"

namespace sprayer::suite {

namespace {

/// A worker thread's claim on one sink slot, released at thread exit.
struct Lease {
  const Sink* owner = nullptr;
  Sink::Slot* slot = nullptr;

  void release() noexcept {
    if (slot != nullptr) slot->leased.store(false, std::memory_order_release);
    slot = nullptr;
    owner = nullptr;
  }
  ~Lease() { release(); }
};

thread_local Lease tls_lease;

constexpr u64 kCheckMask = 63;  // 1 in 64 when not checking every packet
constexpr u64 kSpanMask = 255;  // 1 in 256 sink calls become spans
/// Windows with fewer samples than this have no quantiles (the phase's
/// last, partial window).
constexpr std::size_t kMinWindowSamples = 256;

/// A forwarded frame is valid when NAT rewrote its source to the external
/// address, the LB steered it to a backend MAC, and both checksums verify.
bool output_ok(net::Packet& pkt) noexcept {
  if (!pkt.is_tcp()) return false;
  net::Ipv4View ip = pkt.ipv4();
  if (ip.src() != kNatExternal) return false;
  const net::MacAddr mac = pkt.eth().dst();
  if (mac != kBackendMacs[0] && mac != kBackendMacs[1]) return false;
  if (net::ipv4_header_checksum(ip) != ip.checksum()) return false;
  // The IP total length, not the frame length: short segments are padded
  // to the Ethernet minimum.
  const u32 l4_len = ip.total_length() - ip.header_len();
  if (l4_len > pkt.l4_len()) return false;
  return net::l4_checksum_valid(ip.src(), ip.dst(), net::kProtoTcp,
                                pkt.l4_bytes(), l4_len);
}

}  // namespace

Sink::Sink(u32 workers) : workers_(workers) {
  SPRAYER_CHECK(workers <= kMaxSlots);
  for (u32 i = 0; i < workers; ++i) {
    slots_[i].latency = std::make_unique<LogHistogram>(kLatencyBits);
  }
}

void Sink::set_mode(Mode m) noexcept {
  check_all_.store(m.check_all, std::memory_order_relaxed);
  spans_.store(m.spans, std::memory_order_relaxed);
}

void Sink::reset_latency(u32 sample_shift, std::size_t expected) {
  for (Slot& s : slots_) {
    if (s.latency != nullptr) s.latency->reset();
    s.samples.clear();
  }
  // Workers lease the lowest free slots; slack covers an uneven spray.
  for (u32 i = 0; i < workers_; ++i) {
    slots_[i].samples.reserve(2 * expected / workers_ + 1024);
  }
  sample_mask_.store((u64{1} << sample_shift) - 1, std::memory_order_relaxed);
}

void Sink::start_latency(u64 start_ns, u64 window_base) noexcept {
  latency_start_.store(start_ns, std::memory_order_relaxed);
  window_base_.store(window_base, std::memory_order_relaxed);
  latency_.store(true, std::memory_order_relaxed);
}

void Sink::stop_latency() noexcept {
  latency_.store(false, std::memory_order_relaxed);
}

Sink::Slot& Sink::slot() noexcept {
  if (tls_lease.owner == this) return *tls_lease.slot;
  tls_lease.release();
  for (u32 i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    if (slots_[i].leased.compare_exchange_strong(expected, true,
                                                 std::memory_order_acquire)) {
      Slot& s = slots_[i];
      if (s.latency == nullptr) {
        s.latency = std::make_unique<LogHistogram>(kLatencyBits);
      }
      if (s.spans == nullptr) s.spans = std::make_unique<SpanLog>(1 + i);
      tls_lease.owner = this;
      tls_lease.slot = &s;
      return s;
    }
  }
  SPRAYER_CHECK_MSG(false, "more concurrent sink threads than slots");
  return slots_[0];
}

void Sink::operator()(std::span<net::Packet* const> pkts) noexcept {
  Slot& s = slot();
  const u64 calls = s.calls.load();
  const bool span = spans_.load(std::memory_order_relaxed) &&
                    (calls & kSpanMask) == 0;
  const bool latency = latency_.load(std::memory_order_relaxed);
  const u64 t0 = span || latency ? now_ns() : 0;
  if (latency) {
    const u64 start = latency_start_.load(std::memory_order_relaxed);
    const u64 base = window_base_.load(std::memory_order_relaxed);
    const u64 mask = sample_mask_.load(std::memory_order_relaxed);
    for (const net::Packet* pkt : pkts) {
      const u64 ns = t0 > pkt->ts_gen ? t0 - pkt->ts_gen : 0;
      s.latency->add(ns);
      if ((s.sample_tick++ & mask) == 0 && pkt->ts_gen >= start &&
          s.samples.size() < s.samples.capacity()) {
        const u64 window = base + (pkt->ts_gen - start) / kWindowNs;
        s.samples.push_back(
            window << 32 |
            std::min<u64>(ns, std::numeric_limits<u32>::max()));
      }
    }
  }
  const bool all = check_all_.load(std::memory_order_relaxed);
  u64 checked = 0;
  u64 bad = 0;
  for (net::Packet* pkt : pkts) {
    if (!all && (s.check_tick++ & kCheckMask) != 0) continue;
    ++checked;
    if (!output_ok(*pkt)) ++bad;
  }
  net::free_packets(pkts);
  s.checked += checked;
  if (bad != 0) s.bad += bad;
  s.calls.store(calls + 1);
  s.packets += pkts.size();
  if (span) s.spans->add("tx_sink", 0, t0, now_ns());
}

u64 Sink::forwarded() const noexcept {
  u64 n = 0;
  for (const Slot& s : slots_) n += s.packets.load();
  return n;
}

Sink::Totals Sink::totals() const {
  Totals t;
  for (const Slot& s : slots_) {
    t.packets += s.packets;
    t.calls += s.calls;
    t.checked += s.checked;
    t.bad += s.bad;
    if (s.latency != nullptr) t.latency.merge(*s.latency);
  }
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> Sink::window_quantiles(double q) const {
  std::vector<std::vector<double>> windows;
  for (const Slot& s : slots_) {
    for (const u64 v : s.samples) {
      const std::size_t w = v >> 32;
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(static_cast<double>(static_cast<u32>(v)));
    }
  }
  std::vector<double> out;
  for (auto& w : windows) {
    if (w.size() >= kMinWindowSamples) out.push_back(quantile(std::move(w), q));
  }
  return out;
}

void Sink::append_span_logs(std::vector<const SpanLog*>& out) const {
  for (const Slot& s : slots_) {
    if (s.spans != nullptr) out.push_back(s.spans.get());
  }
}

}  // namespace sprayer::suite
