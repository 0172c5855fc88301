// The suite's TX sink: the ThreadedMiddlebox hands it every forwarded
// verdict batch on a worker thread. It counts packets (the driver turns the
// running count into window rates), records one-way latency from each
// packet's due time (`Packet::ts_gen`, which the threaded path never
// touches) during the latency phase, checks forwarded frames, and frees
// them.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/histogram.hpp"
#include "common/relaxed.hpp"
#include "net/packet.hpp"
#include "spans.hpp"

namespace sprayer::suite {

/// Linear-interpolated q-quantile of a sample (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Width of the windows rates and latency quantiles are taken over.
inline constexpr u64 kWindowNs = 100'000'000;
/// All-packet latency histograms resolve 1 ns below 1.024 us, 1/1024 above.
inline constexpr unsigned kLatencyBits = 10;

class Sink {
 public:
  /// Pre-allocates the histograms of `workers` slots.
  explicit Sink(u32 workers);

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  struct Mode {
    bool check_all = false;  // check every packet, not 1 in 64
    bool spans = false;      // record 1 in 256 sink calls as spans
  };
  /// The set-up calls below change state the workers read: call them only
  /// while no batch is in flight (after wait_idle()).
  void set_mode(Mode m) noexcept;
  /// Clears the latency record. Every packet recorded goes into an
  /// all-packet histogram, and 1 in 2^`sample_shift` per worker becomes a
  /// sample of its due-time window; `expected` bounds the samples kept.
  void reset_latency(u32 sample_shift, std::size_t expected);
  /// Records latency for packets due from `start_ns` on, numbering their
  /// 100 ms due-time windows from `window_base`.
  void start_latency(u64 start_ns, u64 window_base) noexcept;
  void stop_latency() noexcept;

  void operator()(std::span<net::Packet* const> pkts) noexcept;

  /// Packets handed to the sink so far (racy sum; for window rates).
  [[nodiscard]] u64 forwarded() const noexcept;

  struct Totals {
    u64 packets = 0;
    u64 calls = 0;
    u64 checked = 0;
    u64 bad = 0;
    LogHistogram latency{kLatencyBits};  // every latency-phase packet
  };
  /// Exact only while no batch is in flight.
  [[nodiscard]] Totals totals() const;
  /// The q-quantile (ns) of each due-time window's latency samples, for
  /// windows with enough samples to have one. Only while no batch is in
  /// flight.
  [[nodiscard]] std::vector<double> window_quantiles(double q) const;

  void append_span_logs(std::vector<const SpanLog*>& out) const;

  struct alignas(kCacheLineSize) Slot {
    std::atomic<bool> leased{false};
    RelaxedU64 packets;
    RelaxedU64 calls;
    RelaxedU64 checked;
    RelaxedU64 bad;
    u64 check_tick = 0;
    u64 sample_tick = 0;
    std::unique_ptr<LogHistogram> latency;
    std::vector<u64> samples;  // window << 32 | latency ns
    std::unique_ptr<SpanLog> spans;
  };

 private:
  /// The calling worker's slot, leased on its first call and released when
  /// the thread exits (the middlebox restarts its workers on start()).
  Slot& slot() noexcept;

  static constexpr u32 kMaxSlots = 64;
  std::array<Slot, kMaxSlots> slots_;
  u32 workers_;
  std::atomic<bool> latency_{false};
  std::atomic<bool> check_all_{false};
  std::atomic<bool> spans_{false};
  std::atomic<u64> latency_start_{0};
  std::atomic<u64> window_base_{0};
  std::atomic<u64> sample_mask_{0};
};

}  // namespace sprayer::suite
