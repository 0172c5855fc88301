// Sprayer benchmark suite: one end-to-end benchmark of the real threaded
// data path. Each workload runs the canonical fused NAT -> firewall -> LB ->
// monitor chain on a ThreadedMiddlebox (2 worker cores plus this process's
// driver thread), fed from one seeded generator, in this order:
//
//   1. set-up, timed (construction, start(), one SYN per pre-established
//      flow through the connection path, wait_idle()), repeated and the
//      median reported;
//   2. warm-up flood, discarded;
//   3. `seconds` of measurement, in rounds of two halves:
//      saturation: closed-loop flood with back-pressure, forwarded packets
//      counted in 100 ms windows (rate_mpps is the windows' 90th
//      percentile);
//      latency: open loop at the workload's frozen rate from an idle
//      system; every packet's due time rides in Packet::ts_gen and the TX
//      sink records now - due.
//
// The shipped SprayerConfig defaults are used with one change,
// overload_policy = kBlock, so a run is lossless and a stall shows up as
// latency rather than as drops. traced=1 runs the per-layer variant
// (README.md): per-hop timing, the 1-in-64 path tracer and the reorder
// observatory, plus the suite's own spans, written to <out>.spans.json.
//
// Every metric is printed by name with its unit, followed by one JSON
// result line; the exit code is 1 if any output check failed, 2 on bad
// arguments.
//
//   ./sprayer_suite [workload=elephant|wide|churn|churn_repl|all] [seed=1]
//       [seconds=24] [traced=0] [cores=2] [quick=0] [out=sprayer_suite]
//
// workload=all (the default) runs each workload in its own process, so
// memory and allocator state stay per workload. quick=1 shortens every
// phase to a smoke test that still runs every output check.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/compiler.hpp"
#include "common/config.hpp"
#include "common/histogram.hpp"
#include "core/chain.hpp"
#include "core/threaded.hpp"
#include "net/packet_pool.hpp"
#include "nf/firewall.hpp"
#include "nf/load_balancer.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "sink.hpp"
#include "spans.hpp"
#include "traffic.hpp"

extern char** environ;

namespace {

using namespace sprayer;
using namespace sprayer::suite;

constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;

/// Span times are written relative to this.
const u64 kProcessStart = now_ns();

constexpr u32 kBurst = 32;
// Large enough that kBlock back-pressure, not pool exhaustion, bounds the
// packets in flight (rx rings hold 2 x 4096).
constexpr u32 kPoolPackets = 1u << 15;
constexpr u32 kPoolBuffer = 256;
constexpr u64 kBurstSpanMask = 255;  // 1 in 256 driver bursts become spans
/// A failed packet counts as +infinity in the latency quantiles; JSON has
/// no infinity, so such a quantile reads as this many microseconds.
constexpr double kInfiniteUs = 1e9;

// --- arguments -------------------------------------------------------------

struct Options {
  std::vector<const WorkloadSpec*> workloads;
  u64 seed = 1;
  double seconds = 24.0;
  bool traced = false;
  bool quick = false;
  u32 cores = 2;
  std::string out = "sprayer_suite";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "sprayer_suite: %s\n", msg.c_str());
  std::exit(kExitUsage);
}

u64 parse_u64(const CliConfig& cli, const char* key, u64 fallback) {
  if (!cli.has(key)) return fallback;
  const std::string s = cli.get(key, "");
  u64 v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) {
    usage_error(std::string(key) + "=" + s +
                ": expected a non-negative integer");
  }
  return v;
}

bool parse_flag(const CliConfig& cli, const char* key) {
  const u64 v = parse_u64(cli, key, 0);
  if (v > 1) usage_error(std::string(key) + " must be 0 or 1");
  return v == 1;
}

Options parse_options(int argc, char** argv) {
  std::optional<CliConfig> cli;
  try {
    cli.emplace(argc, argv);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
  Options o;
  o.quick = parse_flag(*cli, "quick");
  o.traced = parse_flag(*cli, "traced");
  o.seed = parse_u64(*cli, "seed", 1);
  const u64 cores = parse_u64(*cli, "cores", 2);
  if (cores == 0 || cores > 64 || !std::has_single_bit(cores)) {
    usage_error("cores=" + std::to_string(cores) +
                ": the worker count must be a power of two from 1 to 64 "
                "(the RSS indirection table has 128 entries)");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && cores >= hw) {
    usage_error("cores=" + std::to_string(cores) +
                " leaves no hardware thread for the driver (" +
                std::to_string(hw) + " available)");
  }
  o.cores = static_cast<u32>(cores);
  o.seconds = o.quick ? (o.traced ? 1.2 : 0.6) : 24.0;
  if (cli->has("seconds")) {
    const std::string s = cli->get("seconds", "");
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !std::isfinite(v) || v <= 0 ||
        v > 600) {
      usage_error("seconds=" + s + ": expected a number in (0, 600]");
    }
    o.seconds = v;
  }
  o.out = cli->get("out", o.out);
  const std::string wl = cli->get("workload", "all");
  if (wl == "all") {
    for (const WorkloadSpec& w : kWorkloads) o.workloads.push_back(&w);
  } else if (const WorkloadSpec* w = find_workload(wl)) {
    o.workloads.push_back(w);
  } else {
    usage_error("unknown workload '" + wl +
                "' (elephant, wide, churn, churn_repl or all)");
  }
  return o;
}

// --- statistics ------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Quantile of a registry histogram merged over shards, interpolated inside
/// the bucket it falls in (0 when the histogram is empty or absent).
double registry_quantile(const telemetry::MetricsRegistry& reg,
                         const std::string& name, double q) {
  for (const auto& h : reg.hist_info()) {
    if (h.name != name) continue;
    std::vector<u64> counts(h.proto.num_buckets(), 0);
    u64 total = 0;
    for (u32 s = 0; s < reg.num_shards(); ++s) {
      for (std::size_t i = 0; i < counts.size(); ++i) {
        const u64 c = reg.hist_cell(s, h.offset + static_cast<u32>(i));
        counts[i] += c;
        total += c;
      }
    }
    if (total == 0) return 0.0;
    const double target = q * static_cast<double>(total);
    u64 seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (static_cast<double>(seen + counts[i]) >= target) {
        const double lo = static_cast<double>(h.proto.lower_edge(i));
        const double width =
            static_cast<double>(h.proto.upper_edge(i)) - lo + 1.0;
        return lo + width * (target - static_cast<double>(seen)) /
                        static_cast<double>(counts[i]);
      }
      seen += counts[i];
    }
  }
  return 0.0;
}

/// Latency quantile in microseconds, counting `failed` packets as
/// +infinity.
double latency_us(const LogHistogram& h, u64 failed, double q) {
  const double n = static_cast<double>(h.count());
  const double total = n + static_cast<double>(failed);
  if (total == 0) return 0.0;
  if (q * total > n) return kInfiniteUs;
  return static_cast<double>(h.quantile(q * total / n)) / 1e3;
}

double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  u64 size = 0;
  u64 resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- the middlebox under test ------------------------------------------------

enum class Role {
  kUntraced,  // shipped defaults: the end-to-end numbers
  kTraced,    // + per-hop timing and the 1-in-64 path tracer
  kReorder,   // + the reorder observatory (it would hide an elephant's
              //   only flow from the tracer, so it runs on its own)
};

core::SprayerConfig config_for(Role role, u32 cores, Workload w) {
  core::SprayerConfig cfg;
  cfg.num_cores = cores;
  cfg.overload_policy = OverloadPolicy::kBlock;
  if (w == Workload::kChurnRepl) {
    cfg.state.kind = state::StateStrategyKind::kReplication;
  }
  cfg.chain_hop_timing = role == Role::kTraced;
  cfg.trace.enabled = role == Role::kTraced;
  cfg.reorder_observatory = role == Role::kReorder;
  return cfg;
}

nf::NatConfig nat_config() {
  nf::NatConfig c;
  c.external_ip = kNatExternal;
  return c;
}

nf::LbConfig lb_config() {
  nf::LbConfig c;
  c.vip = kVip;
  c.vport = kVport;
  c.backends = {{kBackendMacs[0], net::Ipv4Addr{10, 1, 0, 1}},
                {kBackendMacs[1], net::Ipv4Addr{10, 1, 0, 2}}};
  return c;
}

using Chain = core::NfChain<nf::NatNf, nf::FirewallNf, nf::LoadBalancerNf,
                            nf::MonitorNf>;

/// One middlebox with its own NFs and trace cursor, plus the accounting the
/// conservation check needs. Only one instance runs at a time, so the sink's
/// running count splits cleanly between them.
struct Instance {
  Instance(const core::SprayerConfig& cfg, Sink& sink)
      : lb(lb_config()),
        chain(nat, fw, lb, mon),
        mbox(cfg, chain, [&sink](std::span<net::Packet* const> pkts) {
          sink(pkts);
        }) {
    const auto& scalars = mbox.metrics().scalar_info();
    for (u32 i = 0; i < scalars.size(); ++i) {
      if (scalars[i].name == "driver.block_spins") block_spins_slot = i;
    }
  }

  [[nodiscard]] u64 block_spins() noexcept {
    return mbox.metrics().scalar_cell(mbox.driver_shard(), block_spins_slot);
  }

  void activate(const Sink& sink) {
    sink_mark = sink.forwarded();
    mbox.start();
  }
  void deactivate(const Sink& sink) {
    mbox.wait_idle();
    forwarded += sink.forwarded() - sink_mark;
    mbox.stop();
  }

  nf::NatNf nat{nat_config()};
  nf::FirewallNf fw{nf::Acl{/*default_allow=*/true}};
  nf::LoadBalancerNf lb;
  nf::MonitorNf mon;
  Chain chain;
  core::ThreadedMiddlebox mbox;
  u32 block_spins_slot = 0;
  u32 cursor = 0;      // next trace frame
  u64 offered = 0;     // packets inject_bulk accepted
  u64 rejected = 0;    // packets inject_bulk shed (never, under kBlock)
  u64 forwarded = 0;   // packets the sink received from this instance
  u64 sink_mark = 0;   // sink count when this instance last started
};

// --- the driver ----------------------------------------------------------------

/// Driver-side time, accumulated only while instrumenting.
struct DriverStats {
  u64 packets = 0;
  u64 alloc_ns = 0;
  u64 copy_ns = 0;
  u64 free_inject_ns = 0;  // inject_bulk calls that never waited
  u64 free_inject_pkts = 0;
  u64 blocked_ns = 0;  // inject_bulk calls that waited on a full ring
  u64 flood_ns = 0;    // wall time of instrumented floods
};

class Driver {
 public:
  Driver(net::PacketPool& pool, const Trace& trace, const Sink& sink,
         SpanLog& spans)
      : pool_(pool), trace_(trace), sink_(sink), spans_(spans) {}

  /// One SYN per pre-established flow, through inject_bulk.
  void establish(Instance& in) {
    std::array<net::Packet*, kBurst> burst{};
    for (u32 i = 0; i < trace_.established();) {
      const u32 want = std::min(kBurst, trace_.established() - i);
      const u32 n = pool_.alloc_bulk({burst.data(), want});
      for (u32 k = 0; k < n; ++k) {
        std::memcpy(burst[k]->data(), trace_.syn(i + k), kFrameLen);
        burst[k]->set_len(kFrameLen);
      }
      admit(in, {burst.data(), n}, in.mbox.inject_bulk({burst.data(), n}));
      i += n;
      if (n == 0) std::this_thread::yield();
    }
  }

  /// Closed loop with back-pressure for `seconds`; appends 100 ms window
  /// rates (Mpps) to `windows` when given.
  void flood(Instance& in, double seconds, bool instrument,
             std::vector<double>* windows, const char* phase) {
    const u64 start = now_ns();
    const u64 until = start + static_cast<u64>(seconds * 1e9);
    const u64 span = spans_.open(phase, 0, start);
    u64 window_end = start + kWindowNs;
    u64 window_start = start;
    u64 mark = sink_.forwarded();
    u64 end = start;
    for (;;) {
      end = now_ns();
      if (windows != nullptr && end >= window_end) {
        const u64 f = sink_.forwarded();
        windows->push_back(static_cast<double>(f - mark) * 1e3 /
                           static_cast<double>(end - window_start));
        mark = f;
        window_start = end;
        window_end = end + kWindowNs;
      }
      if (end >= until) break;
      send(in, kBurst, nullptr, instrument, span);
    }
    spans_.close(span, end);
    if (instrument) stats.flood_ns += end - start;
  }

  /// Open loop at `mpps` for `seconds` from `start`: packet i is due at
  /// start + i/rate, stamped into ts_gen; lateness of the send is recorded.
  void open_loop(Instance& in, u64 start, double seconds, double mpps) {
    const u64 until = start + static_cast<u64>(seconds * 1e9);
    const u64 span = spans_.open("latency", 0, start);
    const double ns_per_pkt = 1e3 / mpps;
    std::array<u64, kBurst> due{};
    u64 sent = 0;
    for (u64 now = start; now < until; now = now_ns()) {
      const auto owed = static_cast<u64>(
          static_cast<double>(now - start) / ns_per_pkt) + 1;
      if (owed <= sent) {
        cpu_relax();
        continue;
      }
      const u32 n = static_cast<u32>(std::min<u64>(kBurst, owed - sent));
      for (u32 k = 0; k < n; ++k) {
        due[k] = start + static_cast<u64>(static_cast<double>(sent + k) *
                                          ns_per_pkt);
      }
      const u32 got = send(in, n, due.data(), false, span);
      for (u32 k = 0; k < got; ++k) late.add(now - due[k]);
      sent += got;
    }
    spans_.close(span, now_ns());
  }

  /// Closed loop until the trace cursor wraps, so a churn trace has closed
  /// every connection it opened.
  void finish_cycle(Instance& in) {
    const u64 span = spans_.open("finish_cycle", 0, now_ns());
    while (in.cursor != 0) {
      send(in, std::min(kBurst, trace_.count() - in.cursor), nullptr, false,
           span);
    }
    spans_.close(span, now_ns());
  }

  DriverStats stats;
  LogHistogram late{kLatencyBits};  // generator lateness, latency phase

 private:
  /// Allocates up to `want` packets, fills them from the trace (and `due`
  /// into ts_gen), injects them. Returns how many were sent.
  u32 send(Instance& in, u32 want, const u64* due, bool instrument,
           u64 parent) {
    std::array<net::Packet*, kBurst> burst{};
    const u64 t0 = instrument ? now_ns() : 0;
    const u32 n = pool_.alloc_bulk({burst.data(), want});
    if (n == 0) {  // back-pressure: the workers hold every buffer
      std::this_thread::yield();
      return 0;
    }
    const u64 t1 = instrument ? now_ns() : 0;
    for (u32 k = 0; k < n; ++k) {
      std::memcpy(burst[k]->data(), trace_.frame(in.cursor), kFrameLen);
      burst[k]->set_len(kFrameLen);
      if (due != nullptr) burst[k]->ts_gen = due[k];
      if (++in.cursor == trace_.count()) in.cursor = 0;
    }
    const u64 t2 = instrument ? now_ns() : 0;
    const u64 spins = instrument ? in.block_spins() : 0;
    admit(in, {burst.data(), n}, in.mbox.inject_bulk({burst.data(), n}));
    if (instrument) {
      const u64 t3 = now_ns();
      stats.packets += n;
      stats.alloc_ns += t1 - t0;
      stats.copy_ns += t2 - t1;
      if (in.block_spins() != spins) {
        stats.blocked_ns += t3 - t2;
      } else {
        stats.free_inject_ns += t3 - t2;
        stats.free_inject_pkts += n;
      }
      if ((bursts_++ & kBurstSpanMask) == 0) {
        const u64 b = spans_.add("burst", parent, t0, t3);
        spans_.add("alloc_bulk", b, t0, t1);
        spans_.add("copy", b, t1, t2);
        spans_.add("inject_bulk", b, t2, t3);
      }
    }
    return n;
  }

  static void admit(Instance& in, std::span<net::Packet* const> pkts,
                    u32 accepted) {
    in.offered += accepted;
    in.rejected += pkts.size() - accepted;
  }

  net::PacketPool& pool_;
  const Trace& trace_;
  const Sink& sink_;
  SpanLog& spans_;
  u64 bursts_ = 0;
};

// --- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  u64 attempted = 0;
  u64 failed = 0;

  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = kInfiniteUs;
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A check recorded more than once (one per set-up) passes only if every
  /// instance passed.
  void check(std::string name, bool ok) {
    for (auto& [n, passed] : checks) {
      if (n == name) {
        passed &= ok;
        return;
      }
    }
    checks.emplace_back(std::move(name), ok);
  }
  [[nodiscard]] bool correct() const {
    return failed == 0 &&
           std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Entries across a hop's tables, each flow once (replicas hold copies).
u64 hop_entries(core::ThreadedMiddlebox& mbox, u32 hop) {
  if (mbox.config().state.kind == state::StateStrategyKind::kReplication) {
    return mbox.hop_flow_table(hop, 0).size();
  }
  u64 n = 0;
  for (u32 c = 0; c < mbox.config().num_cores; ++c) {
    n += mbox.hop_flow_table(hop, static_cast<CoreId>(c)).size();
  }
  return n;
}

/// Entries a workload leaves behind once its trace cycle has closed: the
/// established flows (NAT holds two per session).
u64 expected_entries(const Trace& trace) { return 5ull * trace.established(); }

/// On churn the trace never sends data before its connection's SYN, so a
/// "no state" drop is a packet that overtook its SYN through the mesh: the
/// ordering hazard, counted (order.unmatched_data) but not failed. Port and
/// table exhaustion also land in nat.unmatched_dropped and stay failures.
u64 hazard_drops(Workload w, const telemetry::TelemetrySnapshot& snap) {
  if (!is_churn(w)) return 0;
  return snap.value("nat.unmatched_dropped") -
         snap.value("nat.port_exhausted") - snap.value("nat.table_full") +
         snap.value("firewall.dropped_no_state") +
         snap.value("lb.dropped_no_state");
}

/// Per-instance accounting, shared by every role. Returns the packets that
/// count as failed.
u64 audit(Report& r, const char* label, Instance& in, Workload w,
          const telemetry::TelemetrySnapshot& snap) {
  const core::CoreStats st = in.mbox.total_stats();
  const std::string l = label;
  const u64 sheds = in.mbox.rx_ring_drops() + in.rejected;
  const u64 unaccounted = in.offered > in.forwarded + st.nf_drops
                              ? in.offered - in.forwarded - st.nf_drops
                              : in.forwarded + st.nf_drops - in.offered;
  const u64 hazard = hazard_drops(w, snap);
  const u64 wrong = st.nf_drops > hazard ? st.nf_drops - hazard : 0;
  r.check(l + ".conservation", unaccounted == 0);
  r.check(l + ".no_rx_sheds", sheds == 0);
  r.check(l + ".no_transfer_drops", st.transfer_drops == 0);
  r.check(l + ".verdicts", wrong == 0);
  r.attempted += in.offered + in.rejected;
  return sheds + st.transfer_drops + unaccounted + wrong;
}

struct Phases {
  double warmup = 2.0;
  double saturation = 12.0;  // in total, over every round
  double latency = 12.0;     // in total, over every round
  /// Untraced: saturation and latency alternate in this many rounds, so
  /// both metrics sample the whole run's host periods, not one half each.
  u32 rounds = 12;
  double reorder = 0.0;
  double slice = 0.5;  // traced run: untraced/traced alternation
  u32 setups = 21;
};

Phases phases_for(const Options& o) {
  constexpr double kRoundSeconds = 2.0;
  Phases p;
  p.warmup = o.quick ? 0.1 : 2.0;
  if (o.traced) {
    p.saturation = o.seconds / 2;
    p.latency = p.reorder = o.seconds / 4;
    p.slice = std::min(0.5, p.saturation / 2);
    p.setups = 1;
  } else {
    p.saturation = p.latency = o.seconds / 2;
    p.rounds = static_cast<u32>(
        std::max(1.0, std::round(o.seconds / kRoundSeconds)));
    p.setups = o.quick ? 2 : 21;
  }
  return p;
}

struct Run {
  Run(const Options& opts, const WorkloadSpec& wl)
      : o(opts),
        spec(wl),
        ph(phases_for(opts)),
        trace(make_trace(wl.id, opts.seed)),
        pool(kPoolPackets, kPoolBuffer),
        sink(opts.cores),
        driver_spans(0),
        driver(pool, trace, sink, driver_spans) {}

  std::unique_ptr<Instance> set_up(Role role, const char* label,
                                   double& seconds) {
    const u64 t0 = now_ns();
    const u64 root = driver_spans.open(label, 0, t0);
    auto in = std::make_unique<Instance>(
        config_for(role, o.cores, spec.id), sink);
    const u64 t1 = now_ns();
    driver_spans.add("construct", root, t0, t1);
    in->activate(sink);
    const u64 t2 = now_ns();
    driver_spans.add("start", root, t1, t2);
    driver.establish(*in);
    const u64 t3 = now_ns();
    driver_spans.add("establish", root, t2, t3);
    in->mbox.wait_idle();
    const u64 t4 = now_ns();
    driver_spans.add("wait_idle", root, t3, t4);
    driver_spans.close(root, t4);
    seconds = static_cast<double>(t4 - t0) * 1e-9;
    // NAT opens exactly one session per pre-established flow: a port-claim
    // or table failure here would silently shrink the workload.
    sessions_ok &= in->nat.counters().sessions_opened == trace.established();
    return in;
  }

  /// Clears the sink's latency record, sized for the whole latency phase.
  void reset_latency() {
    // About kWindowSamples latency samples per worker per window.
    constexpr double kWindowSamples = 2048;
    const double per_worker_window =
        spec.latency_mpps * 1e6 * (static_cast<double>(kWindowNs) * 1e-9) /
        o.cores;
    const u32 shift = static_cast<u32>(std::max(
        0.0, std::floor(std::log2(per_worker_window / kWindowSamples))));
    sink.reset_latency(shift, static_cast<std::size_t>(
                                  spec.latency_mpps * 1e6 * ph.latency /
                                  std::ldexp(1.0, shift)));
    next_window = 0;
  }

  /// Runs `seconds` of the open-loop latency phase on `in` (already active)
  /// from an idle system, and drains it.
  void latency_slice(Instance& in, double seconds) {
    in.mbox.wait_idle();
    const u64 start = now_ns();
    sink.start_latency(start, next_window);
    driver.open_loop(in, start, seconds, spec.latency_mpps);
    in.mbox.wait_idle();
    sink.stop_latency();
    // Slices never share a window: a window's packets are due in one slice.
    next_window += static_cast<u64>(seconds * 1e9) / kWindowNs + 2;
  }

  /// After the measured phases: occupancy, cycle close, residue, audits.
  /// Leaves `in` stopped.
  void wind_down(Instance& in, Report& r, const char* label, bool layers) {
    in.mbox.wait_idle();
    std::vector<u64> occupancy;
    for (u32 h = 0; h < in.mbox.num_hops(); ++h) {
      occupancy.push_back(hop_entries(in.mbox, h));
    }
    driver.finish_cycle(in);
    in.mbox.wait_idle();
    u64 entries = 0;
    for (u32 h = 0; h < in.mbox.num_hops(); ++h) {
      entries += hop_entries(in.mbox, h);
    }
    const u64 residue = entries > expected_entries(trace)
                            ? entries - expected_entries(trace)
                            : expected_entries(trace) - entries;
    if (spec.id == Workload::kChurnRepl) {
      // Let housekeeping broadcast any alloc-stalled sync frames, then
      // audit the replicas at quiescence.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      in.mbox.wait_idle();
      const auto div = in.mbox.state_strategy().check_divergence();
      const auto sync = in.mbox.state_strategy().sync_stats();
      r.check(std::string(label) + ".replicas_converged",
              div.clean() && sync.frames_applied == sync.frames_sent &&
                  sync.apply_failures == 0);
    }
    const auto snap = in.mbox.telemetry_snapshot();
    in.deactivate(sink);
    failed += audit(r, label, in, spec.id, snap);
    if (layers) report_layers(r, in, snap, occupancy, residue);
  }

  void report_layers(Report& r, Instance& in,
                     const telemetry::TelemetrySnapshot& snap,
                     const std::vector<u64>& occupancy, u64 residue);

  Report run_untraced();
  Report run_traced();
  void finish(Report& r);

  const Options& o;
  const WorkloadSpec& spec;
  const Phases ph;
  const Trace trace;
  net::PacketPool pool;
  Sink sink;
  SpanLog driver_spans;
  Driver driver;
  bool sessions_ok = true;
  u64 failed = 0;
  u64 next_window = 0;               // first latency window of the next slice
  std::vector<double> rate_windows;  // untraced saturation windows
};

/// Run-health diagnostics of the untraced saturation windows.
void report_rates(Report& r, const std::vector<double>& windows) {
  const double p90 = quantile(windows, 0.9);
  r.add("rate_median_mpps", quantile(windows, 0.5), "Mpps");
  double sum = 0;
  u64 slow = 0;
  for (double w : windows) {
    sum += w;
    if (w < 0.8 * p90) ++slow;
  }
  r.add("rate_mean_mpps", ratio(sum, static_cast<double>(windows.size())),
        "Mpps");
  r.add("host.slow_window_share",
        ratio(static_cast<double>(slow), static_cast<double>(windows.size())),
        "ratio");
}

Report Run::run_untraced() {
  Report r;
  std::vector<double> setup_s(ph.setups);
  const double rss0 = resident_mib();
  std::unique_ptr<Instance> in;
  for (u32 i = 0; i < ph.setups; ++i) {
    if (in != nullptr) {
      in->deactivate(sink);
      failed += audit(r, "setup", *in, spec.id, in->mbox.telemetry_snapshot());
      in.reset();
    }
    in = set_up(Role::kUntraced, "setup", setup_s[i]);
    if (i == 0) r.add("mem_mb", resident_mib() - rss0, "MiB");
  }
  r.add("setup_s", median(setup_s), "s");
  driver.flood(*in, ph.warmup, false, nullptr, "warmup");
  reset_latency();
  for (u32 i = 0; i < ph.rounds; ++i) {
    driver.flood(*in, ph.saturation / ph.rounds, false, &rate_windows,
                 "saturation");
    latency_slice(*in, ph.latency / ph.rounds);
  }
  r.add("rate_mpps", quantile(rate_windows, 0.9), "Mpps");
  wind_down(*in, r, "run", false);
  report_rates(r, rate_windows);
  // Like rate_mpps, the latency quantiles are taken in the host's quiet
  // windows: the 10th percentile over 100 ms windows of each window's p50
  // or p90 (README.md, "Why windows").
  const std::vector<double> p50s = sink.window_quantiles(0.5);
  r.add("lat_p50_us", quantile(p50s, 0.1) / 1e3, "us");
  r.add("lat_p90_us", quantile(sink.window_quantiles(0.9), 0.1) / 1e3, "us");
  const Sink::Totals t = sink.totals();
  r.add("lat_all_p50_us", latency_us(t.latency, failed, 0.50), "us");
  r.add("lat_all_p90_us", latency_us(t.latency, failed, 0.90), "us");
  r.add("lat_p99_us", latency_us(t.latency, failed, 0.99), "us");
  r.add("lat_p999_us", latency_us(t.latency, failed, 0.999), "us");
  r.add("gen.late_p99_us", static_cast<double>(driver.late.p99()) / 1e3, "us");
  r.add("latency_samples", static_cast<double>(t.latency.count()), "count");
  r.add("latency_windows", static_cast<double>(p50s.size()), "count");
  r.add("rate_windows", static_cast<double>(rate_windows.size()), "count");
  return r;
}

Report Run::run_traced() {
  Report r;
  // The untraced control checks 1 in 64 packets like every untraced run;
  // the traced instances check every packet.
  const Sink::Mode control{};
  const Sink::Mode traced{.check_all = true, .spans = true};
  double secs = 0;
  sink.set_mode(control);
  auto a = set_up(Role::kUntraced, "setup.untraced", secs);
  a->deactivate(sink);
  sink.set_mode(traced);
  auto b = set_up(Role::kTraced, "setup.traced", secs);
  r.add("setup.traced_s", secs, "s");
  driver.flood(*b, ph.warmup, false, nullptr, "warmup");

  // Saturation alternates the traced instance with the untraced control in
  // short slices, so both see the same host periods; the ratio of their
  // window p90s is the tracing overhead.
  std::vector<double> traced_windows;
  for (double done = 0; done < ph.saturation; done += 2 * ph.slice) {
    driver.flood(*b, ph.slice, true, &traced_windows, "saturation.traced");
    b->deactivate(sink);
    sink.set_mode(control);
    a->activate(sink);
    driver.flood(*a, ph.slice, false, &rate_windows, "saturation.untraced");
    a->deactivate(sink);
    sink.set_mode(traced);
    b->activate(sink);
  }
  reset_latency();
  latency_slice(*b, ph.latency);
  wind_down(*b, r, "traced", true);
  const double traced_p90 = quantile(traced_windows, 0.9);
  const double control_p90 = quantile(rate_windows, 0.9);
  r.add("trace.overhead", 1.0 - ratio(traced_p90, control_p90), "ratio");
  report_rates(r, rate_windows);

  a->activate(sink);
  sink.set_mode(control);
  wind_down(*a, r, "untraced", false);
  a.reset();

  sink.set_mode(traced);
  auto c = set_up(Role::kReorder, "setup.reorder", secs);
  driver.flood(*c, ph.reorder, false, nullptr, "reorder");
  const auto ro = c->mbox.reorder_stats();
  wind_down(*c, r, "reorder", false);
  r.add("reorder.ooo_share",
        ratio(static_cast<double>(ro.ooo_packets),
              static_cast<double>(ro.packets_observed)),
        "ratio");
  r.add("reorder.p99_distance", static_cast<double>(ro.distance.p99()),
        "count");

  const Sink::Totals t = sink.totals();
  r.add("lat_p99_us", latency_us(t.latency, failed, 0.99), "us");
  r.add("lat_p999_us", latency_us(t.latency, failed, 0.999), "us");
  r.add("gen.late_p99_us", static_cast<double>(driver.late.p99()) / 1e3, "us");
  const DriverStats& d = driver.stats;
  r.add("gen.copy_ns_per_pkt", ratio(d.copy_ns, d.packets), "ns");
  r.add("net.alloc_ns_per_pkt", ratio(d.alloc_ns, d.packets), "ns");
  r.add("driver.inject_ns_per_pkt",
        ratio(d.free_inject_ns, d.free_inject_pkts), "ns");
  r.add("driver.block_share", ratio(d.blocked_ns, d.flood_ns), "ratio");
  r.add("pool.magazine_hit_ratio", pool.cache_stats().hit_rate(), "ratio");
  r.add("sink.pkts_per_batch", ratio(t.packets, t.calls), "count");

  std::vector<const SpanLog*> logs{&driver_spans};
  sink.append_span_logs(logs);
  r.check("spans_written", write_spans(o.out + ".spans.json", logs,
                                       kProcessStart));
  return r;
}

void Run::report_layers(Report& r, Instance& in,
                        const telemetry::TelemetrySnapshot& snap,
                        const std::vector<u64>& occupancy, u64 residue) {
  const telemetry::MetricsRegistry& reg = in.mbox.metrics();
  auto count = [&](const std::string& name, u64 v) {
    r.add(name, static_cast<double>(v), "count");
  };
  r.add("nic.steer_ns_p50", registry_quantile(reg, "trace.steer_ns", 0.5),
        "ns");
  r.add("nic.steer_ns_p99", registry_quantile(reg, "trace.steer_ns", 0.99),
        "ns");
  r.add("rx.queue_ns_p50", registry_quantile(reg, "trace.queue_ns", 0.5),
        "ns");
  r.add("rx.queue_ns_p99", registry_quantile(reg, "trace.queue_ns", 0.99),
        "ns");
  r.add("trace.nf_ns_p50", registry_quantile(reg, "trace.nf_ns", 0.5), "ns");
  r.add("trace.nf_ns_p99", registry_quantile(reg, "trace.nf_ns", 0.99), "ns");
  count("rx_ring.hwm", snap.value("rx_ring.occupancy_hwm"));
  count("mesh_ring.hwm", snap.value("mesh_ring.occupancy_hwm"));
  r.add("worker.batch_size_mean",
        ratio(snap.value("worker.packets"), snap.value("worker.batches")),
        "count");

  const core::CoreStats st = in.mbox.total_stats();
  count("engine.conn_redirected", st.conn_foreign_in);
  count("engine.conn_local", st.conn_local);
  r.add("engine.descs_per_flush",
        ratio(snap.value("engine.transfer_flush_packets"),
              snap.value("engine.transfer_flush_calls")),
        "count");
  count("engine.transfer_retries", st.transfer_retries);
  count("engine.transfer_drops", st.transfer_drops);

  for (u32 h = 0; h < in.mbox.num_hops(); ++h) {
    const std::string p =
        "chain.h" + std::to_string(h) + "." + in.chain.hop(h).name();
    r.add(p + ".ns_per_pkt",
          ratio(snap.value(p + ".ns"), snap.value(p + ".packets")), "ns");
    r.add(p + ".sweep_ns_p99", registry_quantile(reg, p + ".sweep_ns", 0.99),
          "ns");
    count(p + ".expired", snap.value(p + ".expired"));
    count("flow.occupancy.h" + std::to_string(h), occupancy[h]);
  }
  for (const char* name :
       {"nat.sessions_opened", "nat.port_exhausted", "nat.table_full",
        "firewall.table_full", "lb.table_full", "monitor.table_full"}) {
    count(name, snap.value(name));
  }

  const core::FlowAccessStats access = in.mbox.access_stats();
  u64 remote = 0;
  u64 avoided = 0;
  for (u32 h = 0; h < in.mbox.num_hops(); ++h) {
    for (u32 c = 0; c < o.cores; ++c) {
      const auto& sc = in.mbox.hop_context(h, static_cast<CoreId>(c))
                           .flows()
                           .strategy_counters();
      remote += sc.remote_reads.load();
      avoided += sc.remote_reads_avoided.load();
    }
  }
  count("flow.reads_regular", access.reads_in_regular);
  count("flow.writes_conn", access.writes_in_connection);
  count("state.remote_reads", remote);
  r.add("state.remote_read_ratio",
        ratio(remote, access.reads_in_regular + access.reads_in_connection),
        "ratio");
  count("state.remote_reads_avoided", avoided);

  const state::SyncStatsSnapshot sync = in.mbox.state_strategy().sync_stats();
  count("state.sync.frames_sent", sync.frames_sent);
  r.add("state.sync.bytes_sent", static_cast<double>(sync.bytes_sent),
        "bytes");
  count("state.sync.ops_sent", sync.ops_sent);
  r.add("state.sync.bytes_per_op", ratio(sync.bytes_sent, sync.ops_sent),
        "bytes");
  count("state.sync.alloc_stalls", sync.alloc_stalls);
  count("state.sync.apply_failures", sync.apply_failures);
  r.add("state.divergence.clean",
        in.mbox.state_strategy().check_divergence().clean() ? 1.0 : 0.0,
        "bool");

  count("order.unmatched_data", hazard_drops(spec.id, snap));
  count("order.residue_flows", residue);
}

void Run::finish(Report& r) {
  const Sink::Totals t = sink.totals();
  r.check("nat_sessions_per_established_flow", sessions_ok);
  r.check("outputs_checked", t.checked > 0);
  r.check("outputs_valid", t.bad == 0);
  r.check("pool_leak_clean", pool.available() == pool.size());
  r.failed = failed + t.bad;
}

void print_report(const Report& r, const Options& o, const WorkloadSpec& w) {
  for (const auto& [name, ok] : r.checks) {
    std::printf("check %-40s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "{\"bench\":\"sprayer_suite\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"traced\":%d,\"cores\":%u,\"seconds\":%.17g,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"checks\":{",
      w.name, static_cast<unsigned long long>(o.seed), o.traced ? 1 : 0,
      o.cores, o.seconds, r.correct() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s\"%s\":%s", i == 0 ? "" : ",", r.checks[i].first.c_str(),
                r.checks[i].second ? "true" : "false");
  }
  std::printf("},\"metrics\":{");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_one(const Options& o, const WorkloadSpec& w) {
  Run run(o, w);
  Report r = o.traced ? run.run_traced() : run.run_untraced();
  run.finish(r);
  print_report(r, o, w);
  return r.correct() ? 0 : kExitCheckFailed;
}

/// Runs every requested workload in a child process of this binary.
int run_each(int argc, char** argv, const Options& o) {
  int worst = 0;
  for (const WorkloadSpec* w : o.workloads) {
    std::vector<std::string> args{argv[0]};
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.starts_with("workload=") || a.starts_with("out=")) continue;
      args.push_back(a);
    }
    args.push_back(std::string("workload=") + w->name);
    args.push_back("out=" + o.out + "." + w->name);
    std::vector<char*> cargv;
    for (std::string& a : args) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(),
                    environ) != 0) {
      std::perror("sprayer_suite: posix_spawn");
      return kExitCheckFailed;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        std::perror("sprayer_suite: waitpid");
        return kExitCheckFailed;
      }
    }
    const int code =
        WIFEXITED(status) ? WEXITSTATUS(status) : kExitCheckFailed;
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  if (o.workloads.size() > 1) return run_each(argc, argv, o);
  try {
    return run_one(o, *o.workloads.front());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sprayer_suite: %s\n", e.what());
    return kExitCheckFailed;
  }
}
