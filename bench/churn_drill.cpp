// Long-haul flow-state churn drill (DESIGN.md §15): drives the threaded
// executor through sustained open/close churn with heavy-tailed (Pareto)
// connection lifetimes and verifies the lifecycle invariants end to end:
//
//   monitor — ramp to `live` concurrent tracked connections (the provisioned
//             table is deliberately too small: segmented online growth must
//             absorb the population), churn opens/closes against a
//             close-deadline priority queue while data packets spray across
//             all cores, then drain with bidirectional FINs. Leak checks:
//             zero entries stranded in any segment of any shard,
//             opened == closed + expired, zero table_full refusals.
//   nat     — sessions open faster than they are closed and are reclaimed
//             ONLY by idle aging (the tentpole's pair-idle expiry path):
//             every reaped session must release its port, and after
//             quiescence the pool must be whole (claimed == 0).
//
// Emits one JSON line per workload; tools/check_churn_schema.py validates
// leaked/stranded/port-conservation/sweep-bound invariants and CI gates on
// it. BENCH_churn.json holds the committed full-scale (live >= 1M) baseline.
//
//   ./bench/churn_drill [workloads=monitor,nat] [cores=4] [live=1050000]
//       [hold=0.5] [sessions=35000] [nat_hold=1.0] [seed=42]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <queue>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "telemetry/snapshot.hpp"

using namespace sprayer;

namespace {

/// Deterministic, collision-free five-tuples: flow i owns its own source
/// address (24 bits) and a port band above it — no accidental merges to
/// confound the leak accounting.
net::FiveTuple flow_id(u64 i) {
  return net::FiveTuple{
      net::Ipv4Addr{static_cast<u32>((10u << 24) | (i & 0xffffffu))},
      net::Ipv4Addr{192, 0, 10, static_cast<u8>(1 + (i >> 24))},
      static_cast<u16>(1024 + ((i >> 24) & 0x7fffu)), 443, net::kProtoTcp};
}

struct Driver {
  net::PacketPool& pool;
  core::ThreadedMiddlebox& mbox;

  void inject(const net::FiveTuple& t, u8 flags) {
    net::TcpSegmentSpec spec;
    spec.tuple = t;
    spec.flags = flags;
    for (;;) {
      net::Packet* pkt = net::build_tcp_raw(pool, spec);
      if (pkt != nullptr && mbox.inject(pkt)) return;
      std::this_thread::yield();
    }
  }

  void open(const net::FiveTuple& t) { inject(t, net::TcpFlags::kSyn); }
  /// Bidirectional close: one FIN per direction (the per-direction teardown
  /// bits require both).
  void close(const net::FiveTuple& t) {
    inject(t, net::TcpFlags::kFin | net::TcpFlags::kAck);
    inject(t.reversed(), net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
};

/// Live entries across the strategy's tables (writing partition: sum of the
/// per-core shards) and the deepest segmented growth any shard reached.
struct TableScan {
  u64 live = 0;
  u32 segments_max = 0;
};

TableScan scan_tables(core::ThreadedMiddlebox& mbox, u32 cores) {
  TableScan out;
  for (u32 c = 0; c < cores; ++c) {
    const auto& t = mbox.flow_table(static_cast<CoreId>(c));
    out.live += t.size();
    out.segments_max = std::max(out.segments_max, t.num_segments());
  }
  return out;
}

/// Max sweep batch the housekeeping tick ever scanned, from the merged
/// chain.h0.<nf>.sweep_groups histogram (0 when telemetry is off).
u64 sweep_groups_max(core::ThreadedMiddlebox& mbox, const char* nf_name) {
  telemetry::SnapshotCollector collector(mbox.metrics());
  const auto snap = collector.collect();
  const auto* h =
      snap.find_histogram(std::string("chain.h0.") + nf_name + ".sweep_groups");
  if (h == nullptr || h->merged.count() == 0) return 0;
  return h->merged.max();
}

constexpr Time kHousekeeping = 5 * kMillisecond;

/// Per-tick sweep budget of a hop (DESIGN.md §15), restated so the drill
/// checks the chain's bound independently: one rotation per
/// max(8 ticks, idle_timeout / 8), i.e. ceil(groups / rotation_ticks).
u64 sweep_budget(u64 groups, Time idle_timeout) {
  const u64 ticks = std::max<u64>(8, idle_timeout / 8 / kHousekeeping);
  return (groups + ticks - 1) / ticks;
}

core::SprayerConfig drill_cfg(u32 cores, Time idle_timeout, u32 capacity,
                              u32 segments) {
  core::SprayerConfig cfg;
  cfg.num_cores = cores;
  cfg.mode = core::DispatchMode::kSpray;
  cfg.overload_policy = OverloadPolicy::kBlock;  // closed loop: no shedding
  cfg.housekeeping_interval = kHousekeeping;
  cfg.state.kind = state::StateStrategyKind::kWritingPartition;
  cfg.lifecycle.idle_timeout = idle_timeout;
  cfg.lifecycle.flow_table_capacity = capacity;
  cfg.lifecycle.max_table_segments = segments;
  return cfg;
}

// --- monitor workload: 1M+ live flows, heavy-tailed churn, full drain -------

int run_monitor(u32 cores, u64 live_target, double hold_s, u64 seed) {
  net::PacketPool pool(1u << 14, 256);
  nf::MonitorNf monitor;
  core::ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Provision a base segment well under the steady-state population per
  // shard: reaching the target forces several rounds of online growth while
  // all cores run. Idle aging is armed but beyond the drill horizon (nothing
  // may expire out from under the leak accounting — closes must balance
  // opens exactly).
  const u32 capacity = std::max<u32>(
      1024,
      static_cast<u32>(std::bit_ceil(live_target / (cores * u64{8}))));
  constexpr Time kIdle = 3600 * kSecond;
  core::ThreadedMiddlebox mbox(drill_cfg(cores, kIdle, capacity, 8), monitor,
                               std::move(sink));
  mbox.start();
  Driver drv{pool, mbox};

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  // Heavy-tailed lifetimes: Pareto via inverse transform, alpha 1.2 — most
  // connections are mice, a fat tail lives ~100x longer.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(1e-6, 1.0);
  // Churn lifetimes: Pareto tail on top of a floor, in "open events"
  // (virtual time) — most churn flows are mice, a fat tail lives ~10x
  // longer.
  constexpr u64 kLifetimeFloor = 1024;
  auto lifetime_packets = [&]() -> u64 {
    const double p = 4.0 * std::pow(uni(rng), -1.0 / 1.2);
    return kLifetimeFloor + static_cast<u64>(std::min(p, 4096.0));
  };

  // Close-deadline priority queue, keyed in "open events" (virtual time):
  // churn flow f opened at event e closes at e + lifetime.
  using Deadline = std::pair<u64, u64>;  // (close_event, flow index)
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>> closes;
  u64 next_flow = 0;
  u64 opens = 0;
  u64 closed_by_drill = 0;

  // Phase 1 — ramp: open the resident population. These flows stay live for
  // the whole hold (the "sustains >= target" half of the drill) and are
  // kept fresh by data packets; churn rides on top of them.
  while (opens < live_target) {
    drv.open(flow_id(next_flow));
    ++next_flow;
    ++opens;
  }
  mbox.wait_idle();
  TableScan peak = scan_tables(mbox, cores);

  // Phase 2 — hold: heavy-tailed churn over the pinned population. Every
  // open is paired with any closes whose deadline passed; data packets to
  // resident flows keep the regular (read + touch) path and the sweep busy
  // across all cores.
  const auto hold_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(hold_s));
  u64 data_packets = 0;
  // A close is only injected once the flow's SYN has provably been
  // processed (it was in flight before the last wait_idle): spraying
  // orders packets per core, not across cores, so a FIN injected while its
  // own SYN still sits in another core's ring can overtake it through the
  // redirect mesh and leave a half-closed entry. Real connections live for
  // RTTs; this watermark models that minimum separation.
  u64 syn_flushed = 0;
  std::uniform_int_distribution<u64> resident_pick(0, live_target - 1);
  while (Clock::now() < hold_deadline) {
    for (u32 burst = 0; burst < 256; ++burst) {
      drv.open(flow_id(next_flow));
      closes.emplace(opens + lifetime_packets(), next_flow);
      ++next_flow;
      ++opens;
      while (!closes.empty() && closes.top().first <= opens &&
             closes.top().second < syn_flushed) {
        drv.close(flow_id(closes.top().second));
        closes.pop();
        ++closed_by_drill;
      }
      if ((opens & 7) == 0) {
        drv.inject(flow_id(resident_pick(rng)), net::TcpFlags::kAck);
        ++data_packets;
      }
    }
    mbox.wait_idle();
    syn_flushed = next_flow;
    const TableScan now = scan_tables(mbox, cores);
    if (now.live > peak.live) peak = now;
  }
  mbox.wait_idle();
  {
    const TableScan now = scan_tables(mbox, cores);
    if (now.live > peak.live) peak = now;
  }

  // Phase 3 — drain: close everything still scheduled, then retransmit FIN
  // pairs at whatever keys the tables still hold. A mouse flow's FIN can
  // overtake its own in-flight SYN through the redirect mesh (cross-core
  // arrival order is unordered by design), leaving a half-closed entry —
  // the same way real teardown segments get lost or reordered. Endpoints
  // retransmit, so the drill does too; anything still resident afterwards
  // is a genuine leak.
  while (!closes.empty()) {
    drv.close(flow_id(closes.top().second));
    closes.pop();
    ++closed_by_drill;
  }
  for (u64 i = 0; i < live_target; ++i) {  // the pinned resident population
    drv.close(flow_id(i));
    ++closed_by_drill;
  }
  mbox.wait_idle();
  u64 fin_retransmits = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<net::FiveTuple> resident;
    for (u32 c = 0; c < cores; ++c) {
      auto& t = mbox.flow_table(static_cast<CoreId>(c));
      u64 cursor = 0;
      u64 left = t.total_groups();
      while (left > 0) {
        left -= t.sweep_groups(
            cursor, static_cast<u32>(std::min<u64>(left, 4096)),
            [&](const net::FiveTuple& key, auto&&...) {
              resident.push_back(key);
            });
      }
    }
    if (resident.empty()) break;
    for (const auto& key : resident) {
      drv.close(key);
      ++fin_retransmits;
    }
    mbox.wait_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mbox.wait_idle();
  }

  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const TableScan end = scan_tables(mbox, cores);
  const auto totals = monitor.aggregate();
  const auto stats = mbox.total_stats();
  const u64 sweep_max = sweep_groups_max(mbox, "monitor");
  // Sweep budget on the deepest-grown shard.
  const u64 budget = sweep_budget(
      static_cast<u64>(capacity) / core::FlowTable::kGroupWidth *
          peak.segments_max,
      kIdle);
  mbox.stop();

  const u64 leaked =
      totals.connections_opened -
      std::min(totals.connections_opened,
               totals.connections_closed + totals.connections_expired);
  std::printf(
      "{\"bench\":\"churn_drill\",\"workload\":\"monitor\",\"cores\":%u,"
      "\"live_target\":%llu,\"peak_live\":%llu,\"opens\":%llu,"
      "\"closes\":%llu,\"data_packets\":%llu,"
      "\"opened\":%llu,\"closed\":%llu,\"expired\":%llu,\"table_full\":%llu,"
      "\"leaked\":%llu,\"stranded\":%llu,\"fin_retransmits\":%llu,"
      "\"segments_max\":%u,"
      "\"conn_local\":%llu,\"conn_transferred\":%llu,\"conn_foreign\":%llu,"
      "\"transfer_drops\":%llu,\"rx_ring_drops\":%llu,"
      "\"sweep_groups_max\":%llu,\"sweep_budget\":%llu,\"elapsed_s\":%.3f}\n",
      cores, static_cast<unsigned long long>(live_target),
      static_cast<unsigned long long>(peak.live),
      static_cast<unsigned long long>(opens),
      static_cast<unsigned long long>(closed_by_drill),
      static_cast<unsigned long long>(data_packets),
      static_cast<unsigned long long>(totals.connections_opened),
      static_cast<unsigned long long>(totals.connections_closed),
      static_cast<unsigned long long>(totals.connections_expired),
      static_cast<unsigned long long>(totals.table_full),
      static_cast<unsigned long long>(leaked),
      static_cast<unsigned long long>(end.live),
      static_cast<unsigned long long>(fin_retransmits), peak.segments_max,
      static_cast<unsigned long long>(stats.conn_local.load()),
      static_cast<unsigned long long>(stats.conn_transferred_out.load()),
      static_cast<unsigned long long>(stats.conn_foreign_in.load()),
      static_cast<unsigned long long>(stats.transfer_drops.load()),
      static_cast<unsigned long long>(mbox.rx_ring_drops()),
      static_cast<unsigned long long>(sweep_max),
      static_cast<unsigned long long>(budget), elapsed);
  std::fflush(stdout);

  int rc = 0;
  if (end.live != 0 || leaked != 0) rc = 1;  // stranded or leaked
  if (totals.table_full != 0) rc = 1;        // growth failed
  if (peak.live < live_target) rc = 1;       // never reached target
  // Histogram shard-merge reconstructs the max from a log-bucket upper
  // edge; allow that quantization (~1.6%) over the true budget.
  if (sweep_max > budget + budget / 64 + 8) rc = 1;  // sweep unbounded
  return rc;
}

// --- nat workload: idle aging is the only reaper; ports must conserve -------

int run_nat(u32 cores, u64 sessions, double hold_s) {
  net::PacketPool pool(1u << 14, 256);
  nf::NatNf nat;  // ports 10000..60000
  core::ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Sessions are never FIN-closed: the 60ms pair-idle expiry is the only
  // path back to the pool. Default 64k capacity, growth off.
  constexpr Time kIdle = 60 * kMillisecond;
  core::ThreadedMiddlebox mbox(drill_cfg(cores, kIdle, 0, 1), nat,
                               std::move(sink));
  mbox.start();
  Driver drv{pool, mbox};

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto hold_deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(hold_s));

  // Keep ~`sessions` alive: refresh a sliding window with data packets while
  // opening new sessions; everything behind the window goes idle and must be
  // reaped by the sweep. Flow ids share the NAT's port-claim keyspace.
  u64 next_session = 0;
  u64 ports_claimed_peak = 0;
  while (Clock::now() < hold_deadline) {
    for (u32 burst = 0; burst < 64; ++burst) {
      drv.open(flow_id(1u << 28 | next_session));
      ++next_session;
    }
    const u64 lo = next_session > sessions ? next_session - sessions : 0;
    for (u64 i = lo; i < next_session; i += 97) {
      drv.inject(flow_id(1u << 28 | i), net::TcpFlags::kAck);
    }
    ports_claimed_peak =
        std::max<u64>(ports_claimed_peak, nat.port_pool().claimed());
    if (nat.port_pool().claimed() + 128 >= sessions) {
      // Near the working-set cap: let aging catch up before opening more.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  mbox.wait_idle();

  // Quiesce: no traffic, so every session idles out. Poll until the pool is
  // whole (bounded by a generous deadline).
  const auto reap_deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < reap_deadline && nat.port_pool().claimed() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  mbox.wait_idle();

  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const TableScan end = scan_tables(mbox, cores);
  const auto counters = nat.counters();
  const u64 ports_leaked = nat.port_pool().claimed();
  const u64 sweep_max = sweep_groups_max(mbox, "nat");
  const u64 budget =
      sweep_budget((1u << 16) / core::FlowTable::kGroupWidth, kIdle);
  mbox.stop();

  std::printf(
      "{\"bench\":\"churn_drill\",\"workload\":\"nat\",\"cores\":%u,"
      "\"sessions_target\":%llu,\"opened\":%llu,\"closed\":%llu,"
      "\"expired\":%llu,\"port_exhausted\":%llu,\"table_full\":%llu,"
      "\"ports_claimed_peak\":%llu,\"ports_leaked\":%llu,\"stranded\":%llu,"
      "\"sweep_groups_max\":%llu,\"sweep_budget\":%llu,\"elapsed_s\":%.3f}\n",
      cores, static_cast<unsigned long long>(sessions),
      static_cast<unsigned long long>(counters.sessions_opened),
      static_cast<unsigned long long>(counters.sessions_closed),
      static_cast<unsigned long long>(counters.sessions_expired),
      static_cast<unsigned long long>(counters.port_exhausted),
      static_cast<unsigned long long>(counters.table_full),
      static_cast<unsigned long long>(ports_claimed_peak),
      static_cast<unsigned long long>(ports_leaked),
      static_cast<unsigned long long>(end.live),
      static_cast<unsigned long long>(sweep_max),
      static_cast<unsigned long long>(budget), elapsed);
  std::fflush(stdout);

  int rc = 0;
  if (ports_leaked != 0 || end.live != 0) rc = 1;
  if (counters.sessions_opened !=
      counters.sessions_closed) {  // every open must be balanced by a close
    rc = 1;
  }
  // Same log-bucket quantization slack as the monitor workload.
  if (sweep_max > budget + budget / 64 + 8) rc = 1;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const CliConfig cli(argc, argv);
  const u32 cores = static_cast<u32>(cli.get_u64("cores", 4));
  const u64 live = cli.get_u64("live", 1'050'000);
  const double hold = cli.get_double("hold", 0.5);
  const u64 sessions = cli.get_u64("sessions", 35'000);
  const double nat_hold = cli.get_double("nat_hold", 1.0);
  const u64 seed = cli.get_u64("seed", 42);
  const std::string workloads = cli.get("workloads", "monitor,nat");

  int rc = 0;
  if (workloads.find("monitor") != std::string::npos) {
    rc |= run_monitor(cores, live, hold, seed);
  }
  if (workloads.find("nat") != std::string::npos) {
    rc |= run_nat(cores, sessions, nat_hold);
  }
  return rc;
}
