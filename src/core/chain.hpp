// Run-to-completion NF service chains.
//
// A chain runs a batch through every hop (NAT -> firewall -> LB -> monitor)
// on the core the batch arrived at, compacting drops between hops, before
// the engine transmits the survivors — one pass over the packet data while
// it is cache-hot, instead of N framework round-trips.
//
// Two implementations share the IChain interface:
//   * NfChain<Nfs...> — compile-time chain over concrete `final` NF types:
//     every handler call is direct (devirtualized, inlinable) and the hops
//     share one BatchMeta, so the five-tuple extraction / canonicalization /
//     hash fetch that every stateful NF needs is done once per batch, not
//     once per hop. After a tuple-rewriting hop (NAT) the meta — including
//     the packets' memoized RSS hash — is refreshed exactly once.
//   * DynamicChain — type-erased fallback for config-driven chains: per-hop
//     virtual dispatch, each hop re-deriving its own per-packet metadata
//     (what independent NF passes genuinely cost).
//
// Connection-packet semantics across hops (DESIGN.md §11): a connection
// packet redirects ONCE, to its flow's designated core, and the whole
// chain's connection handlers run there. This is sound even through NAT
// because the translated tuple is chosen to map back to the claiming core
// (PortPool::claim_matching) and the designated hash is symmetric — every
// downstream hop's state writes, in both directions, land on the same core.
//
// Chains hold no per-batch mutable state: the engine passes its own
// ChainScratch so one chain object can serve every worker thread.
#pragma once

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/nf.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::core {

/// Per-engine (per-core) scratch for chain passes: the verdict sheet and
/// the shared per-batch metadata. Owned by SprayerCore, not the chain, so a
/// single chain instance is safe under concurrent workers.
struct ChainScratch {
  BatchVerdicts verdicts;
  BatchMeta meta;
};

/// Everything a chain needs at bring-up. `hop_cfgs` has one slot per hop;
/// the framework pre-fills each slot's registry pointer, the chain runs
/// every hop's init() into its slot, and the framework sizes per-hop flow
/// tables from the results.
struct ChainInit {
  std::span<NfInitConfig> hop_cfgs;
  u32 num_cores = 0;
  /// Registry for the chain's own per-hop metrics
  /// ("chain.h<i>.<nf>.packets/.drops/.ns"); null → chain metrics off.
  telemetry::MetricsRegistry* registry = nullptr;
  /// Per-hop latency counters (…ns). Costs one clock read per hop per
  /// batch, so it is opt-in (SprayerConfig::chain_hop_timing).
  bool hop_timing = false;
  /// Lifecycle sweep (DESIGN.md §15): housekeeping() drives each stateful
  /// hop's cursor-bounded idle-aging sweep.
  bool lifecycle_sweep = true;
  /// Override of every hop's idle timeout (0 keeps the value each NF's
  /// init() left in its NfInitConfig).
  Time idle_timeout_override = 0;
  /// Period of the housekeeping() calls (SprayerConfig::
  /// housekeeping_interval). Each hop's sweep spreads one rotation over
  /// max(8 ticks, idle_timeout / 8); 0 (no periodic tick) keeps 8 ticks.
  Time housekeeping_interval = 0;
};

/// Monotonic nanosecond clock for per-hop timing (threaded executor).
[[nodiscard]] Time chain_clock_ns() noexcept;

class IChain {
 public:
  virtual ~IChain() = default;

  [[nodiscard]] virtual u32 num_hops() const noexcept = 0;
  [[nodiscard]] virtual INetworkFunction& hop(u32 i) const noexcept = 0;

  /// Run every hop's init() and register chain metrics. Optional: a chain
  /// used standalone (unit tests driving SprayerCore directly) works
  /// without it — hops then run with their own defaults and no metrics.
  virtual void init(const ChainInit& ci) = 0;

  /// Run a batch of connection packets (SYN/FIN/RST on their designated
  /// core) through every hop. The batch is compacted in place to the
  /// survivors; dropped packets are appended to `drops` (not freed).
  /// Stateless hops in a mixed chain receive their regular_packets()
  /// handler — they have no flow events to observe.
  virtual void connection_pass(runtime::PacketBatch& batch,
                               ChainScratch& scratch,
                               std::span<NfContext* const> ctxs, Time now,
                               runtime::PacketBatch& drops) = 0;

  /// Same for regular packets, on whichever core they arrived.
  virtual void regular_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                            std::span<NfContext* const> ctxs, Time now,
                            runtime::PacketBatch& drops) = 0;

  /// Periodic maintenance: every hop's housekeeping() with its own context.
  virtual void housekeeping(std::span<NfContext* const> ctxs, Time now) = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Shared bookkeeping for both chain flavors: the hop list (as base
/// pointers — used for init/housekeeping/metrics, never on the fused hot
/// path), per-hop stateless flags, and per-hop telemetry.
class ChainBase : public IChain {
 public:
  [[nodiscard]] u32 num_hops() const noexcept override {
    return static_cast<u32>(hops_.size());
  }
  [[nodiscard]] INetworkFunction& hop(u32 i) const noexcept override {
    SPRAYER_DCHECK(i < hops_.size());
    return *hops_[i];
  }

  void init(const ChainInit& ci) override;
  void housekeeping(std::span<NfContext* const> ctxs, Time now) override;

 protected:
  explicit ChainBase(std::vector<INetworkFunction*> hops);

  struct HopMetrics {
    telemetry::Counter packets;  // packets entering the hop
    telemetry::Counter drops;    // packets the hop's verdicts dropped
    telemetry::Counter ns;       // wall time in the hop (hop_timing only)
    telemetry::Counter expired;  // entries expired by the lifecycle sweep
    telemetry::Histogram sweep_ns;      // wall ns per sweep_idle() call
    telemetry::Histogram sweep_groups;  // tag groups scanned per call
  };

  /// Post-hop accounting: `before` packets entered, `dropped` were culled,
  /// `t0` is the hop-entry clock read (0 unless timed_).
  void record_hop(u32 h, CoreId shard, u32 before, u32 dropped,
                  Time t0) noexcept {
    HopMetrics& m = hop_tm_[h];
    m.packets.add(shard, before);
    if (dropped > 0) m.drops.add(shard, dropped);
    if (timed_) m.ns.add(shard, (chain_clock_ns() - t0) / kNanosecond);
  }

  /// Eagerly re-memoize survivors' RSS hashes after a tuple-rewriting hop
  /// (packets the hop invalidated recompute; untouched memos are kept).
  static void refresh_hashes(runtime::PacketBatch& batch) noexcept {
    for (net::Packet* pkt : batch) {
      if (pkt->is_ipv4()) (void)hash::packet_flow_hash(*pkt);
    }
  }

  /// One sweep_idle() increment for hop `h` (called from housekeeping once
  /// per tick for every hop with a non-zero rotation).
  void sweep_hop(u32 h, NfContext& ctx);

  std::vector<INetworkFunction*> hops_;
  std::vector<u8> hop_stateless_;
  std::vector<HopMetrics> hop_tm_;
  std::vector<Time> hop_idle_;  // effective per-hop idle timeout
  // Housekeeping ticks per sweep rotation; 0 = the hop is never swept.
  std::vector<u64> hop_rotation_;
  bool timed_ = false;
};

/// Type-erased chain: per-hop virtual dispatch over INetworkFunction.
/// Also the adapter that lets every single-NF entry point keep working
/// (ThreadedMiddlebox / SimMiddlebox wrap the NF in a one-hop DynamicChain).
class DynamicChain final : public ChainBase {
 public:
  explicit DynamicChain(std::vector<INetworkFunction*> hops)
      : ChainBase(std::move(hops)) {}
  /// One-hop convenience (the single-NF compatibility path).
  explicit DynamicChain(INetworkFunction& nf) : ChainBase({&nf}) {}

  void connection_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                       std::span<NfContext* const> ctxs, Time now,
                       runtime::PacketBatch& drops) override;
  void regular_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                    std::span<NfContext* const> ctxs, Time now,
                    runtime::PacketBatch& drops) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "dynamic";
  }
};

/// An NF whose regular-packet handler can consume the chain's shared
/// per-batch metadata instead of re-deriving tuples and hashes itself.
template <class Nf>
concept MetaAware = requires(Nf& nf, runtime::PacketBatch& b, BatchMeta& m,
                             NfContext& c, BatchVerdicts& v) {
  nf.regular_packets(b, m, c, v);
};

/// Compile-time fused chain. Template arguments are the concrete (final)
/// NF types; construction takes references (the chain does not own its
/// NFs). All handler invocations resolve statically.
template <class... Nfs>
class NfChain final : public ChainBase {
  static_assert(sizeof...(Nfs) >= 1, "a chain needs at least one hop");

 public:
  static constexpr u32 kHops = sizeof...(Nfs);

  explicit NfChain(Nfs&... nfs)
      : ChainBase({&nfs...}), nfs_(nfs...) {}

  void regular_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                    std::span<NfContext* const> ctxs, Time now,
                    runtime::PacketBatch& drops) override {
    if (batch.empty()) return;
    BatchMeta& meta = scratch.meta;
    meta.build(batch);
    for_each_hop([&](auto& nf, u32 h) {
      NfContext& ctx = *ctxs[h];
      ctx.set_now(now);
      ctx.flows().set_in_connection_handler(false);
      const u32 before = batch.size();
      const Time t0 = timed_ ? chain_clock_ns() : 0;
      scratch.verdicts.reset(before);
      if constexpr (MetaAware<std::remove_reference_t<decltype(nf)>>) {
        nf.regular_packets(batch, meta, ctx, scratch.verdicts);
      } else {
        nf.regular_packets(batch, ctx, scratch.verdicts);
      }
      if (scratch.verdicts.any()) {
        (void)batch.compact(
            [&](u32 i) { return scratch.verdicts.dropped(i); }, drops,
            [&](u32 from, u32 to) { meta.move(from, to); });
      }
      // Only downstream hops read the meta / memoized hash; after the last
      // hop an invalidated memo is recomputed lazily by whoever needs it.
      if (h + 1 < kHops && nf.rewrites_tuple()) meta.refresh(batch);
      record_hop(h, ctx.core(), before, before - batch.size(), t0);
      return !batch.empty();
    });
  }

  void connection_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                       std::span<NfContext* const> ctxs, Time now,
                       runtime::PacketBatch& drops) override {
    if (batch.empty()) return;
    // No shared meta here: connection handlers are scalar per-packet paths
    // over small batches, keyed by tuples they re-derive post-rewrite.
    for_each_hop([&](auto& nf, u32 h) {
      NfContext& ctx = *ctxs[h];
      ctx.set_now(now);
      const bool stateless = hop_stateless_[h] != 0;
      ctx.flows().set_in_connection_handler(!stateless);
      const u32 before = batch.size();
      const Time t0 = timed_ ? chain_clock_ns() : 0;
      scratch.verdicts.reset(before);
      if (stateless) {
        nf.regular_packets(batch, ctx, scratch.verdicts);
      } else {
        nf.connection_packets(batch, ctx, scratch.verdicts);
      }
      if (scratch.verdicts.any()) {
        (void)batch.compact(
            [&](u32 i) { return scratch.verdicts.dropped(i); }, drops);
      }
      if (h + 1 < kHops && nf.rewrites_tuple()) refresh_hashes(batch);
      record_hop(h, ctx.core(), before, before - batch.size(), t0);
      return !batch.empty();
    });
  }

  [[nodiscard]] const char* name() const noexcept override { return "fused"; }

 private:
  /// Statically unrolled hop loop; `fn` returns false to stop early (batch
  /// ran empty — nothing left for downstream hops).
  template <class Fn>
  void for_each_hop(Fn&& fn) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (void)(fn(std::get<I>(nfs_), static_cast<u32>(I)) && ...);
    }(std::make_index_sequence<kHops>{});
  }

  std::tuple<Nfs&...> nfs_;
};

}  // namespace sprayer::core
