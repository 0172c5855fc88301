// The flow-state side of a middlebox, assembled one way for both executors
// (SimMiddlebox, ThreadedMiddlebox): one NfInitConfig per hop filled by the
// chain's init(), the state strategy that owns every hop's per-core flow
// tables (DESIGN.md §14), and the [core][hop] NfContexts the engines hand
// to NF handlers. Executors inherit it, run its three build steps at the
// points their own construction order needs them, and expose its
// table/context accessors as their own.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/chain.hpp"
#include "core/config.hpp"
#include "core/core_picker.hpp"
#include "core/flow_table.hpp"
#include "core/nf.hpp"
#include "state/strategy.hpp"

namespace sprayer::core {

class ChainAssembly {
 public:
  /// Hop 0's flow table on `core` (the whole table for single-NF setups):
  /// the core's owned shard under writing partition, its full replica under
  /// replication.
  [[nodiscard]] FlowTable& flow_table(CoreId core) noexcept {
    return hop_flow_table(0, core);
  }
  [[nodiscard]] FlowTable& hop_flow_table(u32 hop, CoreId core) noexcept {
    return *strategy_->hop_tables(hop)[core];
  }
  /// The state strategy the tables were built from — for divergence
  /// checks, live-flow counts and per-strategy stats.
  [[nodiscard]] state::StateStrategy& state_strategy() noexcept {
    return *strategy_;
  }
  [[nodiscard]] const state::StateStrategy& state_strategy() const noexcept {
    return *strategy_;
  }
  /// Hop 0's context on `core` (the whole context for single-NF setups) —
  /// for per-strategy counters and access stats; exact when workers idle.
  [[nodiscard]] NfContext& context(CoreId core) noexcept {
    return *contexts_[core][0];
  }
  [[nodiscard]] NfContext& hop_context(u32 hop, CoreId core) noexcept {
    return *contexts_[core][hop];
  }
  /// Aggregate observed flow-state access pattern across all cores and hops.
  [[nodiscard]] FlowAccessStats access_stats() const;

 protected:
  ChainAssembly() = default;
  ~ChainAssembly() = default;

  /// Step 1: fill one NfInitConfig per hop and run the chain's init(). NFs
  /// register their metrics into `registry` (null: telemetry off).
  void init_chain(IChain& chain, const SprayerConfig& cfg,
                  telemetry::MetricsRegistry* registry);
  /// Step 2: build the state strategy and every hop's per-core tables,
  /// sized from what each NF's init() asked for unless
  /// LifecycleConfig::flow_table_capacity overrides it.
  void build_tables(const SprayerConfig& cfg);
  /// Step 3: build `core`'s context for every hop, wired to the strategy.
  /// The returned span (what the core's engine captures) stays valid for
  /// the assembly's lifetime. `picker` and `cfg` must outlive it too.
  std::span<NfContext* const> build_contexts(CoreId core,
                                             const CorePicker& picker,
                                             const SprayerConfig& cfg);

  /// Every hop is stateless: connection packets are never redirected.
  [[nodiscard]] bool stateless_chain() const noexcept {
    return stateless_chain_;
  }
  /// `core`'s per-hop contexts, as built by build_contexts().
  [[nodiscard]] std::span<NfContext* const> core_contexts(
      CoreId core) const noexcept {
    return ctx_ptrs_[core];
  }

 private:
  std::vector<NfInitConfig> hop_init_;  // one per hop, filled by chain init
  bool stateless_chain_ = false;
  std::unique_ptr<state::StateStrategy> strategy_;
  std::vector<std::vector<std::unique_ptr<NfContext>>> contexts_;  // [core][hop]
  std::vector<std::vector<NfContext*>> ctx_ptrs_;                  // [core][hop]
};

}  // namespace sprayer::core
