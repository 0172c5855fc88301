#include "core/assembly.hpp"

namespace sprayer::core {

FlowAccessStats ChainAssembly::access_stats() const {
  FlowAccessStats total;
  for (const auto& per_core : contexts_) {
    for (const auto& ctx : per_core) total.merge(ctx->flows().access_stats());
  }
  return total;
}

void ChainAssembly::init_chain(IChain& chain, const SprayerConfig& cfg,
                               telemetry::MetricsRegistry* registry) {
  hop_init_.resize(chain.num_hops());
  for (auto& hc : hop_init_) hc.registry = registry;
  ChainInit ci;
  ci.hop_cfgs = hop_init_;
  ci.num_cores = cfg.num_cores;
  ci.registry = registry;
  ci.hop_timing = cfg.chain_hop_timing;
  ci.lifecycle_sweep = cfg.lifecycle.sweep;
  ci.idle_timeout_override = cfg.lifecycle.idle_timeout;
  ci.housekeeping_interval = cfg.housekeeping_interval;
  chain.init(ci);
  stateless_chain_ = true;
  for (const auto& hc : hop_init_) stateless_chain_ &= hc.stateless;
}

void ChainAssembly::build_tables(const SprayerConfig& cfg) {
  // Each hop keys by its own tuple space and entry size, so hops never
  // share a table; the strategy decides shard vs replica.
  strategy_ = state::StateStrategy::make(cfg.state, cfg.num_cores);
  const LifecycleConfig& lc = cfg.lifecycle;
  for (u32 h = 0; h < hop_init_.size(); ++h) {
    const NfInitConfig& hc = hop_init_[h];
    u32 capacity = hc.stateless ? 2u : hc.flow_table_capacity;
    if (!hc.stateless && lc.flow_table_capacity != 0) {
      capacity = lc.flow_table_capacity;
    }
    strategy_->add_hop(capacity, hc.flow_entry_size);
    if (!hc.stateless && lc.max_table_segments > 1) {
      // Opt-in online growth.
      for (FlowTable* t : strategy_->hop_tables(h)) {
        t->set_growth(lc.max_table_segments);
      }
    }
  }
  // Sized once: engines capture spans into ctx_ptrs_[core].
  contexts_.resize(cfg.num_cores);
  ctx_ptrs_.resize(cfg.num_cores);
}

std::span<NfContext* const> ChainAssembly::build_contexts(
    CoreId core, const CorePicker& picker, const SprayerConfig& cfg) {
  for (u32 h = 0; h < hop_init_.size(); ++h) {
    auto& ctx = contexts_[core].emplace_back(std::make_unique<NfContext>(
        core, strategy_->hop_tables(h), picker, cfg.costs));
    ctx->flows().set_bulk_enabled(cfg.bulk_flow_lookup);
    ctx->configure_state(strategy_->view(core, h));
    ctx_ptrs_[core].push_back(ctx.get());
  }
  return ctx_ptrs_[core];
}

}  // namespace sprayer::core
