#include "core/chain.hpp"

#include <algorithm>
#include <chrono>

namespace sprayer::core {

namespace {

/// Housekeeping ticks per sweep rotation: one rotation per
/// max(8 ticks, idle_timeout / 8). An idle flow then expires within
/// 1.125x its timeout (8 ticks past it for short timeouts), and a table
/// whose flows live for minutes is scanned in slices small enough to keep
/// the sweep out of the packet path's latency.
u64 rotation_ticks(Time idle_timeout, Time tick) noexcept {
  constexpr u64 kMinTicks = 8;
  if (tick == 0) return kMinTicks;
  return std::max<u64>(kMinTicks, idle_timeout / 8 / tick);
}

}  // namespace

Time chain_clock_ns() noexcept {
  return static_cast<Time>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) *
         kNanosecond;
}

ChainBase::ChainBase(std::vector<INetworkFunction*> hops)
    : hops_(std::move(hops)),
      hop_stateless_(hops_.size(), 0),
      hop_tm_(hops_.size()),
      hop_idle_(hops_.size(), 0),
      hop_rotation_(hops_.size(), 0) {
  SPRAYER_CHECK_MSG(!hops_.empty(), "a chain needs at least one hop");
  for (const INetworkFunction* nf : hops_) {
    SPRAYER_CHECK_MSG(nf != nullptr, "chain hop must not be null");
  }
}

void ChainBase::init(const ChainInit& ci) {
  SPRAYER_CHECK_MSG(ci.hop_cfgs.size() == hops_.size(),
                    "ChainInit::hop_cfgs must have one slot per hop");
  timed_ = ci.hop_timing && ci.registry != nullptr;
  for (u32 h = 0; h < hops_.size(); ++h) {
    hops_[h]->init(ci.hop_cfgs[h], ci.num_cores);
    hop_stateless_[h] = ci.hop_cfgs[h].stateless ? 1 : 0;
    // The NF's init() leaves its protocol default in flow_idle_timeout; a
    // framework-level override wins.
    hop_idle_[h] = ci.idle_timeout_override != 0
                       ? ci.idle_timeout_override
                       : ci.hop_cfgs[h].flow_idle_timeout;
    // Only idle aging needs the sweep: a stateless hop has no table, and
    // idle timeout 0 disables aging (FIN/RST teardown and NAT's TIME_WAIT
    // queue run without it).
    hop_rotation_[h] =
        ci.lifecycle_sweep && hop_stateless_[h] == 0 && hop_idle_[h] != 0
            ? rotation_ticks(hop_idle_[h], ci.housekeeping_interval)
            : 0;
    if (ci.registry != nullptr) {
      const std::string prefix =
          "chain.h" + std::to_string(h) + "." + hops_[h]->name();
      hop_tm_[h].packets = ci.registry->counter(prefix + ".packets");
      hop_tm_[h].drops = ci.registry->counter(prefix + ".drops");
      if (timed_) hop_tm_[h].ns = ci.registry->counter(prefix + ".ns");
      if (hop_rotation_[h] != 0) {
        hop_tm_[h].expired = ci.registry->counter(prefix + ".expired");
        hop_tm_[h].sweep_ns = ci.registry->histogram(prefix + ".sweep_ns", 7);
        hop_tm_[h].sweep_groups =
            ci.registry->histogram(prefix + ".sweep_groups", 7);
      }
    }
  }
}

void ChainBase::housekeeping(std::span<NfContext* const> ctxs, Time now) {
  SPRAYER_DCHECK(ctxs.size() == hops_.size());
  for (u32 h = 0; h < hops_.size(); ++h) {
    NfContext& ctx = *ctxs[h];
    ctx.set_now(now);
    // Housekeeping mutates flow state like connection handling does:
    // attribute its accesses to the flow-event column.
    ctx.flows().set_in_connection_handler(true);
    hops_[h]->housekeeping(ctx);
    if (hop_rotation_[h] != 0) sweep_hop(h, ctx);
  }
}

void ChainBase::sweep_hop(u32 h, NfContext& ctx) {
  FlowStateApi& flows = ctx.flows();
  // ceil(groups / rotation) per tick finishes a rotation within the hop's
  // rotation period whatever the capacity. Re-derived every call: online
  // growth adds segments.
  const u64 rotation = hop_rotation_[h];
  const u32 budget = static_cast<u32>(
      (flows.local().total_groups() + rotation - 1) / rotation);
  const Time idle = hop_idle_[h];
  INetworkFunction* nf = hops_[h];
  const Time t0 = chain_clock_ns();
  const SweepStats st = flows.sweep_idle(
      budget,
      [&](const net::FiveTuple& key, const void* entry, Time last_seen) {
        return nf->flow_expired(key, entry, last_seen, idle, ctx);
      },
      [&](const net::FiveTuple& key, FlowTable::FlowHash hash) {
        nf->on_expire(key, hash, ctx);
      });
  HopMetrics& m = hop_tm_[h];
  if (st.expired > 0) m.expired.add(ctx.core(), st.expired);
  m.sweep_groups.record(ctx.core(), st.groups);
  m.sweep_ns.record(ctx.core(), (chain_clock_ns() - t0) / kNanosecond);
}

void DynamicChain::regular_pass(runtime::PacketBatch& batch,
                                ChainScratch& scratch,
                                std::span<NfContext* const> ctxs, Time now,
                                runtime::PacketBatch& drops) {
  const u32 hops = num_hops();
  for (u32 h = 0; h < hops && !batch.empty(); ++h) {
    NfContext& ctx = *ctxs[h];
    ctx.set_now(now);
    ctx.flows().set_in_connection_handler(false);
    const u32 before = batch.size();
    const Time t0 = timed_ ? chain_clock_ns() : 0;
    scratch.verdicts.reset(before);
    hops_[h]->regular_packets(batch, ctx, scratch.verdicts);
    if (scratch.verdicts.any()) {
      (void)batch.compact(
          [&](u32 i) { return scratch.verdicts.dropped(i); }, drops);
    }
    // Only downstream hops read the memoized hash; after the last hop an
    // invalidated memo is recomputed lazily by whoever needs it.
    if (h + 1 < hops && hops_[h]->rewrites_tuple()) refresh_hashes(batch);
    record_hop(h, ctx.core(), before, before - batch.size(), t0);
  }
}

void DynamicChain::connection_pass(runtime::PacketBatch& batch,
                                   ChainScratch& scratch,
                                   std::span<NfContext* const> ctxs, Time now,
                                   runtime::PacketBatch& drops) {
  const u32 hops = num_hops();
  for (u32 h = 0; h < hops && !batch.empty(); ++h) {
    NfContext& ctx = *ctxs[h];
    ctx.set_now(now);
    const bool stateless = hop_stateless_[h] != 0;
    ctx.flows().set_in_connection_handler(!stateless);
    const u32 before = batch.size();
    const Time t0 = timed_ ? chain_clock_ns() : 0;
    scratch.verdicts.reset(before);
    if (stateless) {
      // Stateless hops have no flow events to observe: a connection packet
      // is just another packet to them.
      hops_[h]->regular_packets(batch, ctx, scratch.verdicts);
    } else {
      hops_[h]->connection_packets(batch, ctx, scratch.verdicts);
    }
    if (scratch.verdicts.any()) {
      (void)batch.compact(
          [&](u32 i) { return scratch.verdicts.dropped(i); }, drops);
    }
    if (h + 1 < hops && hops_[h]->rewrites_tuple()) refresh_hashes(batch);
    record_hop(h, ctx.core(), before, before - batch.size(), t0);
  }
}

}  // namespace sprayer::core
