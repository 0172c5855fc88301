// Seeded traffic for the Sprayer benchmark suite. The middlebox only ever
// receives the frames built here; the same seed always yields the same
// frames.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/ip_addr.hpp"
#include "net/mac_addr.hpp"

namespace sprayer::suite {

enum class Workload { kElephant, kWide, kChurn, kChurnRepl };

struct WorkloadSpec {
  Workload id;
  const char* name;
  /// Open-loop rate of the latency phase. Frozen at about a quarter of the
  /// seed's saturation rate on the reference host (README.md), so the
  /// latency phase measures an unsaturated system on every commit.
  double latency_mpps;
};

inline constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {Workload::kElephant, "elephant", 1.7},
    {Workload::kWide, "wide", 1.35},
    // One rate for the churn pair, so it differs only in the state layer.
    {Workload::kChurn, "churn", 0.4},
    {Workload::kChurnRepl, "churn_repl", 0.4},
}};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

[[nodiscard]] constexpr bool is_churn(Workload w) noexcept {
  return w == Workload::kChurn || w == Workload::kChurnRepl;
}

/// Every frame is a minimum-size Ethernet frame (no FCS): the NFs touch
/// headers only, so payload size would change only the generator's copy
/// cost.
inline constexpr u32 kFrameLen = 60;

/// Addressing shared by the generator, the chain and the output checks.
inline constexpr net::Ipv4Addr kVip{198, 51, 100, 1};
inline constexpr u16 kVport = 80;
inline constexpr net::Ipv4Addr kNatExternal{192, 0, 2, 1};
inline constexpr std::array<net::MacAddr, 2> kBackendMacs{
    net::MacAddr::from_id(0xb001), net::MacAddr::from_id(0xb002)};

struct Trace {
  /// count() frames of kFrameLen bytes, replayed cyclically. A churn trace
  /// closes every connection it opens before it wraps.
  std::vector<u8> frames;
  /// One SYN per flow the workload expects to be established in setup.
  std::vector<u8> syns;

  [[nodiscard]] u32 count() const noexcept {
    return static_cast<u32>(frames.size() / kFrameLen);
  }
  [[nodiscard]] u32 established() const noexcept {
    return static_cast<u32>(syns.size() / kFrameLen);
  }
  [[nodiscard]] const u8* frame(u32 i) const noexcept {
    return frames.data() + static_cast<std::size_t>(i) * kFrameLen;
  }
  [[nodiscard]] const u8* syn(u32 i) const noexcept {
    return syns.data() + static_cast<std::size_t>(i) * kFrameLen;
  }
};

[[nodiscard]] Trace make_trace(Workload w, u64 seed);

}  // namespace sprayer::suite
