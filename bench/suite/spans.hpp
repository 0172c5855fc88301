// Spans the suite records around its own calls into the middlebox's public
// API (packet-pool allocation, inject_bulk, the TX sink, each setup step).
// They stay in memory while the run measures and are written once, as JSON,
// when the run ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sprayer::suite {

[[nodiscard]] inline u64 now_ns() noexcept {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  u64 id = 0;
  u64 parent = 0;  // 0: a root span
  const char* name = "";
  u64 start_ns = 0;
  u64 end_ns = 0;
};

/// One writer thread's spans. Ids are unique across logs: the log's thread
/// number sits in the top bits.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 1u << 16;

  explicit SpanLog(u32 thread) : thread_(thread) {}

  /// Opens a span and returns its id (0 once the log is full, which callers
  /// pass on as a parent like any other id).
  u64 open(const char* name, u64 parent, u64 start_ns) {
    if (spans_.size() == kCapacity) {
      ++dropped_;
      return 0;
    }
    const u64 id = (u64{thread_} << 40) | (spans_.size() + 1);
    spans_.push_back(Span{id, parent, name, start_ns, start_ns});
    return id;
  }
  void close(u64 id, u64 end_ns) noexcept {
    if (id != 0) spans_[(id & ((u64{1} << 40) - 1)) - 1].end_ns = end_ns;
  }
  u64 add(const char* name, u64 parent, u64 start_ns, u64 end_ns) {
    const u64 id = open(name, parent, start_ns);
    close(id, end_ns);
    return id;
  }

  [[nodiscard]] u32 thread() const noexcept { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

 private:
  u32 thread_;
  std::vector<Span> spans_;
  u64 dropped_ = 0;
};

/// Writes every log as one JSON document; times are relative to `epoch_ns`.
/// Returns false if the file could not be written.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 u64 epoch_ns);

}  // namespace sprayer::suite
