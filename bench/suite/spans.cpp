#include "spans.hpp"

#include <cstdio>

namespace sprayer::suite {

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 u64 epoch_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  u64 dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  std::fprintf(f, "{\"clock\":\"steady_ns_since_start\",\"dropped\":%llu,"
               "\"spans\":[",
               static_cast<unsigned long long>(dropped));
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"id\":%llu,\"parent\":%llu,\"thread\":%u,"
                   "\"name\":\"%s\",\"start\":%llu,\"end\":%llu}",
                   first ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), log->thread(),
                   s.name,
                   static_cast<unsigned long long>(s.start_ns - epoch_ns),
                   static_cast<unsigned long long>(s.end_ns - epoch_ns));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool wrote = std::ferror(f) == 0;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace sprayer::suite
