#include "core/flow_table.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>
#include <new>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "hash/designated.hpp"

#if defined(__SSE2__) && !SPRAYER_TSAN
#include <emmintrin.h>
#define SPRAYER_FLOW_TABLE_SSE2 1
#else
#define SPRAYER_FLOW_TABLE_SSE2 0
#endif

namespace sprayer::core {

namespace {

u32 checked_capacity(u32 capacity) {
  SPRAYER_CHECK_MSG(capacity >= 2 && std::has_single_bit(capacity),
                    "flow table capacity must be a power of two");
  return std::max(capacity, FlowTable::kGroupWidth);
}

#if !SPRAYER_FLOW_TABLE_SSE2
// SWAR tag scan (assumes little-endian lane order, like every supported
// target; SSE2/NEON builds never take this path on x86).
constexpr u64 kLoBits = 0x0101010101010101ULL;
constexpr u64 kLow7 = 0x7f7f7f7f7f7f7f7fULL;

/// 0x80 flag in exactly the bytes of `x` that are zero (no false positives,
/// unlike the borrow-propagating (x - lo) & ~x & hi variant).
constexpr u64 zero_byte_flags(u64 x) noexcept {
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Compact per-byte 0x80 flags into an 8-bit lane mask (movemask emulation).
constexpr u32 flags_to_mask(u64 flags) noexcept {
  return static_cast<u32>(((flags >> 7) * 0x0102040810204080ULL) >> 56);
}

constexpr u32 bytes_equal_mask(u64 w0, u64 w1, u8 needle) noexcept {
  const u64 pattern = kLoBits * needle;
  return flags_to_mask(zero_byte_flags(w0 ^ pattern)) |
         (flags_to_mask(zero_byte_flags(w1 ^ pattern)) << 8);
}
#endif  // !SPRAYER_FLOW_TABLE_SSE2

/// Copy an entry that the owner core may be mutating concurrently; the
/// caller's seqlock version check decides whether the copy was torn.
/// Deliberately invisible to TSan: with the attribute GCC/Clang drop all
/// instrumentation here, and under TSan the bytes go through real atomic
/// loads so the compiler cannot tear or re-read them either.
SPRAYER_NO_SANITIZE_THREAD
void racy_copy(u8* dst, const u8* src, u32 n) noexcept {
#if SPRAYER_TSAN
  for (u32 i = 0; i < n; ++i) {
    dst[i] = __atomic_load_n(src + i, __ATOMIC_RELAXED);
  }
#else
  std::memcpy(dst, src, n);
#endif
}

constexpr std::size_t kHugePage = 2u << 20;

/// Heap arrays of destroyed tables, handed to the next table of the same
/// size. Whether malloc returns freed arrays to the OS depends on what else
/// sits at the top of its heap, so without this a middlebox torn down and
/// rebuilt (tests, the benchmark suite's set-up loop) re-faulted all its
/// table pages on some rebuilds and not on others: 14 ms instead of 4 ms
/// per construction at the suite's table sizes. Bounded in slots and bytes;
/// arrays beyond either bound are freed.
class ArrayCache {
 public:
  void* take(std::size_t bytes) noexcept {
    std::scoped_lock lock(mu_);
    for (u32 i = 0; i < count_; ++i) {
      if (arrays_[i].bytes != bytes) continue;
      void* p = arrays_[i].p;
      arrays_[i] = arrays_[--count_];
      cached_bytes_ -= bytes;
      return p;
    }
    return nullptr;
  }
  bool put(void* p, std::size_t bytes) noexcept {
    std::scoped_lock lock(mu_);
    if (count_ == arrays_.size() || cached_bytes_ + bytes > kMaxBytes) {
      return false;
    }
    arrays_[count_++] = {p, bytes};
    cached_bytes_ += bytes;
    return true;
  }

 private:
  static constexpr std::size_t kMaxBytes = 64u << 20;
  struct Array {
    void* p;
    std::size_t bytes;
  };
  std::mutex mu_;
  std::array<Array, 64> arrays_{};
  u32 count_ = 0;
  std::size_t cached_bytes_ = 0;
};

/// Never destroyed: tables may still be freed during static destruction.
ArrayCache& array_cache() {
  static auto* cache = new ArrayCache;
  return *cache;
}

/// Backing store for the randomly-probed arrays. At DPDK-scale table sizes
/// (hundreds of MB) random probes over 4 KiB pages miss the TLB on every
/// access, and x86 drops software prefetches whose page walk misses — which
/// would silently defeat the batched-lookup pipeline. So, like DPDK's
/// hugetlbfs-backed rte_hash, back every hugepage-sized array with 2 MiB
/// pages: preferably from the explicit hugetlb pool (vm.nr_hugepages),
/// otherwise as a transparent-hugepage hint the kernel may honor. Small
/// arrays use the ordinary cache-line-aligned heap, recycled through
/// ArrayCache.
void* alloc_table_array(std::size_t bytes) {
#ifdef __linux__
  if (bytes >= kHugePage) {
    const std::size_t len = (bytes + kHugePage - 1) & ~(kHugePage - 1);
    void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (p == MAP_FAILED) {
      p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      SPRAYER_CHECK(p != MAP_FAILED);
      ::madvise(p, len, MADV_HUGEPAGE);
    }
    std::memset(p, 0, bytes);  // fault all pages in up front
    return p;
  }
#endif
  void* p = array_cache().take(bytes);
  if (p == nullptr) {
    p = ::operator new[](bytes, std::align_val_t{kCacheLineSize});
  }
  std::memset(p, 0, bytes);
  return p;
}

void free_table_array(void* p, std::size_t bytes) noexcept {
#ifdef __linux__
  if (bytes >= kHugePage) {
    ::munmap(p, (bytes + kHugePage - 1) & ~(kHugePage - 1));
    return;
  }
#endif
  if (array_cache().put(p, bytes)) return;
  ::operator delete[](p, std::align_val_t{kCacheLineSize});
}

/// Seqlock counters live in a table array too, so they recycle with it.
std::atomic<u32>* alloc_versions(u32 capacity) {
  return new (alloc_table_array(capacity * sizeof(std::atomic<u32>)))
      std::atomic<u32>[capacity];
}

void free_versions(std::atomic<u32>* versions, u32 capacity) noexcept {
  free_table_array(versions, capacity * sizeof(std::atomic<u32>));
}

}  // namespace

FlowTable::FlowTable(u32 capacity, u32 entry_size, CoreId owner)
    : capacity_(checked_capacity(capacity)),
      group_mask_(capacity_ / kGroupWidth - 1),
      entry_size_(entry_size),
      stride_(8 + ((entry_size + 7u) & ~7u)),
      owner_(owner),
      seg_max_occupancy_(capacity_ - capacity_ / 8) {  // load factor ≤ 87.5 %
  SPRAYER_CHECK(entry_size >= 1);
  static_assert(kEmptyTag == 0, "zeroed tag array must read as all-empty");
  Segment& s = segs_[0];
  s.tags = static_cast<u8*>(alloc_table_array(capacity_));
  s.key_words =
      static_cast<u64*>(alloc_table_array(2ULL * capacity_ * sizeof(u64)));
  s.versions = alloc_versions(capacity_);
  s.data = static_cast<u8*>(
      alloc_table_array(static_cast<std::size_t>(capacity_) * stride_));
}

FlowTable::~FlowTable() {
  const u32 nsegs = num_segments_.load(std::memory_order_relaxed);
  for (u32 si = 0; si < nsegs; ++si) {
    Segment& s = segs_[si];
    free_table_array(s.data, static_cast<std::size_t>(capacity_) * stride_);
    free_versions(s.versions, capacity_);
    free_table_array(s.key_words, 2ULL * capacity_ * sizeof(u64));
    free_table_array(s.tags, capacity_);
  }
}

void FlowTable::grow(u32 nsegs) {
  SPRAYER_DCHECK(nsegs < max_segments_);
  Segment& s = segs_[nsegs];
  s.tags = static_cast<u8*>(alloc_table_array(capacity_));
  s.key_words =
      static_cast<u64*>(alloc_table_array(2ULL * capacity_ * sizeof(u64)));
  s.versions = alloc_versions(capacity_);
  s.data = static_cast<u8*>(
      alloc_table_array(static_cast<std::size_t>(capacity_) * stride_));
  // Release-publish: a reader that observes the new count also observes the
  // fully-built (zeroed, hence all-empty) segment arrays above.
  num_segments_.store(nsegs + 1, std::memory_order_release);
}

FlowTable::FlowHash FlowTable::hash_of(const net::FiveTuple& key) noexcept {
  return hash::flow_hash(key);
}

FlowTable::PackedKey FlowTable::pack_key(const net::FiveTuple& t) noexcept {
  return PackedKey{
      (static_cast<u64>(t.src_ip.host_order()) << 32) | t.dst_ip.host_order(),
      (static_cast<u64>(t.src_port) << 32) |
          (static_cast<u64>(t.dst_port) << 16) | t.protocol};
}

net::FiveTuple FlowTable::unpack_key(PackedKey k) noexcept {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr{static_cast<u32>(k.a >> 32)};
  t.dst_ip = net::Ipv4Addr{static_cast<u32>(k.a)};
  t.src_port = static_cast<u16>(k.b >> 32);
  t.dst_port = static_cast<u16>(k.b >> 16);
  t.protocol = static_cast<u8>(k.b);
  return t;
}

FlowTable::PackedKey FlowTable::load_key(const Segment& s,
                                         u32 slot) noexcept {
  u64* w = s.key_words + 2ULL * slot;
  PackedKey k;
  k.a = std::atomic_ref<u64>(w[0]).load(std::memory_order_relaxed);
  k.b = std::atomic_ref<u64>(w[1]).load(std::memory_order_relaxed);
  return k;
}

void FlowTable::store_key(const Segment& s, u32 slot, PackedKey k) noexcept {
  u64* w = s.key_words + 2ULL * slot;
  std::atomic_ref<u64>(w[0]).store(k.a, std::memory_order_relaxed);
  std::atomic_ref<u64>(w[1]).store(k.b, std::memory_order_relaxed);
}

void FlowTable::store_tag(const Segment& s, u32 slot, u8 tag) noexcept {
  // Release: publishes the key/entry stores that precede it to probing cores.
  std::atomic_ref<u8>(s.tags[slot]).store(tag, std::memory_order_release);
}

FlowTable::GroupScan FlowTable::scan_group(const Segment& seg, u32 group,
                                           u8 needle) const noexcept {
#if SPRAYER_FLOW_TABLE_SSE2
  // Groups are 16-byte aligned inside the cache-line-aligned tag array.
  const __m128i v = _mm_load_si128(
      reinterpret_cast<const __m128i*>(seg.tags + group_base(group)));
  const auto mask_of = [&](u8 byte) noexcept {
    return static_cast<u32>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(byte)))));
  };
  const u32 match = mask_of(needle);
  const u32 empty = mask_of(kEmptyTag);
  const u32 tomb = mask_of(kTombstoneTag);
  return GroupScan{match, empty | tomb, empty};
#else
  u64 w[2];
#if SPRAYER_TSAN
  // Cross-core tag reads must be TSan-visible: gather the group through
  // per-byte atomic loads, then scan the local copy.
  u8 buf[kGroupWidth];
  for (u32 i = 0; i < kGroupWidth; ++i) {
    buf[i] = std::atomic_ref<u8>(seg.tags[group_base(group) + i])
                 .load(std::memory_order_acquire);
  }
  std::memcpy(w, buf, sizeof w);
#else
  std::memcpy(w, seg.tags + group_base(group), sizeof w);
#endif
  const u32 match = bytes_equal_mask(w[0], w[1], needle);
  const u32 empty = bytes_equal_mask(w[0], w[1], kEmptyTag);
  const u32 tomb = bytes_equal_mask(w[0], w[1], kTombstoneTag);
  return GroupScan{match, empty | tomb, empty};
#endif
}

u32 FlowTable::probe(const Segment& seg, const PackedKey& key,
                     u64 m) const noexcept {
  const u8 needle = tag_of(m);
  u32 g = group_of(m);
  const u32 num_groups = group_mask_ + 1;
  for (u32 i = 0; i < num_groups; ++i) {
    const GroupScan s = scan_group(seg, g, needle);
    u32 match = s.match;
    while (match != 0) {
      const u32 slot = group_base(g) + std::countr_zero(match);
      match &= match - 1;
      if (key_equals(seg, slot, key)) return slot;
    }
    // A group with an empty slot was never probed past during insertion,
    // so the key cannot live further down the chain.
    if (s.empty != 0) return kNotFound;
    g = (g + 1) & group_mask_;
  }
  return kNotFound;
}

FlowTable::InsertScan FlowTable::insert_scan(const Segment& seg,
                                             const PackedKey& key,
                                             u64 m) const noexcept {
  const u8 needle = tag_of(m);
  u32 g = group_of(m);
  u32 free_at = kNotFound;
  const u32 num_groups = group_mask_ + 1;
  for (u32 i = 0; i < num_groups; ++i) {
    const GroupScan s = scan_group(seg, g, needle);
    u32 match = s.match;
    while (match != 0) {
      const u32 slot = group_base(g) + std::countr_zero(match);
      match &= match - 1;
      if (key_equals(seg, slot, key)) return InsertScan{slot, free_at};
    }
    if (free_at == kNotFound && s.free != 0) {
      free_at = group_base(g) + std::countr_zero(s.free);
    }
    if (s.empty != 0) break;  // key definitely absent from this segment
    g = (g + 1) & group_mask_;
  }
  return InsertScan{kNotFound, free_at};
}

// Memoized-hash verification policy: only the mutating paths (insert /
// remove) re-derive the Toeplitz hash under SPRAYER_DCHECK — a stale hash
// there would plant a key under the wrong tag and corrupt the table for its
// whole lifetime. The read paths deliberately do NOT re-verify: a stale
// hash on lookup is just a miss (handled like any miss), and re-running the
// per-byte Toeplitz LUT on every lookup would defeat the whole point of
// memoizing the hash in checked builds, which are the default build flavor
// here (Release keeps SPRAYER_DCHECK on).

void* FlowTable::insert(const net::FiveTuple& key, FlowHash hash) {
  SPRAYER_DCHECK(hash == hash_of(key));
  const u32 nsegs = num_segments_.load(std::memory_order_relaxed);
  if (occupied_.load(std::memory_order_relaxed) >=
          static_cast<u64>(seg_max_occupancy_) * nsegs &&
      nsegs >= max_segments_) {
    return nullptr;
  }
  const PackedKey pk = pack_key(key);
  const u64 m = mix(hash, pk);
  // Scan every published segment for the key first — a flow lives in exactly
  // one segment, so a fresh placement may only happen once no segment holds
  // it. Remember the first free slot in the first segment with headroom.
  u32 place_seg = kNotFound;
  u32 place_slot = kNotFound;
  for (u32 si = 0; si < nsegs; ++si) {
    const InsertScan s = insert_scan(segs_[si], pk, m);
    if (s.found != kNotFound) return seg_entry(segs_[si], s.found);
    if (place_slot == kNotFound && s.free_at != kNotFound &&
        seg_occupied_[si] < seg_max_occupancy_) {
      place_seg = si;
      place_slot = s.free_at;
    }
  }
  if (place_slot == kNotFound) {
    if (nsegs >= max_segments_) return nullptr;  // full, growth exhausted
    grow(nsegs);
    place_seg = nsegs;
    place_slot = group_base(group_of(m));  // home group of an empty segment
  }
  const Segment& seg = segs_[place_seg];
  // Seqlock write: remote readers retry while the version is odd. The memset
  // covers the whole stride so the idle stamp of a recycled slot is cleared
  // along with the entry bytes.
  seg.versions[place_slot].fetch_add(1, std::memory_order_release);
  store_key(seg, place_slot, pk);
  std::memset(seg_entry(seg, place_slot) - 8, 0, stride_);
  store_tag(seg, place_slot, tag_of(m));
  seg.versions[place_slot].fetch_add(1, std::memory_order_release);
  ++seg_occupied_[place_seg];
  occupied_.fetch_add(1, std::memory_order_relaxed);
  return seg_entry(seg, place_slot);
}

bool FlowTable::remove(const net::FiveTuple& key, FlowHash hash) {
  SPRAYER_DCHECK(hash == hash_of(key));
  const PackedKey pk = pack_key(key);
  const u64 m = mix(hash, pk);
  const u32 nsegs = num_segments_.load(std::memory_order_relaxed);
  for (u32 si = 0; si < nsegs; ++si) {
    const Segment& seg = segs_[si];
    const u32 slot = probe(seg, pk, m);
    if (slot == kNotFound) continue;
    const u32 g = slot / kGroupWidth;
    // If the slot's group already has an empty lane, no probe chain continues
    // past this group, so the slot can go straight back to empty instead of
    // leaving a tombstone. (Inductively, such a group has never been probed
    // past, so nothing further down the chain can depend on it.)
    const bool to_empty = scan_group(seg, g, tag_of(m)).empty != 0;
    seg.versions[slot].fetch_add(1, std::memory_order_release);
    store_tag(seg, slot, to_empty ? kEmptyTag : kTombstoneTag);
    seg.versions[slot].fetch_add(1, std::memory_order_release);
    --seg_occupied_[si];
    occupied_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void* FlowTable::find_local(const net::FiveTuple& key, FlowHash hash) noexcept {
  const PackedKey pk = pack_key(key);
  const u64 m = mix(hash, pk);
  const u32 nsegs = num_segments_.load(std::memory_order_relaxed);
  for (u32 si = 0; si < nsegs; ++si) {
    const u32 slot = probe(segs_[si], pk, m);
    if (slot != kNotFound) return seg_entry(segs_[si], slot);
  }
  return nullptr;
}

const void* FlowTable::find_remote(const net::FiveTuple& key,
                                   FlowHash hash) const noexcept {
  const PackedKey pk = pack_key(key);
  const u64 m = mix(hash, pk);
  const u32 nsegs = num_segments_.load(std::memory_order_acquire);
  for (u32 si = 0; si < nsegs; ++si) {
    const u32 slot = probe(segs_[si], pk, m);
    if (slot != kNotFound) return seg_entry(segs_[si], slot);
  }
  return nullptr;
}

u32 FlowTable::find_batch(std::span<const net::FiveTuple> keys,
                          std::span<const FlowHash> hashes,
                          std::span<const void*> out) const noexcept {
  SPRAYER_DCHECK(hashes.size() == keys.size());
  SPRAYER_DCHECK(out.size() >= keys.size());
  // Rotating per-item software pipeline, rte_hash_lookup_bulk-style: each
  // lookup passes through three stages spaced kDistance items apart, so
  // every prefetch gets ~16 lookups of independent work before its line is
  // consumed. Advancing one item per step (instead of a chunk per phase)
  // keeps the prefetch issue rate even — a burst of 16+ back-to-back
  // prefetches overruns the L1 fill buffers and the excess is silently
  // dropped, resurfacing as demand misses in stage 3.
  //
  // The pipeline targets segment 0, where every flow lives until the table
  // grows; misses fall back to scalar probes of the overflow segments.
  const u32 nsegs = num_segments_.load(std::memory_order_acquire);
  const Segment& seg0 = segs_[0];
  const std::size_t total = keys.size();
  constexpr std::size_t kDistance = 16;
  // Mixed hashes for the 2*kDistance lookups in flight between stage 1 and
  // stage 3. Slot i % (2*kDistance) is recycled by stage 1 in the same step
  // that stage 3 retires item i, so stage 3 runs first within a step.
  std::array<u64, 2 * kDistance> mbuf;
  // Stage 1: mix the lookup's hash, prefetch its home tag group.
  const auto stage1 = [&](std::size_t i) noexcept {
    const u64 m = mix(hashes[i], pack_key(keys[i]));
    mbuf[i % mbuf.size()] = m;
    SPRAYER_PREFETCH_READ(seg0.tags + group_base(group_of(m)));
  };
  // Stage 2: scan the (now resident) home group, prefetch the first
  // candidate's key and entry lines. If the home group has no empty lane the
  // probe chain continues, so also start fetching the overflow group's tags.
  const auto stage2 = [&](std::size_t i) noexcept {
    const u64 m = mbuf[i % mbuf.size()];
    const u32 g = group_of(m);
    const GroupScan s = scan_group(seg0, g, tag_of(m));
    if (s.match != 0) {
      const u32 slot = group_base(g) + std::countr_zero(s.match);
      SPRAYER_PREFETCH_READ(seg0.key_words + 2ULL * slot);
      SPRAYER_PREFETCH_READ(seg_entry(seg0, slot));
    }
    if (s.empty == 0) {
      SPRAYER_PREFETCH_READ(seg0.tags + group_base((g + 1) & group_mask_));
    }
  };
  // Stage 3: full probe — the home tag group and the likely key/entry lines
  // have each been in flight for kDistance lookups' worth of work.
  const auto stage3 = [&](std::size_t i) noexcept {
    const u64 m = mbuf[i % mbuf.size()];
    const PackedKey pk = pack_key(keys[i]);
    u32 slot = probe(seg0, pk, m);
    const void* entry = slot == kNotFound ? nullptr : seg_entry(seg0, slot);
    for (u32 si = 1; entry == nullptr && si < nsegs; ++si) {
      slot = probe(segs_[si], pk, m);
      if (slot != kNotFound) entry = seg_entry(segs_[si], slot);
    }
    out[i] = entry;
    return static_cast<u32>(entry != nullptr);
  };
  u32 hits = 0;
  for (std::size_t step = 0; step < total + 2 * kDistance; ++step) {
    if (step >= 2 * kDistance) hits += stage3(step - 2 * kDistance);
    if (step >= kDistance && step - kDistance < total) {
      stage2(step - kDistance);
    }
    if (step < total) stage1(step);
  }
  return hits;
}

bool FlowTable::read_consistent(const net::FiveTuple& key, FlowHash hash,
                                std::span<u8> out) const noexcept {
  SPRAYER_DCHECK(out.size() >= entry_size_);
  const PackedKey pk = pack_key(key);
  const u64 m = mix(hash, pk);
  const u8 needle = tag_of(m);
  const u32 nsegs = num_segments_.load(std::memory_order_acquire);
  const u32 num_groups = group_mask_ + 1;
  for (u32 si = 0; si < nsegs; ++si) {
    const Segment& seg = segs_[si];
    u32 g = group_of(m);
    for (u32 i = 0; i < num_groups; ++i) {
      const GroupScan s = scan_group(seg, g, needle);
      u32 match = s.match;
      while (match != 0) {
        const u32 slot = group_base(g) + std::countr_zero(match);
        match &= match - 1;
        for (;;) {
          const u32 v1 = seg.versions[slot].load(std::memory_order_acquire);
          if (v1 & 1) {  // writer in progress, retry
            cpu_relax();
            continue;
          }
          const bool found =
              load_tag(seg, slot) == needle && key_equals(seg, slot, pk);
          if (found) {
            racy_copy(out.data(), seg_entry(seg, slot), entry_size_);
          }
          std::atomic_thread_fence(std::memory_order_acquire);
          const u32 v2 = seg.versions[slot].load(std::memory_order_relaxed);
          if (v1 == v2) {
            if (found) return true;
            break;  // stable non-match: continue probing
          }
          // Version moved under us: retry this slot.
        }
      }
      if (s.empty != 0) break;  // absent from this segment, try the next
      g = (g + 1) & group_mask_;
    }
  }
  return false;
}

const FlowTable::Segment& FlowTable::segment_of(const void* entry,
                                                u32* slot) const noexcept {
  const u8* p = static_cast<const u8*>(entry) - 8;
  const u32 nsegs = num_segments_.load(std::memory_order_relaxed);
  const std::size_t seg_bytes = static_cast<std::size_t>(capacity_) * stride_;
  for (u32 si = 0; si < nsegs; ++si) {
    const Segment& s = segs_[si];
    if (p >= s.data && p < s.data + seg_bytes) {
      *slot = static_cast<u32>(static_cast<std::size_t>(p - s.data) / stride_);
      return s;
    }
  }
  SPRAYER_CHECK_MSG(false, "entry pointer does not belong to this table");
  return segs_[0];  // unreachable
}

void FlowTable::write_begin(void* entry) noexcept {
  u32 slot = 0;
  const Segment& s = segment_of(entry, &slot);
  s.versions[slot].fetch_add(1, std::memory_order_release);
}

void FlowTable::write_end(void* entry) noexcept {
  u32 slot = 0;
  const Segment& s = segment_of(entry, &slot);
  s.versions[slot].fetch_add(1, std::memory_order_release);
}

}  // namespace sprayer::core
