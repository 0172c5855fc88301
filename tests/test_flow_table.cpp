// FlowTable: insert/find/remove semantics, tombstone probing, load-factor
// limits, seqlock-consistent remote reads under a concurrent writer, and
// batch-lookup equivalence with the scalar path under randomized churn.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/flow_table.hpp"

namespace sprayer::core {
namespace {

net::FiveTuple tuple_n(u32 n) {
  return {net::Ipv4Addr{n}, net::Ipv4Addr{~n}, static_cast<u16>(n * 7 + 1),
          static_cast<u16>(n * 13 + 1), net::kProtoTcp};
}

TEST(FlowTable, InsertFindRemove) {
  FlowTable table(64, 8, 0);
  EXPECT_EQ(table.size(), 0u);

  void* e = table.insert(tuple_n(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(table.size(), 1u);
  *static_cast<u64*>(e) = 0xabcdef;

  EXPECT_EQ(table.find_local(tuple_n(1)), e);
  EXPECT_EQ(*static_cast<const u64*>(table.find_remote(tuple_n(1))),
            0xabcdefu);
  EXPECT_EQ(table.find_local(tuple_n(2)), nullptr);

  EXPECT_TRUE(table.remove(tuple_n(1)));
  EXPECT_FALSE(table.remove(tuple_n(1)));
  EXPECT_EQ(table.find_local(tuple_n(1)), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, InsertIsIdempotent) {
  FlowTable table(16, 8, 0);
  void* a = table.insert(tuple_n(5));
  *static_cast<u64*>(a) = 42;
  void* b = table.insert(tuple_n(5));
  EXPECT_EQ(a, b);  // existing entry returned, not overwritten
  EXPECT_EQ(*static_cast<u64*>(b), 42u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, NewEntriesAreZeroed) {
  FlowTable table(16, 16, 0);
  void* a = table.insert(tuple_n(1));
  std::memset(a, 0xff, 16);
  ASSERT_TRUE(table.remove(tuple_n(1)));
  void* b = table.insert(tuple_n(1));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<u8*>(b)[i], 0) << i;
  }
}

TEST(FlowTable, RebuiltTableStartsEmpty) {
  // A table built right after an equal-shape one is destroyed reuses its
  // arrays; every tag, key, seqlock counter and entry must read as new.
  constexpr u32 kFlows = 40;
  {
    FlowTable old(64, 16, 0);
    for (u32 i = 0; i < kFlows; ++i) {
      auto* e = static_cast<u8*>(old.insert(tuple_n(i)));
      ASSERT_NE(e, nullptr);
      std::memset(e, 0xab, 16);
    }
  }
  FlowTable table(64, 16, 0);
  EXPECT_EQ(table.size(), 0u);
  u32 visited = 0;
  table.for_each([&](const net::FiveTuple&, void*) { ++visited; });
  EXPECT_EQ(visited, 0u);
  for (u32 i = 0; i < kFlows; ++i) {
    EXPECT_EQ(table.find_remote(tuple_n(i)), nullptr);
  }
  const auto* e = static_cast<const u8*>(table.insert(tuple_n(0)));
  ASSERT_NE(e, nullptr);
  for (u32 b = 0; b < 16; ++b) EXPECT_EQ(e[b], 0u);
  EXPECT_EQ(FlowTable::last_seen(e), 0u);
  std::array<u8, 16> copy{};
  EXPECT_TRUE(table.read_consistent(tuple_n(0), copy));
}

TEST(FlowTable, RespectsMaxLoadFactor) {
  FlowTable table(64, 8, 0);
  u32 inserted = 0;
  for (u32 i = 0; i < 64; ++i) {
    if (table.insert(tuple_n(i)) != nullptr) ++inserted;
  }
  EXPECT_EQ(inserted, 64u - 64u / 8u);  // 87.5 % cap
  EXPECT_EQ(table.insert(tuple_n(1000)), nullptr);
}

TEST(FlowTable, ProbesAcrossTombstones) {
  FlowTable table(64, 8, 0);
  // Insert many, remove every other one, then verify the rest is findable
  // (probe chains must skip tombstones).
  for (u32 i = 0; i < 40; ++i) ASSERT_NE(table.insert(tuple_n(i)), nullptr);
  for (u32 i = 0; i < 40; i += 2) ASSERT_TRUE(table.remove(tuple_n(i)));
  for (u32 i = 1; i < 40; i += 2) {
    EXPECT_NE(table.find_local(tuple_n(i)), nullptr) << i;
  }
  for (u32 i = 0; i < 40; i += 2) {
    EXPECT_EQ(table.find_local(tuple_n(i)), nullptr) << i;
  }
  // Tombstoned slots are reusable.
  for (u32 i = 100; i < 115; ++i) {
    EXPECT_NE(table.insert(tuple_n(i)), nullptr) << i;
  }
}

TEST(FlowTable, ForEachVisitsLiveEntriesOnly) {
  FlowTable table(32, 8, 0);
  for (u32 i = 0; i < 10; ++i) ASSERT_NE(table.insert(tuple_n(i)), nullptr);
  table.remove(tuple_n(3));
  table.remove(tuple_n(7));
  u32 visited = 0;
  table.for_each([&](const net::FiveTuple& key, void*) {
    EXPECT_NE(key, tuple_n(3));
    EXPECT_NE(key, tuple_n(7));
    ++visited;
  });
  EXPECT_EQ(visited, 8u);
}

TEST(FlowTable, ReadConsistentSnapshot) {
  FlowTable table(16, 8, 0);
  void* e = table.insert(tuple_n(1));
  *static_cast<u64*>(e) = 7;
  u8 buf[8];
  ASSERT_TRUE(table.read_consistent(tuple_n(1), buf));
  u64 v;
  std::memcpy(&v, buf, 8);
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(table.read_consistent(tuple_n(2), buf));
}

// Writing partition in action: one writer thread (the owner core) updating
// an entry through write_begin/write_end, one reader thread snapshotting it
// with read_consistent — the reader must never observe a torn value.
TEST(FlowTable, SeqlockPreventsTornReads) {
  FlowTable table(16, 16, 0);
  struct Pair {
    u64 a;
    u64 b;
  };
  auto* e = static_cast<Pair*>(table.insert(tuple_n(1)));
  ASSERT_NE(e, nullptr);
  e->a = 0;
  e->b = 0;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    u8 buf[16];
    while (!stop.load(std::memory_order_relaxed)) {
      if (table.read_consistent(tuple_n(1), buf)) {
        Pair snapshot;
        std::memcpy(&snapshot, buf, sizeof(snapshot));
        // Invariant maintained by the writer: b == 2 * a.
        EXPECT_EQ(snapshot.b, 2 * snapshot.a);
      }
    }
  });
  for (u64 i = 1; i <= 50000; ++i) {
    table.write_begin(e);
    e->a = i;
    e->b = 2 * i;
    table.write_end(e);
  }
  stop.store(true);
  reader.join();
}

// Property: find_batch agrees with the scalar lookups (and with a reference
// model) at every point of a randomized insert/remove/lookup interleaving,
// including tombstone-heavy phases where most slots have been churned.
TEST(FlowTable, FindBatchMatchesScalarUnderChurn) {
  Rng rng(0xf10fb47c);
  for (const u32 capacity : {16u, 64u, 1024u}) {
    FlowTable table(capacity, 8, 0);
    std::map<u32, u64> model;  // key index -> value written to the entry
    const u32 universe = capacity * 2;

    for (u32 step = 0; step < 4000; ++step) {
      // Phase mix: mostly inserts early, mostly removes in the middle
      // (leaving a tombstone-heavy table), mixed at the end.
      const u32 phase = step / 1000;
      const u32 remove_pct = phase == 1 ? 80 : phase == 2 ? 20 : 50;
      const u32 n = static_cast<u32>(rng.uniform(universe));
      if (rng.uniform(100) < remove_pct) {
        EXPECT_EQ(table.remove(tuple_n(n)), model.erase(n) == 1) << n;
      } else {
        void* e = table.insert(tuple_n(n));
        if (e == nullptr) {
          // Insert refused: only legal at the load-factor cap (which is
          // checked before the existing-key probe, so even a present key
          // can be refused there).
          EXPECT_GE(table.size(), capacity - capacity / 8);
        } else if (model.contains(n)) {
          EXPECT_EQ(*static_cast<u64*>(e), model[n]);
        } else {
          const u64 v = rng.next() | 1;
          *static_cast<u64*>(e) = v;
          model[n] = v;
        }
      }
      EXPECT_EQ(table.size(), model.size());

      if (step % 64 != 0) continue;
      // Cross-check a mixed batch of present and absent keys.
      std::vector<net::FiveTuple> keys;
      std::vector<FlowTable::FlowHash> hashes;
      for (u32 i = 0; i < 33; ++i) {
        keys.push_back(tuple_n(static_cast<u32>(rng.uniform(universe))));
        hashes.push_back(FlowTable::hash_of(keys.back()));
      }
      std::vector<const void*> out(keys.size(), nullptr);
      const u32 hits = table.find_batch(keys, hashes, out);
      u32 expected_hits = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(out[i], table.find_remote(keys[i])) << "batch vs scalar";
        const u32 n_i = keys[i].src_ip.host_order();
        const auto it = model.find(n_i);
        if (it == model.end()) {
          EXPECT_EQ(out[i], nullptr);
        } else {
          ASSERT_NE(out[i], nullptr);
          EXPECT_EQ(*static_cast<const u64*>(out[i]), it->second);
          ++expected_hits;
        }
      }
      EXPECT_EQ(hits, expected_hits);
    }
  }
}

// Threaded: a reader doing bulk remote probes plus seqlock snapshots while
// the owner churns inserts/removes and in-place updates must never observe
// a torn entry. (Runs under TSan in CI to also prove the probe/publish
// paths are race-annotated correctly.)
TEST(FlowTable, BulkRemoteReadsSeeNoTornEntriesUnderChurn) {
  FlowTable table(64, 16, 0);
  struct Pair {
    u64 a;
    u64 b;
  };
  constexpr u32 kKeys = 24;
  std::vector<net::FiveTuple> keys;
  std::vector<FlowTable::FlowHash> hashes;
  for (u32 i = 0; i < kKeys; ++i) {
    keys.push_back(tuple_n(i));
    hashes.push_back(FlowTable::hash_of(keys.back()));
  }

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<const void*> out(kKeys, nullptr);
    u8 buf[16];
    while (!stop.load(std::memory_order_relaxed)) {
      // Bulk probe: results may race with removal, but must never crash or
      // return junk pointers. Entry bytes are only read via the seqlock.
      table.find_batch(keys, hashes, out);
      for (u32 i = 0; i < kKeys; ++i) {
        if (table.read_consistent(keys[i], hashes[i], buf)) {
          Pair snapshot;
          std::memcpy(&snapshot, buf, sizeof(snapshot));
          // Writer invariant: b == 2 * a (holds for the zeroed entry too).
          EXPECT_EQ(snapshot.b, 2 * snapshot.a);
        }
      }
    }
  });

  Rng rng(0x7ea5);
  for (u32 round = 0; round < 8000; ++round) {
    const u32 i = static_cast<u32>(rng.uniform(kKeys));
    auto* e = static_cast<Pair*>(table.find_local(keys[i], hashes[i]));
    if (e == nullptr) {
      e = static_cast<Pair*>(table.insert(keys[i], hashes[i]));
      ASSERT_NE(e, nullptr);
    }
    table.write_begin(e);
    e->a = round;
    e->b = 2ull * round;
    table.write_end(e);
    if (rng.uniform(4) == 0) {
      ASSERT_TRUE(table.remove(keys[i], hashes[i]));
    }
  }
  stop.store(true);
  reader.join();
}

}  // namespace
}  // namespace sprayer::core
