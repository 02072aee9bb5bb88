// Tests for the simulated file system, the unified file cache, replacement
// policies and the eviction trigger (Sections 3.5, 3.7, 4.2).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fs/file_cache.h"
#include "src/fs/file_io.h"
#include "src/fs/replacement_policy.h"
#include "src/fs/sim_file_system.h"
#include "src/system/system.h"
#include "tests/test_util.h"

namespace {

using iolfs::EvictionTrigger;
using iolfs::FileCache;
using iolfs::FileId;
using iolfs::GreedyDualSizePolicy;
using iolfs::PaperLruPolicy;
using iolfs::PlainLruPolicy;
using iolsys::System;

class FsTest : public ::testing::Test {
 protected:
  System sys_;
};

TEST_F(FsTest, CreateAndLookup) {
  FileId f = sys_.fs().CreateFile("a.html", 1000);
  EXPECT_EQ(sys_.fs().Lookup("a.html"), f);
  EXPECT_EQ(sys_.fs().Lookup("missing"), iolfs::kInvalidFile);
  EXPECT_EQ(sys_.fs().SizeOf(f), 1000u);
  EXPECT_EQ(sys_.fs().file_count(), 1u);
}

TEST_F(FsTest, DiskReadReturnsDeterministicContent) {
  FileId f = sys_.fs().CreateFile("a", 4096);
  iolite::BufferRef b1 = sys_.fs().ReadFromDisk(f, 100, 200);
  std::string expected = ioltest::FileContent(sys_.fs(), f, 100, 200);
  EXPECT_EQ(std::string(b1->data(), 200), expected);
  // Reading again regenerates identical bytes.
  iolite::BufferRef b2 = sys_.fs().ReadFromDisk(f, 100, 200);
  EXPECT_EQ(std::memcmp(b1->data(), b2->data(), 200), 0);
}

TEST_F(FsTest, DifferentFilesDifferentContent) {
  FileId a = sys_.fs().CreateFile("a", 256);
  FileId b = sys_.fs().CreateFile("b", 256);
  EXPECT_NE(ioltest::FileContent(sys_.fs(), a, 0, 256),
            ioltest::FileContent(sys_.fs(), b, 0, 256));
}

TEST_F(FsTest, DiskReadChargesDiskTime) {
  FileId f = sys_.fs().CreateFile("a", 64 * 1024);
  iolsim::SimTime before = sys_.ctx().clock().now();
  sys_.fs().ReadFromDisk(f, 0, 64 * 1024);
  EXPECT_GT(sys_.ctx().clock().now() - before, 8 * iolsim::kMillisecond);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, 1u);
  EXPECT_EQ(sys_.ctx().stats().disk_bytes_read, 64u * 1024);
}

TEST_F(FsTest, WriteOverlayWinsOnLaterReads) {
  FileId f = sys_.fs().CreateFile("a", 1000);
  std::string payload = "WRITTEN-DATA";
  iolite::Aggregate data = ioltest::AggFrom(sys_.runtime().kernel_pool(), payload);
  sys_.fs().WriteToDisk(f, 100, data);
  iolite::BufferRef b = sys_.fs().ReadFromDisk(f, 90, 40);
  EXPECT_EQ(std::string(b->data() + 10, payload.size()), payload);
  // Bytes before and after the write are untouched synthetic content.
  EXPECT_EQ(std::string(b->data(), 10), ioltest::FileContent(sys_.fs(), f, 90, 10));
}

TEST_F(FsTest, OverlappingWritesLastWins) {
  FileId f = sys_.fs().CreateFile("a", 100);
  auto* pool = sys_.runtime().kernel_pool();
  sys_.fs().WriteToDisk(f, 10, ioltest::AggFrom(pool, "aaaaaaaaaa"));  // [10,20)
  sys_.fs().WriteToDisk(f, 15, ioltest::AggFrom(pool, "bbbbbbbbbb"));  // [15,25)
  iolite::BufferRef b = sys_.fs().ReadFromDisk(f, 10, 15);
  EXPECT_EQ(std::string(b->data(), 15), "aaaaabbbbbbbbbb");
}

TEST_F(FsTest, ZeroLengthWriteKeepsOverlay) {
  FileId f = sys_.fs().CreateFile("a", 100);
  auto* pool = sys_.runtime().kernel_pool();
  sys_.fs().WriteToDisk(f, 10, ioltest::AggFrom(pool, "aaaaaaaaaa"));  // [10,20)
  uint64_t writes = sys_.ctx().stats().disk_writes;
  // Strictly inside the run, at its start and at its end.
  for (uint64_t offset : {15, 10, 20}) {
    sys_.fs().WriteToDisk(f, offset, iolite::Aggregate());
  }
  EXPECT_EQ(sys_.ctx().stats().disk_writes, writes + 3);  // Each is still charged.
  iolite::BufferRef b = sys_.fs().ReadFromDisk(f, 10, 10);
  EXPECT_EQ(std::string(b->data(), 10), "aaaaaaaaaa");
  EXPECT_EQ(ioltest::FileContent(sys_.fs(), f, 10, 10), "aaaaaaaaaa");
  EXPECT_EQ(sys_.fs().SizeOf(f), 100u);
}

// The synthetic content formula, one SplitMix64 mix per byte: byte `offset`
// of a file with seed `seed` is the low byte of mix(seed + offset * gamma).
uint8_t ReferenceSynthByte(uint64_t seed, uint64_t offset) {
  uint64_t z = seed + offset * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<uint8_t>((z ^ (z >> 31)) & 0xff);
}

TEST_F(FsTest, ContentMatchesSynthFormula) {
  FileId f = sys_.fs().CreateFile("a", 4096);
  // CreateFile's per-file seed for the first file (id 1).
  const uint64_t seed = 0x5851f42d4c957f2dull * 1 + 0x14057b7ef767814full;
  ASSERT_EQ(f, 1);
  for (uint64_t off = 0; off < 4096; off += 37) {
    ASSERT_EQ(sys_.fs().ContentByteAt(f, off), ReferenceSynthByte(seed, off)) << off;
  }
}

TEST_F(FsTest, DiskReadMatchesContentByteAt) {
  const uint64_t size = 70001;
  FileId f = sys_.fs().CreateFile("a", size);
  auto check = [&](uint64_t offset, size_t length) {
    iolite::BufferRef b = sys_.fs().ReadFromDisk(f, offset, length);
    ASSERT_TRUE(std::string(b->data(), length) ==
                ioltest::FileContent(sys_.fs(), f, offset, length))
        << "offset " << offset << " length " << length;
  };
  for (uint64_t offset : {0, 1, 3, 7, 8, 4093, 65535}) {
    for (size_t length : {1, 5, 8, 9, 15, 17, 1461, 4097}) {
      check(offset, length);
    }
  }
  // Overlay runs inside the read, straddling its start and straddling its
  // end, around the read [1001, 1001 + 3001).
  auto* pool = sys_.runtime().kernel_pool();
  sys_.fs().WriteToDisk(f, 990, ioltest::AggFrom(pool, std::string(23, 'S')));
  sys_.fs().WriteToDisk(f, 2003, ioltest::AggFrom(pool, std::string(101, 'I')));
  sys_.fs().WriteToDisk(f, 2999, ioltest::AggFrom(pool, "i"));
  sys_.fs().WriteToDisk(f, 3990, ioltest::AggFrom(pool, std::string(31, 'E')));
  check(1001, 3001);
  check(1012, 1);     // Last byte of the straddling-start run.
  check(1013, 990);   // Just past that run, up to the inner run's start.
  check(2104, 1887);  // Starts at the inner run's end, ends inside the last run.
  check(0, size);
}

TEST_F(FsTest, WriteExtendsFile) {
  FileId f = sys_.fs().CreateFile("a", 10);
  auto* pool = sys_.runtime().kernel_pool();
  sys_.fs().WriteToDisk(f, 8, ioltest::AggFrom(pool, "0123456789"));
  EXPECT_EQ(sys_.fs().SizeOf(f), 18u);
}

TEST_F(FsTest, MetadataCacheAvoidsRepeatInodeReads) {
  FileId f = sys_.fs().CreateFile("a", 10);
  uint64_t reads_before = sys_.ctx().stats().disk_reads;
  sys_.fs().TouchMetadata(f);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, reads_before + 1);
  sys_.fs().TouchMetadata(f);
  EXPECT_EQ(sys_.ctx().stats().disk_reads, reads_before + 1);  // Hit.
}

TEST_F(FsTest, MetadataCacheEvictsLeastRecentlyUsedAtItsBound) {
  const int slots = 512;  // SimFileSystem's metadata cache bound.
  std::vector<FileId> files;
  for (int i = 0; i <= slots; ++i) {
    files.push_back(sys_.fs().CreateFile(std::to_string(i), 10));
  }
  uint64_t& reads = sys_.ctx().stats().disk_reads;
  auto misses = [&](FileId f) {
    uint64_t before = reads;
    sys_.fs().TouchMetadata(f);
    return reads - before;
  };
  for (int i = 0; i < slots; ++i) {
    ASSERT_EQ(misses(files[i]), 1u) << i;
  }
  for (int i = 0; i < slots; ++i) {
    ASSERT_EQ(misses(files[i]), 0u) << i;  // All 512 stay resident.
  }
  // Recency is now files[0] oldest ... files[511] newest; refresh files[0].
  EXPECT_EQ(misses(files[0]), 0u);
  EXPECT_EQ(misses(files[slots]), 1u);  // Evicts files[1], the oldest.
  EXPECT_EQ(misses(files[0]), 0u);
  EXPECT_EQ(misses(files[2]), 0u);
  EXPECT_EQ(misses(files[1]), 1u);  // Evicts files[3].
  EXPECT_EQ(misses(files[slots]), 0u);
  EXPECT_EQ(misses(files[3]), 1u);  // Evicts files[4].
  EXPECT_EQ(misses(files[5]), 0u);
}

// --- FileIoService / cache behaviour ----------------------------------------

TEST_F(FsTest, ReadExtentCachesAndHits) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  bool miss = false;
  iolite::Aggregate first = sys_.io().ReadExtent(f, 0, 8192, &miss);
  EXPECT_TRUE(miss);
  iolite::Aggregate second = sys_.io().ReadExtent(f, 0, 8192, &miss);
  EXPECT_FALSE(miss);
  EXPECT_TRUE(first.ContentEquals(second));
  // The hit shares the same physical buffer: single copy in memory.
  EXPECT_EQ(first.slices()[0].buffer().get(), second.slices()[0].buffer().get());
  EXPECT_EQ(sys_.ctx().stats().disk_reads, 1u);
}

TEST_F(FsTest, SubrangeOfCachedExtentIsAHit) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  sys_.io().ReadExtent(f, 0, 8192);
  bool miss = true;
  iolite::Aggregate mid = sys_.io().ReadExtent(f, 1000, 500, &miss);
  EXPECT_FALSE(miss);
  EXPECT_EQ(mid.ToString(), ioltest::FileContent(sys_.fs(), f, 1000, 500));
}

TEST_F(FsTest, AdjacentEntriesAssembleACoveringRead) {
  FileId f = sys_.fs().CreateFile("a", 8192);
  sys_.io().ReadExtent(f, 0, 4096);
  sys_.io().ReadExtent(f, 4096, 4096);
  bool miss = true;
  iolite::Aggregate spanning = sys_.io().ReadExtent(f, 4000, 200, &miss);
  EXPECT_FALSE(miss);
  EXPECT_EQ(spanning.slice_count(), 2u);
  EXPECT_EQ(spanning.ToString(), ioltest::FileContent(sys_.fs(), f, 4000, 200));
}

TEST_F(FsTest, SnapshotSemanticsAcrossWrite) {
  // Section 3.5: an IOL_read followed by an IOL_write to the same range —
  // the reader's aggregate must keep showing the old data.
  FileId f = sys_.fs().CreateFile("a", 1024);
  iolite::Aggregate snapshot = sys_.io().ReadExtent(f, 0, 1024);
  std::string old_content = snapshot.ToString();

  std::string new_content(1024, 'N');
  sys_.io().WriteExtent(f, 0, ioltest::AggFrom(sys_.runtime().kernel_pool(), new_content));

  // New readers see the write...
  EXPECT_EQ(sys_.io().ReadExtent(f, 0, 1024).ToString(), new_content);
  // ...the old snapshot is untouched (buffers persist while referenced).
  EXPECT_EQ(snapshot.ToString(), old_content);
}

TEST_F(FsTest, WriteReplacesOverlappedPortionOnly) {
  FileId f = sys_.fs().CreateFile("a", 3000);
  sys_.io().ReadExtent(f, 0, 3000);
  std::string mid(1000, 'M');
  sys_.io().WriteExtent(f, 1000, ioltest::AggFrom(sys_.runtime().kernel_pool(), mid));
  bool miss = true;
  iolite::Aggregate all = sys_.io().ReadExtent(f, 0, 3000, &miss);
  EXPECT_FALSE(miss);  // Remainders were re-inserted, still fully cached.
  EXPECT_EQ(all.ToString().substr(1000, 1000), mid);
  EXPECT_EQ(all.ToString().substr(0, 1000),
            ioltest::FileContent(sys_.fs(), f, 0, 1000));
}

TEST_F(FsTest, CacheBytesTrackEntries) {
  FileId f = sys_.fs().CreateFile("a", 4096);
  EXPECT_EQ(sys_.cache().bytes(), 0u);
  sys_.io().ReadExtent(f, 0, 4096);
  EXPECT_EQ(sys_.cache().bytes(), 4096u);
  sys_.cache().InvalidateFile(f);
  EXPECT_EQ(sys_.cache().bytes(), 0u);
  EXPECT_EQ(sys_.cache().entry_count(), 0u);
}

TEST_F(FsTest, EnforceBudgetEvictsDownToBudget) {
  for (int i = 0; i < 10; ++i) {
    FileId f = sys_.fs().CreateFile(std::string("f").append(std::to_string(i)), 10000);
    sys_.io().ReadExtent(f, 0, 10000);
  }
  EXPECT_EQ(sys_.cache().bytes(), 100000u);
  int evicted = sys_.cache().EnforceBudget(35000);
  EXPECT_EQ(evicted, 7);
  EXPECT_LE(sys_.cache().bytes(), 35000u);
}

TEST_F(FsTest, EvictedDataPersistsWhileReferenced) {
  FileId f = sys_.fs().CreateFile("a", 2048);
  iolite::Aggregate held = sys_.io().ReadExtent(f, 0, 2048);
  std::string content = held.ToString();
  sys_.cache().EnforceBudget(0);  // Evict everything.
  EXPECT_EQ(sys_.cache().entry_count(), 0u);
  EXPECT_EQ(held.ToString(), content);  // Reference keeps the buffer alive.
}

TEST_F(FsTest, IsReferencedSeesOutsideHolders) {
  FileId f = sys_.fs().CreateFile("a", 512);
  {
    iolite::Aggregate held = sys_.io().ReadExtent(f, 0, 512);
    // One entry; the server still holds the aggregate.
    EXPECT_TRUE(sys_.cache().IsReferenced(1));
  }
  // Dropped: only the cache holds it now.
  EXPECT_FALSE(sys_.cache().IsReferenced(1));
}

// --- Replacement policies ----------------------------------------------------

TEST(PolicyTest, PlainLruEvictsLeastRecentlyUsed) {
  PlainLruPolicy p;
  p.OnInsert(1, 100);
  p.OnInsert(2, 100);
  p.OnInsert(3, 100);
  p.OnAccess(1);  // 1 is now most recent.

  // CacheView is unused by PlainLru; a trivial stub suffices.
  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
    size_t SizeOf(iolfs::EntryId) const override { return 100; }
  } view;

  EXPECT_EQ(p.ChooseVictim(view), 2u);
  p.OnErase(2);
  EXPECT_EQ(p.ChooseVictim(view), 3u);
}

TEST(PolicyTest, PaperLruPrefersUnreferencedEntries) {
  PaperLruPolicy p;
  p.OnInsert(1, 100);
  p.OnInsert(2, 100);
  p.OnInsert(3, 100);

  // Entry 1 is the LRU but is currently referenced outside the cache.
  class View : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId id) const override { return id == 1; }
    size_t SizeOf(iolfs::EntryId) const override { return 100; }
  } view;

  // LRU among unreferenced: 2.
  EXPECT_EQ(p.ChooseVictim(view), 2u);
  p.OnErase(2);
  p.OnErase(3);
  // Only the referenced entry remains: fall back to LRU among referenced.
  EXPECT_EQ(p.ChooseVictim(view), 1u);
}

TEST(PolicyTest, GdsFavorsSmallObjects) {
  GreedyDualSizePolicy p;
  p.OnInsert(1, 1000000);  // Large: low priority.
  p.OnInsert(2, 100);      // Small: high priority.

  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
    size_t SizeOf(iolfs::EntryId) const override { return 0; }
  } view;

  EXPECT_EQ(p.ChooseVictim(view), 1u);
}

TEST(PolicyTest, GdsAgingLetsIdleSmallObjectsGo) {
  GreedyDualSizePolicy p;
  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
    size_t SizeOf(iolfs::EntryId) const override { return 0; }
  } view;

  p.OnInsert(1, 100);  // Small but never touched again.
  // A churn of slightly larger entries: each eviction raises the inflation
  // value L, so the idle entry's stale priority eventually loses even
  // though it is the smallest object in the cache.
  for (int i = 0; i < 50; ++i) {
    iolfs::EntryId id = 100 + i;
    p.OnInsert(id, 150);
    p.OnAccess(id);
    iolfs::EntryId victim = p.ChooseVictim(view);
    p.OnErase(victim);
    if (victim == 1) {
      SUCCEED();  // Aged out despite being small.
      return;
    }
  }
  FAIL() << "small idle entry never aged out";
}

TEST(PolicyTest, GdsRecencyBeatsSizeAfterAging) {
  GreedyDualSizePolicy p;
  class NullView : public iolfs::CacheView {
   public:
    bool IsReferenced(iolfs::EntryId) const override { return false; }
    size_t SizeOf(iolfs::EntryId) const override { return 0; }
  } view;
  p.OnInsert(1, 500);
  p.OnInsert(2, 500);
  p.OnErase(p.ChooseVictim(view));  // Raises L.
  p.OnInsert(3, 500);               // Inserted at L + 1/500.
  // Whichever of {1,2} survived was inserted at the old L: lower priority.
  iolfs::EntryId victim = p.ChooseVictim(view);
  EXPECT_NE(victim, 3u);
}

// --- Eviction trigger (Section 3.7) ------------------------------------------

TEST_F(FsTest, EvictionTriggerFiresOnIoPageMajority) {
  for (int i = 0; i < 4; ++i) {
    FileId f = sys_.fs().CreateFile(std::string("t").append(std::to_string(i)), 4096);
    sys_.io().ReadExtent(f, 0, 4096);
  }
  EvictionTrigger trigger(&sys_.cache());
  size_t entries_before = sys_.cache().entry_count();

  // A single I/O page is already a majority of one: the rule fires.
  EXPECT_TRUE(trigger.OnPageSelected(true));
  EXPECT_EQ(sys_.cache().entry_count(), entries_before - 1);

  // After the window reset, non-I/O pages keep it quiet.
  EXPECT_FALSE(trigger.OnPageSelected(false));
  EXPECT_FALSE(trigger.OnPageSelected(false));
  EXPECT_FALSE(trigger.OnPageSelected(true));  // 1/3: not a majority.
  EXPECT_EQ(sys_.cache().entry_count(), entries_before - 1);

  // Two more I/O pages: 3/5 is a majority -> evict one entry.
  EXPECT_FALSE(trigger.OnPageSelected(true));  // 2/4: not > half.
  EXPECT_TRUE(trigger.OnPageSelected(true));   // 3/5: fires.
  EXPECT_EQ(sys_.cache().entry_count(), entries_before - 2);
  EXPECT_EQ(trigger.evictions(), 2u);
}

TEST_F(FsTest, CustomPolicyHookSwapsPolicies) {
  // Flash-Lite's customization: replace the default policy with GDS while
  // entries exist; the cache re-registers them.
  for (int i = 0; i < 3; ++i) {
    FileId f = sys_.fs().CreateFile(std::string("c").append(std::to_string(i)), 1000 * (i + 1));
    sys_.io().ReadExtent(f, 0, 1000 * (i + 1));
  }
  sys_.cache().SetPolicy(std::make_unique<GreedyDualSizePolicy>());
  EXPECT_STREQ(sys_.cache().policy().name(), "gds");
  // GDS evicts the largest (lowest 1/size priority) first.
  uint64_t before = sys_.cache().bytes();
  sys_.cache().EvictOne();
  EXPECT_EQ(sys_.cache().bytes(), before - 3000);
}

}  // namespace
