// Unit tests for immutable buffers, reference counting, generation numbers
// and buffer pools (Sections 3.1-3.3, 4.5).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/iolite/buffer_pool.h"
#include "src/iolite/runtime.h"
#include "src/simos/sim_context.h"
#include "tests/test_util.h"

namespace {

using iolite::Buffer;
using iolite::BufferPool;
using iolite::BufferRef;
using iolsim::SimContext;

class BufferTest : public ::testing::Test {
 protected:
  BufferTest() : pool_(&ctx_, "test", iolsim::kKernelDomain) {}
  SimContext ctx_;
  BufferPool pool_;
};

TEST_F(BufferTest, FillSealRead) {
  BufferRef b = pool_.Allocate(5);
  EXPECT_FALSE(b->sealed());
  std::memcpy(b->writable_data(), "hello", 5);
  b->Seal(5);
  EXPECT_TRUE(b->sealed());
  EXPECT_EQ(b->size(), 5u);
  EXPECT_EQ(std::string(b->data(), 5), "hello");
}

TEST_F(BufferTest, SealCanShorten) {
  BufferRef b = pool_.Allocate(100);
  std::memcpy(b->writable_data(), "abc", 3);
  b->Seal(3);
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(b->capacity(), 100u);
}

#ifndef NDEBUG
TEST_F(BufferTest, WriteAfterSealAsserts) {
  BufferRef b = pool_.Allocate(4);
  b->Seal(0);
  EXPECT_DEATH(b->writable_data(), "immutable");
}

TEST_F(BufferTest, ReadBeforeSealAsserts) {
  BufferRef b = pool_.Allocate(4);
  EXPECT_DEATH(b->data(), "unsealed");
}
#endif

TEST_F(BufferTest, RefcountLifecycle) {
  Buffer* raw = nullptr;
  {
    BufferRef b = ioltest::BufferFrom(&pool_, "data");
    raw = b.get();
    EXPECT_EQ(raw->refcount(), 1);
    {
      BufferRef copy = b;
      EXPECT_EQ(raw->refcount(), 2);
    }
    EXPECT_EQ(raw->refcount(), 1);
    EXPECT_EQ(pool_.free_list_size(), 0u);
  }
  // Last reference dropped: the buffer returned to the pool's free list.
  EXPECT_EQ(pool_.free_list_size(), 1u);
  EXPECT_EQ(ctx_.stats().buffers_freed, 1u);
}

TEST_F(BufferTest, MoveDoesNotChangeRefcount) {
  BufferRef b = ioltest::BufferFrom(&pool_, "data");
  Buffer* raw = b.get();
  BufferRef moved = std::move(b);
  EXPECT_EQ(raw->refcount(), 1);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move): post-move state check.
  EXPECT_TRUE(moved);
}

TEST_F(BufferTest, RecycleBumpsGeneration) {
  uint64_t id;
  uint32_t gen;
  {
    BufferRef b = ioltest::BufferFrom(&pool_, "aaaa");
    id = b->id();
    gen = b->generation();
  }
  BufferRef again = pool_.Allocate(4);
  EXPECT_EQ(again->id(), id);  // Same storage reused...
  EXPECT_EQ(again->generation(), gen + 1);  // ...new contents identity.
  EXPECT_EQ(ctx_.stats().buffers_recycled, 1u);
}

TEST_F(BufferTest, FreeListFirstFitBySize) {
  {
    BufferRef small = pool_.Allocate(16);
    BufferRef large = pool_.Allocate(1024);
    small->Seal(0);
    large->Seal(0);
  }
  EXPECT_EQ(pool_.free_list_size(), 2u);
  BufferRef b = pool_.Allocate(100);  // Fits only the 1024 buffer.
  EXPECT_GE(b->capacity(), 100u);
  EXPECT_EQ(pool_.free_list_size(), 1u);
}

TEST_F(BufferTest, SmallBuffersShareAChunk) {
  BufferRef a = pool_.Allocate(100);
  BufferRef b = pool_.Allocate(100);
  ASSERT_EQ(a->chunks().size(), 1u);
  ASSERT_EQ(b->chunks().size(), 1u);
  EXPECT_EQ(a->chunks()[0], b->chunks()[0]);  // No memory wasted on pages.
}

TEST_F(BufferTest, LargeBufferSpansChunks) {
  size_t chunk = ctx_.cost().params().chunk_size;
  BufferRef big = pool_.Allocate(3 * chunk + 1);
  EXPECT_EQ(big->chunks().size(), 4u);
}

TEST_F(BufferTest, PoolMemoryIsAccounted) {
  EXPECT_EQ(ctx_.memory().reservation("iolite_window"), 0u);
  BufferRef b = pool_.Allocate(100);
  EXPECT_EQ(ctx_.memory().reservation("iolite_window"),
            static_cast<uint64_t>(ctx_.cost().params().chunk_size));
}

TEST_F(BufferTest, AllocateFromChargesCopy) {
  uint64_t copied = ctx_.stats().bytes_copied;
  ioltest::BufferFrom(&pool_, std::string(1000, 'x'));
  EXPECT_EQ(ctx_.stats().bytes_copied, copied + 1000);
}

TEST_F(BufferTest, AllocateDmaChargesNoCpu) {
  iolsim::SimTime before = ctx_.clock().now();
  BufferRef b = pool_.AllocateDma(1, 4096);
  EXPECT_EQ(ctx_.clock().now(), before);
  EXPECT_EQ(b->size(), 4096u);
}

TEST_F(BufferTest, DmaContentDeterministicPerSeed) {
  BufferRef a = pool_.AllocateDma(7, 256);
  BufferRef b = pool_.AllocateDma(7, 256);
  BufferRef c = pool_.AllocateDma(8, 256);
  EXPECT_EQ(std::memcmp(a->data(), b->data(), 256), 0);
  EXPECT_NE(std::memcmp(a->data(), c->data(), 256), 0);
}

// The DMA pattern as one serial xorshift64 (13, 7, 17) step per byte: byte i
// is byte i % 8 of the state after step i + 1. AllocateDma fills in jumped
// lanes; it must write exactly these bytes.
std::string ReferenceDmaFill(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<char>((x >> (8 * (i % 8))) & 0xff);
  }
  return out;
}

TEST_F(BufferTest, DmaFillMatchesSerialReference) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 300; ++n) {
    sizes.push_back(n);
  }
  for (size_t n : {4095, 4096, 16384, 16387, 37888, 65541, 1 << 20}) {
    sizes.push_back(n);
  }
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{7}, ~uint64_t{0}}) {
    for (size_t n : sizes) {
      BufferRef b = pool_.AllocateDma(seed, n);
      ASSERT_EQ(b->size(), n);
      ASSERT_TRUE(std::string(b->data(), n) == ReferenceDmaFill(seed, n))
          << "seed " << seed << " n " << n;
    }
  }
  // Lanes of 2^16 words and more jump past the table's largest power.
  const size_t huge = (size_t{5} << 20) + 3;
  BufferRef b = pool_.AllocateDma(3, huge);
  EXPECT_TRUE(std::string(b->data(), huge) == ReferenceDmaFill(3, huge));
}

// Untrusted producers pay write-permission toggling; the kernel does not.
TEST(BufferPoolDomainTest, UntrustedProducerTogglesWritePermission) {
  SimContext ctx;
  iolsim::DomainId app = ctx.vm().CreateDomain("app");
  BufferPool pool(&ctx, "app-pool", app);
  {
    BufferRef b = pool.Allocate(64);
    iolsim::ChunkId chunk = b->chunks()[0];
    EXPECT_TRUE(ctx.vm().CanWrite(chunk, app));
    b->Seal(0);
    EXPECT_FALSE(ctx.vm().CanWrite(chunk, app));  // Immutability enforced.
    EXPECT_TRUE(ctx.vm().CanRead(chunk, app));
  }
  // Recycling re-grants write permission for the fill phase.
  BufferRef again = pool.Allocate(64);
  EXPECT_TRUE(ctx.vm().CanWrite(again->chunks()[0], app));
  EXPECT_GE(ctx.stats().page_protect_ops, 2u);
}

TEST(BufferPoolDomainTest, PoolDestructorReleasesMemoryAndChunks) {
  SimContext ctx;
  iolsim::ChunkId chunk;
  {
    BufferPool pool(&ctx, "tmp", iolsim::kKernelDomain);
    BufferRef b = pool.Allocate(10);
    chunk = b->chunks()[0];
    b->Seal(0);
  }
  EXPECT_EQ(ctx.memory().reservation("iolite_window"), 0u);
  EXPECT_FALSE(ctx.vm().ChunkExists(chunk));
}

}  // namespace
