// Arena-backed ref-counted buffers (common/buffer.h): sharing, slicing,
// copy-on-write, slab recycling, the copy ledger, and thread safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/buffer.h"

namespace pbpair::common {
namespace {

std::vector<std::uint8_t> pattern(std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 31u + 7u);
  }
  return out;
}

TEST(BufferArena, AllocateWriteReleaseReachesZeroLive) {
  BufferArena arena;
  {
    BufferRef ref = arena.allocate(100);
    ASSERT_EQ(ref.size(), 100u);
    std::uint8_t* bytes = ref.mutable_data();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(ref[42], 42u);
    EXPECT_EQ(arena.live_allocations(), 1u);
  }
  EXPECT_EQ(arena.live_allocations(), 0u);
  EXPECT_EQ(arena.stats().allocations, 1u);
  EXPECT_EQ(arena.stats().bytes_allocated, 100u);
}

TEST(BufferArena, ZeroSizeAllocationHasNoBacking) {
  BufferArena arena;
  BufferRef ref = arena.allocate(0);
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(arena.live_allocations(), 0u);
  EXPECT_EQ(arena.stats().allocations, 0u);
}

TEST(BufferRef, CopySharesStorageWithoutCopyingBytes) {
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(64);
  BufferRef a = arena.copy(bytes.data(), bytes.size());
  const CopyLedgerSnapshot before = copy_ledger();
  BufferRef b = a;  // refcount bump, no memcpy
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(copy_ledger().copied_bytes, before.copied_bytes);
  EXPECT_EQ(arena.live_allocations(), 1u);  // one allocation, two refs
  EXPECT_EQ(b, bytes);
}

TEST(BufferRef, MutableDataUnsharesWhenShared) {
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(32);
  BufferRef a = arena.copy(bytes.data(), bytes.size());
  BufferRef b = a;
  b.mutable_data()[0] = 0xFF;  // copy-on-write: a must not see this
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(a, bytes);
  EXPECT_EQ(b[0], 0xFF);
  // Exclusive mutation is in place: no further unshare.
  const std::uint8_t* data = b.data();
  b.mutable_data()[1] = 0xEE;
  EXPECT_EQ(b.data(), data);
}

TEST(BufferRef, SliceSharesAndCowProtectsTheParent) {
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(100);
  BufferRef whole = arena.copy(bytes.data(), bytes.size());
  BufferRef part = whole.slice(10, 20);
  ASSERT_EQ(part.size(), 20u);
  EXPECT_TRUE(part.shares_storage_with(whole));
  EXPECT_EQ(part.data(), whole.data() + 10);
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_EQ(part[i], bytes[10 + i]);
  }
  part.mutable_data()[0] = 0xAA;  // unshares: the parent keeps its bytes
  EXPECT_FALSE(part.shares_storage_with(whole));
  EXPECT_EQ(whole, bytes);
}

TEST(BufferRef, ResizeShrinkNarrowsInPlaceGrowZeroFills) {
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(80);
  BufferRef ref = arena.copy(bytes.data(), bytes.size());
  const std::uint8_t* data = ref.data();
  ref.resize(10);
  EXPECT_EQ(ref.size(), 10u);
  EXPECT_EQ(ref.data(), data);  // shrink never moves bytes
  // Exclusive grow back within the original capacity stays in place and
  // zero-fills the reclaimed tail (std::vector::resize semantics).
  ref.resize(40);
  EXPECT_EQ(ref.data(), data);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(ref[i], bytes[i]);
  for (std::size_t i = 10; i < 40; ++i) EXPECT_EQ(ref[i], 0u);
  // Growing a SHARED ref must leave the other holder untouched.
  BufferRef twin = ref;
  ref.resize(200);
  EXPECT_FALSE(ref.shares_storage_with(twin));
  EXPECT_EQ(twin.size(), 40u);
  EXPECT_EQ(twin.data(), data);
}

TEST(BufferRef, AppendContiguousSlicesWidensWithoutCopy) {
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(90);
  BufferRef whole = arena.copy(bytes.data(), bytes.size());
  BufferRef head = whole.slice(0, 30);
  BufferRef tail = whole.slice(30, 60);
  const CopyLedgerSnapshot before = copy_ledger();
  head.append(tail);  // directly continues head: the view just widens
  EXPECT_EQ(head.size(), 90u);
  EXPECT_TRUE(head.shares_storage_with(whole));
  EXPECT_EQ(copy_ledger().copied_bytes, before.copied_bytes);
  EXPECT_EQ(head, bytes);
  // Appending to an empty ref shares instead of copying too.
  BufferRef empty;
  empty.append(tail);
  EXPECT_TRUE(empty.shares_storage_with(whole));
  EXPECT_EQ(copy_ledger().copied_bytes, before.copied_bytes);
}

TEST(BufferRef, AppendDisjointAllocationsConcatenates) {
  BufferArena arena;
  const std::vector<std::uint8_t> first = pattern(25);
  std::vector<std::uint8_t> second(17, 0x5C);
  BufferRef a = arena.copy(first.data(), first.size());
  BufferRef b = arena.copy(second.data(), second.size());
  a.append(b);
  // Sized up front and filled by copies: growing a copy of `first` (insert
  // or resize) draws a false -Warray-bounds from GCC 12 at -O3 -march=native.
  std::vector<std::uint8_t> expected(first.size() + second.size());
  std::copy(second.begin(), second.end(),
            std::copy(first.begin(), first.end(), expected.begin()));
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, second);  // the source is untouched
}

TEST(BufferRef, VectorInteropAndEquality) {
  const std::vector<std::uint8_t> bytes = pattern(48);
  BufferRef ref = bytes;  // implicit: copies into the scratch arena
  EXPECT_EQ(ref, bytes);
  EXPECT_EQ(bytes, ref);
  EXPECT_EQ(ref.to_vector(), bytes);
  std::vector<std::uint8_t> other = bytes;
  other[5] ^= 1;
  EXPECT_NE(ref, other);
  BufferRef same = bytes;
  EXPECT_EQ(ref, same);                          // value equality...
  EXPECT_FALSE(ref.shares_storage_with(same));   // ...not storage identity
  ref.assign(other.begin(), other.end());
  EXPECT_EQ(ref, other);
  ref.assign(std::size_t{7}, std::uint8_t{0x11});
  EXPECT_EQ(ref, std::vector<std::uint8_t>(7, 0x11));
  ref.clear();
  EXPECT_TRUE(ref.empty());
}

TEST(BufferArena, SlabsRecycleToASteadyState) {
  // Tiny slabs force turnover: with every allocation released before the
  // next slab retires, the pool must reuse drained slabs instead of
  // growing without bound.
  BufferArena arena(1024);
  for (int i = 0; i < 200; ++i) {
    BufferRef a = arena.allocate(300);
    BufferRef b = arena.allocate(300);
    a.mutable_data()[0] = static_cast<std::uint8_t>(i);
    b.mutable_data()[0] = static_cast<std::uint8_t>(i + 1);
  }
  const BufferArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.allocations, 400u);
  EXPECT_GT(stats.slabs_recycled, 0u);
  // 400 * 300B through 1KB slabs: without recycling this needs ~120 slabs.
  EXPECT_LE(stats.slabs_created, 4u);
  EXPECT_EQ(arena.live_allocations(), 0u);
}

TEST(BufferArena, CopyChargesTheLedger) {
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(500);
  const CopyLedgerSnapshot before = copy_ledger();
  BufferRef ref = arena.copy(bytes.data(), bytes.size());
  const CopyLedgerSnapshot after = copy_ledger();
  EXPECT_EQ(after.copied_bytes - before.copied_bytes, 500u);
  EXPECT_EQ(ref, bytes);
}

TEST(BufferArena, ConcurrentShareSliceReleaseIsClean) {
  // The wire path shares payload refs across the fault injector's
  // duplicates and the FEC window queue; under SessionManager those
  // lifetimes end on whichever worker drains the session. Hammer the
  // refcounts from many threads and require an exact zero at the end
  // (ASan + the arena destructor check make any miscount fatal).
  BufferArena arena;
  const std::vector<std::uint8_t> bytes = pattern(4096);
  BufferRef base = arena.copy(bytes.data(), bytes.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&base, &bytes, t] {
      for (int i = 0; i < 2000; ++i) {
        BufferRef copy = base;
        BufferRef part =
            copy.slice(static_cast<std::size_t>((t * 131 + i) % 2048), 64);
        std::uint64_t sum = 0;
        for (std::uint8_t byte : part) sum += byte;
        if (i % 64 == 0) {
          // An occasional COW in the storm must never touch `base`.
          part.mutable_data()[0] = static_cast<std::uint8_t>(sum);
        }
      }
      // Threads only read `bytes`; base must still match it afterwards.
      (void)bytes;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(base, bytes);
  EXPECT_EQ(arena.live_allocations(), 1u);
  base.clear();
  EXPECT_EQ(arena.live_allocations(), 0u);
}

}  // namespace
}  // namespace pbpair::common
