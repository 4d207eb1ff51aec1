//===- tests/StringPoolTest.cpp - string interner tests ---------------------===//

#include "support/StringPool.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceV3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace perfplay;

TEST(StringPoolTest, InterningIsStableAndDeduplicated) {
  StringPool Pool;
  StringId A = Pool.intern("fil_system->mutex");
  StringId B = Pool.intern("kernel_mutex");
  StringId A2 = Pool.intern("fil_system->mutex");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(Pool.size(), 2u);
  EXPECT_EQ(Pool.str(A), "fil_system->mutex");
  EXPECT_EQ(Pool.str(B), "kernel_mutex");
}

TEST(StringPoolTest, EmptyStringAndInvalidIdResolve) {
  StringPool Pool;
  StringId Empty = Pool.intern("");
  EXPECT_EQ(Pool.str(Empty), "");
  EXPECT_EQ(Pool.intern(""), Empty);
  EXPECT_EQ(Pool.str(InvalidStringId), "");
  EXPECT_EQ(Pool.str(12345), "");
}

TEST(StringPoolTest, OwnedCopiesOutliveTheSource) {
  StringPool Pool;
  StringId Id;
  {
    std::string Ephemeral = "short-lived-name-";
    Ephemeral += std::to_string(42);
    Id = Pool.intern(Ephemeral);
  } // Source string destroyed; the arena copy must survive.
  EXPECT_EQ(Pool.str(Id), "short-lived-name-42");
}

TEST(StringPoolTest, ViewsSurviveMove) {
  StringPool Pool;
  StringId Id = Pool.intern("survives-the-move");
  std::string_view Before = Pool.str(Id);
  StringPool Moved = std::move(Pool);
  EXPECT_EQ(Moved.str(Id), "survives-the-move");
  EXPECT_EQ(Moved.str(Id).data(), Before.data())
      << "arena storage is heap-chunked; moving relocates nothing";
}

TEST(StringPoolTest, MovedFromPoolRemainsUsable) {
  StringPool Pool;
  Pool.intern("first-occupant-of-the-chunk");
  StringPool Moved = std::move(Pool);
  // The moved-from pool must be a coherent empty pool: interning into
  // it allocates a fresh chunk instead of writing through the stolen
  // one (stale ChunkUsed/ChunkCap would be undefined behavior).
  StringId Id = Pool.intern("fresh-after-move");
  EXPECT_EQ(Pool.str(Id), "fresh-after-move");
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(Moved.str(0), "first-occupant-of-the-chunk");

  // Same contract for move assignment.
  StringPool Target;
  Target.intern("target-resident");
  StringPool Source;
  Source.intern("source-resident");
  Target = std::move(Source);
  EXPECT_EQ(Target.str(0), "source-resident");
  StringId Re = Source.intern("source-reused");
  EXPECT_EQ(Source.str(Re), "source-reused");
}

TEST(StringPoolTest, ManyStringsCrossChunkBoundaries) {
  StringPool Pool;
  std::vector<StringId> Ids;
  // ~40 bytes x 5000 strings spans multiple 64 KiB chunks.
  for (int I = 0; I != 5000; ++I)
    Ids.push_back(Pool.intern("chunk-crossing-name-padding-padding-" +
                              std::to_string(I)));
  for (int I = 0; I != 5000; ++I)
    EXPECT_EQ(Pool.str(Ids[I]),
              "chunk-crossing-name-padding-padding-" + std::to_string(I));
  EXPECT_EQ(Pool.size(), 5000u);
}

TEST(StringPoolTest, CopyReownsEveryString) {
  auto Pool = std::make_unique<StringPool>();
  StringId A = Pool->intern("first_lock_name");
  StringId B = Pool->intern("second_lock_name");

  StringPool Copy = *Pool;
  // Ids and content preserved...
  EXPECT_EQ(Copy.str(A), "first_lock_name");
  EXPECT_EQ(Copy.str(B), "second_lock_name");
  // ...in the copy's own arena, so it outlives the source.
  EXPECT_NE(Copy.str(A).data(), Pool->str(A).data());
  Pool.reset();
  EXPECT_EQ(Copy.str(A), "first_lock_name");
  EXPECT_EQ(Copy.str(B), "second_lock_name");
}

TEST(StringPoolTest, PoolSurvivesTraceMove) {
  TraceBuilder B;
  LockId Mu = B.addLock("move-surviving-mutex");
  CodeSiteId Site = B.addSite("move.cc", "mover", 1, 9);
  ThreadId T = B.addThread();
  B.beginCs(T, Mu, Site);
  B.endCs(T);
  Trace Tr = B.finish();

  std::string_view Before = Tr.lockName(Mu);
  Trace Moved = std::move(Tr);
  EXPECT_EQ(Moved.lockName(Mu), "move-surviving-mutex");
  EXPECT_EQ(Moved.lockName(Mu).data(), Before.data());
  EXPECT_EQ(Moved.siteFile(Site), "move.cc");
  EXPECT_EQ(Moved.siteFunction(Site), "mover");
}

TEST(StringPoolTest, TraceCopyCarriesIndependentNames) {
  TraceBuilder B;
  LockId Mu = B.addLock("copy-mutex");
  ThreadId T = B.addThread();
  B.beginCs(T, Mu);
  B.endCs(T);
  Trace Tr = B.finish();

  Trace Copy = Tr;
  EXPECT_EQ(Copy.lockName(Mu), "copy-mutex");
  // Extending the copy's pool must not disturb the original.
  Copy.intern("only-in-copy");
  EXPECT_NE(Copy.Names.size(), Tr.Names.size());
  EXPECT_EQ(Tr.lockName(Mu), "copy-mutex");
}

TEST(StringPoolTest, ParsedTraceNamesOutliveTheInputBuffer) {
  TraceBuilder B;
  B.addLock("buffer-resident-lock");
  B.addSite("buffer.cc", "resident", 2, 8);
  ThreadId T = B.addThread();
  B.beginCs(T, 0, 0);
  B.endCs(T);
  std::vector<uint8_t> Bytes = writeTraceV3(B.finish());

  Trace Out;
  std::string Err;
  ASSERT_TRUE(parseTraceV3(Bytes.data(), Bytes.size(), Out, Err)) << Err;
  // The parse copied every name: clobbering and freeing the input (as
  // the file loader does when it unmaps) leaves the names intact.
  std::fill(Bytes.begin(), Bytes.end(), uint8_t{'x'});
  Bytes = std::vector<uint8_t>();
  EXPECT_EQ(Out.lockName(0), "buffer-resident-lock");
  EXPECT_EQ(Out.siteFile(0), "buffer.cc");
  EXPECT_EQ(Out.siteFunction(0), "resident");
}

namespace {

std::string grownName(int I) {
  return "@L" + std::to_string(I % 64) + "_" + std::to_string(I);
}

} // namespace

// 100k names grow the index from 16 slots to 256k: ids stay dense in
// first-intern order and every name keeps its id across the growths.
TEST(StringPoolTest, IndexGrowthKeepsDenseIds) {
  constexpr int N = 100000;
  StringPool Pool;
  for (int I = 0; I != N; ++I)
    ASSERT_EQ(Pool.intern(grownName(I)), static_cast<StringId>(I));
  EXPECT_EQ(Pool.size(), static_cast<uint32_t>(N));
  for (int I = 0; I != N; ++I) {
    ASSERT_EQ(Pool.intern(grownName(I)), static_cast<StringId>(I));
    ASSERT_EQ(Pool.str(I), grownName(I));
  }
  EXPECT_EQ(Pool.size(), static_cast<uint32_t>(N));
}

// Interning new names into a copy extends only the copy.
TEST(StringPoolTest, InterningIntoCopyLeavesSourceUnchanged) {
  StringPool Source;
  for (int I = 0; I != 1000; ++I)
    Source.intern(grownName(I));
  StringPool Copy = Source;
  for (int I = 1000; I != 5000; ++I)
    ASSERT_EQ(Copy.intern(grownName(I)), static_cast<StringId>(I));
  EXPECT_EQ(Source.size(), 1000u);
  EXPECT_EQ(Copy.size(), 5000u);
  for (int I = 0; I != 1000; ++I)
    ASSERT_EQ(Source.intern(grownName(I)), static_cast<StringId>(I));
  // Names only the copy holds are new to the source.
  EXPECT_EQ(Source.intern(grownName(4999)), 1000u);
  EXPECT_EQ(Copy.intern(grownName(4999)), 4999u);
}

// Copies taken between growths (just before, at and after a doubling,
// and in between) keep every id and lookup, and keep growing on their
// own as their source does.
TEST(StringPoolTest, CopyMadeMidGrowthKeepsEveryId) {
  StringPool Pool;
  std::vector<std::pair<int, StringPool>> Copies;
  constexpr int N = 20000;
  for (int I = 0; I != N; ++I) {
    Pool.intern(grownName(I));
    int Size = I + 1;
    if (Size == 8 || Size == 9 || Size == 1023 || Size == 1024 ||
        Size == 1025 || Size == 7777)
      Copies.emplace_back(Size, Pool);
  }
  for (auto &[Size, Copy] : Copies) {
    SCOPED_TRACE("copy at " + std::to_string(Size));
    ASSERT_EQ(Copy.size(), static_cast<uint32_t>(Size));
    for (int I = 0; I != Size; ++I) {
      ASSERT_EQ(Copy.intern(grownName(I)), static_cast<StringId>(I));
      ASSERT_EQ(Copy.str(I), grownName(I));
    }
    for (int I = Size; I != N; ++I)
      ASSERT_EQ(Copy.intern(grownName(I)), static_cast<StringId>(I));
    EXPECT_EQ(Copy.size(), static_cast<uint32_t>(N));
  }
  for (int I = 0; I != N; ++I)
    ASSERT_EQ(Pool.intern(grownName(I)), static_cast<StringId>(I));
}
