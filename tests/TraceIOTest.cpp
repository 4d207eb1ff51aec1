//===- tests/TraceIOTest.cpp - trace serialization tests --------------------===//

#include "support/MappedFile.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/TraceV3.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace perfplay;

namespace {

/// A trace exercising every event kind and side table.
Trace makeRichTrace() {
  TraceBuilder B;
  LockId Mu = B.addLock("fil_system->mutex");
  LockId Spin = B.addLock("cell lock #3", /*IsSpin=*/true);
  CodeSiteId S0 = B.addSite("storage/fil0fil.cc", "fil_flush", 5473, 5592);
  CodeSiteId S1 = B.addSite("dir with space/x.cc", "f g", 1, 9);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();

  B.compute(T0, 123);
  B.beginCs(T0, Mu, S0);
  B.read(T0, 100, 7);
  B.write(T0, 101, 3, WriteOpKind::Add);
  B.endCs(T0);
  B.beginCs(T0, Spin, S1);
  B.write(T0, 102, 0xdead, WriteOpKind::Xor);
  B.endCs(T0);

  B.beginCs(T1, Mu, S0);
  B.read(T1, 100, 7);
  B.endCs(T1);
  B.compute(T1, 456);

  Trace Tr = B.finish();
  // Side tables of a transformed trace.
  Lockset LS;
  LS.Entries.push_back(LocksetEntry{Spin, InvalidId});
  LS.Entries.push_back(LocksetEntry{Mu, 0});
  Tr.Locksets.push_back(LS);
  Tr.Locksets.push_back(Lockset()); // Empty lockset (removed pair).
  Tr.Constraints.push_back(OrderConstraint{0, 2});
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[Mu] = {CsRef{0, 0}, CsRef{1, 0}};
  Tr.LockSchedule[Spin] = {CsRef{0, 1}};
  return Tr;
}

/// A trace exercising the extended synchronization vocabulary: shared
/// and exclusive rwlock acquires, successful and failed tries (both
/// modes), and condvar wait/signal/broadcast.
Trace makeExtendedTrace() {
  TraceBuilder B;
  LockId Rw = B.addLock("table_rw");
  LockId Mu = B.addLock("cache_mu");
  LockId Cv = B.addLock("queue_cv");
  CodeSiteId S0 = B.addSite("ext.cc", "reader", 10, 19);
  CodeSiteId S1 = B.addSite("ext.cc", "writer", 20, 29);
  CodeSiteId S2 = B.addSite("ext.cc", "waiter", 30, 39);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();

  B.beginCsShared(T0, Rw, S0);
  B.read(T0, 100, 7);
  B.endCs(T0);
  B.beginCsWrite(T0, Rw, S1);
  B.write(T0, 100, 9);
  B.endCs(T0);
  EXPECT_TRUE(B.tryCs(T0, Mu, S1, /*Succeeded=*/true));
  B.write(T0, 200, 1, WriteOpKind::Add);
  B.endCs(T0);
  B.condSignal(T0, Cv);
  B.condBroadcast(T0, Cv);

  B.beginCsShared(T1, Rw, S0);
  B.read(T1, 100, 7);
  B.endCs(T1);
  EXPECT_FALSE(B.tryCs(T1, Mu, S1, /*Succeeded=*/false));
  EXPECT_TRUE(
      B.tryCs(T1, Rw, S0, /*Succeeded=*/true, AcquireMode::Shared));
  B.read(T1, 100, 7);
  B.endCs(T1);
  B.condWait(T1, Cv, S2);
  B.compute(T1, 50);
  return B.finish();
}

/// A mechanically generated trace big enough that a small v3 chunk
/// target splits every thread across many chunks.
Trace makeBigTrace(unsigned NumThreads, unsigned SectionsPerThread) {
  TraceBuilder B;
  LockId Mu = B.addLock("big.mu");
  LockId Spin = B.addLock("big.spin", /*IsSpin=*/true);
  CodeSiteId S0 = B.addSite("big.cc", "work", 10, 40);
  CodeSiteId S1 = B.addSite("big.cc", "flush", 50, 90);
  std::vector<ThreadId> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.push_back(B.addThread());
  for (unsigned T = 0; T != NumThreads; ++T) {
    for (unsigned I = 0; I != SectionsPerThread; ++I) {
      B.compute(Threads[T], I % 7 + 1);
      B.beginCs(Threads[T], I % 2 ? Mu : Spin, I % 3 ? S0 : S1);
      B.read(Threads[T], 0x1000 + (I * 64) % 4096, I);
      B.write(Threads[T], 0x1000 + (I * 64) % 4096, I + 1,
              WriteOpKind::Add);
      B.endCs(Threads[T]);
    }
  }
  return B.finish();
}

void expectTracesEqual(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t T = 0; T != A.Threads.size(); ++T) {
    const auto &EA = A.Threads[T].Events;
    const auto &EB = B.Threads[T].Events;
    ASSERT_EQ(EA.size(), EB.size()) << "thread " << T;
    for (size_t I = 0; I != EA.size(); ++I) {
      EXPECT_EQ(EA[I].Kind, EB[I].Kind) << "thread " << T << " ev " << I;
      EXPECT_EQ(EA[I].Op, EB[I].Op);
      EXPECT_EQ(EA[I].Site, EB[I].Site);
      EXPECT_EQ(EA[I].Lock, EB[I].Lock);
      EXPECT_EQ(EA[I].Lockset, EB[I].Lockset);
      EXPECT_EQ(EA[I].Addr, EB[I].Addr);
      EXPECT_EQ(EA[I].Value, EB[I].Value);
      EXPECT_EQ(EA[I].Cost, EB[I].Cost);
      EXPECT_EQ(EA[I].Mode, EB[I].Mode);
      EXPECT_EQ(EA[I].TrySucceeded, EB[I].TrySucceeded);
    }
  }
  // Names are pooled; compare resolved content, not ids (two pools may
  // assign ids in different orders yet name every entity identically).
  ASSERT_EQ(A.Locks.size(), B.Locks.size());
  for (size_t I = 0; I != A.Locks.size(); ++I) {
    EXPECT_EQ(A.lockName(static_cast<LockId>(I)),
              B.lockName(static_cast<LockId>(I)));
    EXPECT_EQ(A.Locks[I].IsSpin, B.Locks[I].IsSpin);
  }
  ASSERT_EQ(A.Sites.size(), B.Sites.size());
  for (size_t I = 0; I != A.Sites.size(); ++I) {
    EXPECT_EQ(A.siteFile(static_cast<CodeSiteId>(I)),
              B.siteFile(static_cast<CodeSiteId>(I)));
    EXPECT_EQ(A.siteFunction(static_cast<CodeSiteId>(I)),
              B.siteFunction(static_cast<CodeSiteId>(I)));
    EXPECT_EQ(A.Sites[I].BeginLine, B.Sites[I].BeginLine);
    EXPECT_EQ(A.Sites[I].EndLine, B.Sites[I].EndLine);
  }
  ASSERT_EQ(A.Locksets.size(), B.Locksets.size());
  for (size_t I = 0; I != A.Locksets.size(); ++I) {
    ASSERT_EQ(A.Locksets[I].Entries.size(), B.Locksets[I].Entries.size());
    for (size_t J = 0; J != A.Locksets[I].Entries.size(); ++J) {
      EXPECT_EQ(A.Locksets[I].Entries[J].Lock,
                B.Locksets[I].Entries[J].Lock);
      EXPECT_EQ(A.Locksets[I].Entries[J].SourceCs,
                B.Locksets[I].Entries[J].SourceCs);
    }
  }
  ASSERT_EQ(A.Constraints.size(), B.Constraints.size());
  for (size_t I = 0; I != A.Constraints.size(); ++I) {
    EXPECT_EQ(A.Constraints[I].Before, B.Constraints[I].Before);
    EXPECT_EQ(A.Constraints[I].After, B.Constraints[I].After);
  }
  ASSERT_EQ(A.LockSchedule.size(), B.LockSchedule.size());
  for (size_t L = 0; L != A.LockSchedule.size(); ++L) {
    ASSERT_EQ(A.LockSchedule[L].size(), B.LockSchedule[L].size());
    for (size_t I = 0; I != A.LockSchedule[L].size(); ++I)
      EXPECT_TRUE(A.LockSchedule[L][I] == B.LockSchedule[L][I]);
  }
}

} // namespace

TEST(TraceIOTest, TextRoundTrip) {
  Trace Tr = makeRichTrace();
  std::string Text = writeTraceText(Tr);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceText(Text, Back, Err)) << Err;
  expectTracesEqual(Tr, Back);
}

TEST(TraceIOTest, TextRejectsBadMagic) {
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseTraceText("not-a-trace\n", Out, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(TraceIOTest, TextRejectsTruncated) {
  Trace Tr = makeRichTrace();
  std::string Text = writeTraceText(Tr);
  Text.resize(Text.size() / 2);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseTraceText(Text, Out, Err));
}

TEST(TraceIOTest, TextRejectsUnknownEvent) {
  TraceBuilder B;
  B.addLock("mu");
  B.addThread();
  std::string Text = writeTraceText(B.finish());
  size_t Pos = Text.find("ts\n");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 2, "xx");
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseTraceText(Text, Out, Err));
}

TEST(TraceIOTest, NamesWithSpacesSurvive) {
  Trace Tr = makeRichTrace();
  std::string Text = writeTraceText(Tr);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceText(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.lockName(1), "cell lock #3");
  EXPECT_EQ(Back.siteFile(1), "dir with space/x.cc");
  EXPECT_EQ(Back.siteFunction(1), "f g");
}

TEST(TraceIOTest, FileSaveAndLoad) {
  Trace Tr = makeRichTrace();
  std::string Path = testing::TempDir() + "/perfplay_trace_io_test.trace";
  std::string Err;
  ASSERT_TRUE(saveTrace(Tr, Path, Err)) << Err;
  Expected<Trace> Back = readTraceFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.message();
  expectTracesEqual(Tr, *Back);
  std::remove(Path.c_str());
}

TEST(TraceIOTest, LoadMissingFileFails) {
  Expected<Trace> Out = readTraceFile("/nonexistent/path/x.trace");
  ASSERT_FALSE(Out.ok());
  EXPECT_FALSE(Out.message().empty());
}

// saveTrace must round-trip pooled names through EVERY format
// byte-identically: save, reload, save again — the second file is the
// golden twin of the first.  This pins the on-disk encodings against
// regressions in the pool-backed writers.
TEST(TraceIOTest, GoldenRoundTripAllFormats) {
  Trace Tr = makeRichTrace();
  std::string Err;
  for (TraceFormat Format : {TraceFormat::Text, TraceFormat::V3}) {
    std::string Path = testing::TempDir() + "/perfplay_golden.trace";
    ASSERT_TRUE(saveTrace(Tr, Path, Err, Format)) << Err;
    Expected<Trace> BackOr = readTraceFile(Path);
    ASSERT_TRUE(BackOr.ok()) << BackOr.message();
    const Trace &Back = *BackOr;
    if (Format == TraceFormat::V3)
      EXPECT_EQ(writeTraceV3(Back), writeTraceV3(Tr));
    // And the cross-format renderings agree too: a v3 reload prints
    // the same text as the original.
    EXPECT_EQ(writeTraceText(Back), writeTraceText(Tr));
    std::remove(Path.c_str());
  }
}

TEST(TraceIOTest, V3RoundTrip) {
  Trace Tr = makeRichTrace();
  std::vector<uint8_t> Bytes = writeTraceV3(Tr);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceV3(Bytes.data(), Bytes.size(), Back, Err)) << Err;
  expectTracesEqual(Tr, Back);
}

// A small chunk target splits every thread over many chunks; the
// stitched parse must still be event-identical, and ids must survive
// (string-table deltas carry explicit original ids).
TEST(TraceIOTest, V3RoundTripManyChunks) {
  Trace Tr = makeBigTrace(/*NumThreads=*/3, /*SectionsPerThread=*/500);
  std::vector<uint8_t> Bytes = writeTraceV3(Tr, /*TargetChunkBytes=*/1024);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceV3(Bytes.data(), Bytes.size(), Back, Err)) << Err;
  expectTracesEqual(Tr, Back);
  // Chunking must be invisible in the bytes: re-encoding with the
  // default target equals a direct whole-trace encode.
  EXPECT_EQ(writeTraceV3(Back), writeTraceV3(Tr));
}

TEST(TraceIOTest, V3FileSaveAndAutoDetectLoad) {
  Trace Tr = makeRichTrace();
  std::string Path = testing::TempDir() + "/perfplay_trace_io_test.v3trace";
  std::string Err;
  ASSERT_TRUE(saveTrace(Tr, Path, Err, TraceFormat::V3)) << Err;
  // The loader sniffs the magic bytes: no format hint needed.
  TraceLoadInfo Info;
  Expected<Trace> Back = readTraceFile(Path, &Info);
  ASSERT_TRUE(Back.ok()) << Back.message();
  expectTracesEqual(Tr, *Back);
  EXPECT_EQ(Info.Format, TraceFormat::V3);
  if (MappedFile::supportsMapping()) {
    EXPECT_TRUE(Info.UsedMmap);
    EXPECT_TRUE(Info.MmapDowngradeReason.empty());
  }
  std::remove(Path.c_str());
}

// The extended vocabulary round-trips every format, and save → load →
// save is byte-stable (the golden-twin discipline of
// GoldenRoundTripAllFormats extended to kinds 7-12).
TEST(TraceIOTest, ExtendedVocabularyGoldenRoundTripAllFormats) {
  Trace Tr = makeExtendedTrace();
  std::string Err;
  for (TraceFormat Format : {TraceFormat::Text, TraceFormat::V3}) {
    std::string Path = testing::TempDir() + "/perfplay_ext_golden.trace";
    ASSERT_TRUE(saveTrace(Tr, Path, Err, Format)) << Err;
    Expected<Trace> BackOr = readTraceFile(Path);
    ASSERT_TRUE(BackOr.ok()) << BackOr.message();
    const Trace &Back = *BackOr;
    expectTracesEqual(Tr, Back);
    EXPECT_EQ(writeTraceText(Back), writeTraceText(Tr));
    if (Format == TraceFormat::V3)
      EXPECT_EQ(writeTraceV3(Back), writeTraceV3(Tr));
    std::remove(Path.c_str());
  }
}

// The v3 end magic doubles as the minor-version tag: mutex-only
// traces keep the 3.0 magic byte-for-byte (old readers still accept
// them), extended traces get tagged 3.1.
TEST(TraceIOTest, V3MinorVersionTagFollowsVocabulary) {
  auto endMagic = [](const std::vector<uint8_t> &Bytes) {
    return std::string(Bytes.end() - 8, Bytes.end());
  };
  EXPECT_EQ(endMagic(writeTraceV3(makeRichTrace())), "PFPLEND3");
  EXPECT_EQ(endMagic(writeTraceV3(makeExtendedTrace())), "PFPLEN31");
}

// Extended kinds split across tiny chunks must stitch back exactly,
// and the re-encode is byte-stable.
TEST(TraceIOTest, V3ExtendedRoundTripManyChunks) {
  TraceBuilder B;
  LockId Rw = B.addLock("many.rw");
  LockId Cv = B.addLock("many.cv");
  CodeSiteId S = B.addSite("many.cc", "loop", 1, 9);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (unsigned I = 0; I != 400; ++I) {
    B.beginCsShared(T0, Rw, S);
    B.read(T0, 0x100 + I % 32, I);
    B.endCs(T0);
    if (B.tryCs(T1, Rw, S, /*Succeeded=*/I % 3 != 0,
                AcquireMode::Exclusive)) {
      B.write(T1, 0x100 + I % 32, I);
      B.endCs(T1);
    }
    if (I % 5 == 0) {
      B.condSignal(T0, Cv);
      B.condWait(T1, Cv, S);
    }
  }
  Trace Tr = B.finish();
  std::vector<uint8_t> Bytes = writeTraceV3(Tr, /*TargetChunkBytes=*/512);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceV3(Bytes.data(), Bytes.size(), Back, Err)) << Err;
  expectTracesEqual(Tr, Back);
  EXPECT_EQ(writeTraceV3(Back), writeTraceV3(Tr));
}

TEST(TraceIOTest, V3EmptyTraceRoundTrips) {
  TraceBuilder B;
  Trace Tr = B.finish();
  std::vector<uint8_t> Bytes = writeTraceV3(Tr);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceV3(Bytes.data(), Bytes.size(), Back, Err)) << Err;
  EXPECT_EQ(Back.numThreads(), 0u);
  EXPECT_EQ(writeTraceV3(Back), Bytes);
}

// WindowedReader must hand out the same events, in the same per-thread
// order, that the whole-trace parse materializes — stitching its
// chunks back together reproduces the trace bit-for-bit.
TEST(TraceIOTest, WindowedReaderStitchesWholeTrace) {
  Trace Tr = makeBigTrace(/*NumThreads=*/3, /*SectionsPerThread=*/400);
  std::string Path = testing::TempDir() + "/perfplay_windowed.v3trace";
  std::string Err;
  ASSERT_TRUE(saveTraceV3(Tr, Path, Err, /*TargetChunkBytes=*/1024)) << Err;

  WindowedReader R;
  ASSERT_TRUE(R.open(Path, Err)) << Err;
  EXPECT_EQ(R.numThreads(), Tr.Threads.size());
  EXPECT_EQ(R.totalEvents(), Tr.numEvents());
  EXPECT_GT(R.numChunks(), Tr.Threads.size())
      << "chunk target too large to exercise chunking";

  std::vector<std::vector<Event>> Streams(R.numThreads());
  WindowedReader::Chunk C;
  uint64_t Seen = 0;
  while (R.next(C, Err)) {
    ASSERT_LT(C.Thread, Streams.size());
    Streams[C.Thread].insert(Streams[C.Thread].end(), C.Events.begin(),
                             C.Events.end());
    Seen += C.Events.size();
  }
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Seen, R.totalEvents());

  Trace Stitched = R.tables();
  Stitched.Threads.resize(Streams.size());
  for (size_t T = 0; T != Streams.size(); ++T)
    Stitched.Threads[T].Events = std::move(Streams[T]);
  Stitched.buildCsIndex();
  EXPECT_EQ(Stitched.validate(), "");
  expectTracesEqual(Tr, Stitched);

  // rewind() streams the same chunks again off the already-applied
  // tables.
  R.rewind();
  ASSERT_TRUE(R.next(C, Err)) << Err;
  EXPECT_EQ(C.Thread, 0u);
  EXPECT_EQ(C.FirstTs, 0u);

  std::remove(Path.c_str());
}

// Every loader — text and v3 through readTraceFile, and v3 bytes
// through parseTraceBuffer — must resolve the exact same names for
// every lock and site.
TEST(TraceIOTest, NameParityAcrossLoaders) {
  Trace Tr = makeRichTrace();
  std::string Err;
  std::string TextPath = testing::TempDir() + "/perfplay_parity.trace";
  std::string V3Path = testing::TempDir() + "/perfplay_parity.v3trace";
  ASSERT_TRUE(saveTrace(Tr, TextPath, Err, TraceFormat::Text)) << Err;
  ASSERT_TRUE(saveTrace(Tr, V3Path, Err, TraceFormat::V3)) << Err;

  auto expectNamesMatch = [&](const Trace &Got, const char *Mode) {
    ASSERT_EQ(Got.Locks.size(), Tr.Locks.size()) << Mode;
    for (size_t I = 0; I != Tr.Locks.size(); ++I)
      EXPECT_EQ(Got.lockName(static_cast<LockId>(I)),
                Tr.lockName(static_cast<LockId>(I)))
          << Mode << " lock " << I;
    ASSERT_EQ(Got.Sites.size(), Tr.Sites.size()) << Mode;
    for (size_t I = 0; I != Tr.Sites.size(); ++I) {
      EXPECT_EQ(Got.siteFile(static_cast<CodeSiteId>(I)),
                Tr.siteFile(static_cast<CodeSiteId>(I)))
          << Mode << " site " << I;
      EXPECT_EQ(Got.siteFunction(static_cast<CodeSiteId>(I)),
                Tr.siteFunction(static_cast<CodeSiteId>(I)))
          << Mode << " site " << I;
    }
  };

  Expected<Trace> FromText = readTraceFile(TextPath);
  ASSERT_TRUE(FromText.ok()) << FromText.message();
  expectNamesMatch(*FromText, "text");
  Expected<Trace> FromV3 = readTraceFile(V3Path);
  ASSERT_TRUE(FromV3.ok()) << FromV3.message();
  expectNamesMatch(*FromV3, "v3/file");
  std::vector<uint8_t> Bytes = writeTraceV3(Tr);
  Trace FromBuffer;
  ASSERT_TRUE(parseTraceBuffer(Bytes.data(), Bytes.size(), FromBuffer, Err))
      << Err;
  expectNamesMatch(FromBuffer, "v3/buffer");

  std::remove(TextPath.c_str());
  std::remove(V3Path.c_str());
}

TEST(TraceIOTest, EmptyTraceRoundTrips) {
  TraceBuilder B;
  Trace Tr = B.finish();
  std::string Text = writeTraceText(Tr);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceText(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.numThreads(), 0u);
}
