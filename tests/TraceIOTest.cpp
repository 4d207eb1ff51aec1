//===- tests/TraceIOTest.cpp - trace serialization tests --------------------===//

#include "detect/CriticalSection.h"
#include "support/MappedFile.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/TraceV3.h"
#include "transform/Transform.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

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
      EXPECT_TRUE(EA[I] == EB[I]) << "thread " << T << " ev " << I;
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

namespace {

/// FNV-1a over \p Bytes.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// FNV-1a digests of saveTrace's bytes for every app model at 4
/// threads, scale 1, seed 1: the recorded trace in text and v3, and
/// its ULCP-free transform in v3 (locksets and constraint tables).
/// They were taken with the 40-byte event, so they pin
/// docs/TRACE_FORMAT.md across changes to the in-memory event layout:
/// any byte a writer moves changes a digest.
struct PinnedSave {
  const char *App;
  uint64_t Text;
  uint64_t V3;
  uint64_t UlcpFreeV3;
};

const PinnedSave PinnedSaves[] = {
    {"openldap", 0xae43833b1da15e61, 0x9123cfd4dc3d2757,
     0x2389c18d840f1670},
    {"mysql", 0xb71a4fc7de227eb8, 0x72a5679292f3a414,
     0xa5e7a61f33506e6d},
    {"pbzip2", 0x752a2aa693b428f6, 0xb8a058c32b1e851b,
     0x72a62251b78b9e9f},
    {"transmissionBT", 0xbb80b4bc2b7c7450, 0x6a55e35844b857f5,
     0x83092d0001097407},
    {"handbrake", 0x51437e8c9c2f5c9d, 0x700cbfe3a8ecd94d,
     0x7b81e36105e110b0},
    {"blackscholes", 0x2b915def5d6b801, 0x37a1d1ded4362288,
     0x37a1d1ded4362288},
    {"bodytrack", 0x755c14c688aa51a0, 0x63b5ee42d63755bc,
     0x1019e5ab1c0ee75f},
    {"canneal", 0x5302b17ce7ad4f81, 0x61d9ce7362cc05f7,
     0xbf7f05da06a8091e},
    {"dedup", 0x59f30f6b01e791a7, 0xf8f81df5d1263060,
     0x4199e30dc2ecb99e},
    {"facesim", 0x7aecb0db528e3d63, 0x5bdb63193955216c,
     0xc0a8b846505d3cf4},
    {"ferret", 0x21ce94a3ab2c49fe, 0xd7c43690c91dcb59,
     0xbd1ec0d0e4432a59},
    {"fluidanimate", 0x95238489295d0c3f, 0xf7bd6356e5ef300c,
     0x67564e4e4efb3ac1},
    {"streamcluster", 0xe09c0b60d03b6aec, 0x37a7f03e0ee97b0a,
     0xefecd86e4f2290a8},
    {"swaptions", 0x64acfde610d44e4, 0x42a92d34d00d2cfd,
     0x60c94af04a21dd14},
    {"vips", 0x3e9058ba56bcaf0a, 0xb6c998b7ee95640e,
     0x854398c789845439},
    {"x264", 0x9060fc333a3400d5, 0x306c509727cf70d8,
     0x64b8342a19ce2e5b},
    {"rwmix", 0xf12c936d0955a848, 0xfe8247608bd99f80,
     0xd8ca337c4795fc92},
};

} // namespace

TEST(TraceIOTest, SavedBytesMatchPinnedDigests) {
  std::vector<const AppModel *> Models;
  for (const auto *Apps : {&allApps(), &syntheticApps()})
    for (const AppModel &M : *Apps)
      Models.push_back(&M);
  ASSERT_EQ(Models.size(), std::size(PinnedSaves));
  std::string Path = testing::TempDir() + "/perfplay_pinned_save.trace";
  auto SavedDigest = [&](const Trace &Tr, TraceFormat Format) {
    std::string Err;
    EXPECT_TRUE(saveTrace(Tr, Path, Err, Format)) << Err;
    std::ifstream In(Path, std::ios::binary);
    return fnv1a(std::string(std::istreambuf_iterator<char>(In),
                             std::istreambuf_iterator<char>()));
  };
  for (size_t I = 0; I != Models.size(); ++I) {
    const PinnedSave &P = PinnedSaves[I];
    ASSERT_EQ(Models[I]->Name, P.App);
    WorkloadSpec Spec = Models[I]->Factory(4, 1.0);
    Spec.Seed = 1;
    Trace Tr = generateWorkload(Spec);
    Trace Free = transformTrace(Tr, CsIndex::build(Tr)).Transformed;
    uint64_t Text = SavedDigest(Tr, TraceFormat::Text);
    uint64_t V3 = SavedDigest(Tr, TraceFormat::V3);
    uint64_t FreeV3 = SavedDigest(Free, TraceFormat::V3);
    EXPECT_EQ(Text, P.Text) << P.App << " text: 0x" << std::hex << Text;
    EXPECT_EQ(V3, P.V3) << P.App << " v3: 0x" << std::hex << V3;
    EXPECT_EQ(FreeV3, P.UlcpFreeV3)
        << P.App << " ulcp-free v3: 0x" << std::hex << FreeV3;
  }
  std::remove(Path.c_str());
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
