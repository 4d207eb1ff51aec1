//===- tests/TraceIOCorruptTest.cpp - hostile-input hardening ---------------===//
//
// A mutation corpus over the trace formats (truncations, bad magic,
// inflated table counts, varint overruns): every corrupt input must
// fail with a typed diagnostic — and the inflated counts specifically
// with "count exceeds ..." *before* any allocation proportional to the
// forged count, so a hostile header can never OOM the loader.  Plus
// loader parity: the file loaders (mmap or stream) and the byte-buffer
// parser must produce byte-identical traces from the same bytes.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "record/Preload.h"
#include "sim/Replayer.h"
#include "support/MappedFile.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceV3.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

using namespace perfplay;

namespace {

/// Little-endian u32 append/patch helpers for hand-crafting headers.
void appendU32(std::vector<uint8_t> &Bytes, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void patchU32(std::vector<uint8_t> &Bytes, size_t Offset, uint32_t V) {
  ASSERT_LE(Offset + 4, Bytes.size());
  for (int I = 0; I != 4; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(V >> (8 * I));
}

void appendU64(std::vector<uint8_t> &Bytes, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void patchU64(std::vector<uint8_t> &Bytes, size_t Offset, uint64_t V) {
  ASSERT_LE(Offset + 8, Bytes.size());
  for (int I = 0; I != 8; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(V >> (8 * I));
}

uint64_t readU64(const std::vector<uint8_t> &Bytes, size_t Offset) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(Bytes[Offset + I]) << (8 * I);
  return V;
}

/// Footer field offsets, relative to the end of a v3 file.
constexpr size_t V3FootSideOff = 48;
constexpr size_t V3FootDirOff = 40;
constexpr size_t V3FootNumThreads = 28;
constexpr size_t V3FootNumLocks = 24;
constexpr size_t V3FootNumSites = 20;
constexpr size_t V3FootTotalEvents = 16;

std::vector<uint8_t> realV3Bytes() {
  Trace Tr = generateWorkload(makeTransmissionBT(2, 0.5));
  recordGrantSchedule(Tr, 7);
  // A small chunk target so the file has several chunks to corrupt.
  return writeTraceV3(Tr, /*TargetChunkBytes=*/1024);
}

bool parseV3(const std::vector<uint8_t> &Bytes, Trace &Out,
             std::string &Err) {
  return parseTraceV3(Bytes.data(), Bytes.size(), Out, Err);
}

std::string tempPath(const char *Name) {
  return testing::TempDir() + "perfplay_corrupt_" + Name;
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
}

} // namespace

//===----------------------------------------------------------------------===//
// Text-format count hardening
//===----------------------------------------------------------------------===//

TEST(TraceIOCorruptTest, TextScheduleCountBeyondInputFails) {
  std::string Text = "perfplay-trace-v1\nlocks 0\nsites 0\nlocksets 0\n"
                     "constraints 0\nschedule 4000000000\n";
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseTraceText(Text, Out, Err));
  EXPECT_NE(Err.find("schedule count exceeds input size"),
            std::string::npos)
      << Err;
}

TEST(TraceIOCorruptTest, TextEventCountBeyondInputFails) {
  std::string Text = "perfplay-trace-v1\nlocks 0\nsites 0\nlocksets 0\n"
                     "constraints 0\nschedule 0\nthreads 1\n"
                     "thread 4000000000\n";
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseTraceText(Text, Out, Err));
  EXPECT_NE(Err.find("event count exceeds input size"), std::string::npos)
      << Err;
}

//===----------------------------------------------------------------------===//
// Loader parity and typed file errors
//===----------------------------------------------------------------------===//

// The acceptance bar for the mmap path: on round-tripped traces of
// both formats, the file loader and the byte-buffer parser produce
// byte-identical traces.
TEST(TraceIOCorruptTest, FileAndBufferLoadsAreByteIdentical) {
  const size_t Apps[] = {0, 4, 9};
  for (size_t AppIdx : Apps) {
    const AppModel &App = allApps()[AppIdx];
    Trace Tr = generateWorkload(App.Factory(2, 0.25));
    recordGrantSchedule(Tr, 11);
    const std::string Golden = writeTraceText(Tr);

    for (TraceFormat Format : {TraceFormat::Text, TraceFormat::V3}) {
      std::string Path = tempPath(App.Name.c_str());
      std::string Err;
      ASSERT_TRUE(saveTrace(Tr, Path, Err, Format)) << Err;
      Expected<Trace> FromFile = readTraceFile(Path);
      ASSERT_TRUE(FromFile.ok()) << App.Name << ": " << FromFile.message();
      EXPECT_EQ(writeTraceText(*FromFile), Golden) << App.Name;
      MappedFile File;
      ASSERT_TRUE(File.open(Path, Err)) << Err;
      Trace FromBuffer;
      ASSERT_TRUE(parseTraceBuffer(File.data(), File.size(), FromBuffer, Err))
          << App.Name << ": " << Err;
      EXPECT_EQ(writeTraceText(FromBuffer), Golden) << App.Name;
      std::remove(Path.c_str());
    }
  }
}

TEST(TraceIOCorruptTest, ReadTraceFileReportsTypedErrors) {
  Expected<Trace> Missing =
      readTraceFile(tempPath("does_not_exist.trace"));
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.code(), ErrorCode::TraceIOFailed);
  EXPECT_STREQ(errorCodeName(Missing.code()), "trace-io-failed");

  // A directory opens but cannot be read: the read error is reported
  // as such, not parsed as a short (empty) trace.
  Expected<Trace> Dir = readTraceFile(testing::TempDir());
  ASSERT_FALSE(Dir.ok());
  EXPECT_EQ(Dir.code(), ErrorCode::TraceIOFailed);
  EXPECT_NE(Dir.message().find("cannot read"), std::string::npos)
      << Dir.message();

  // A forged footer count through the file API carries the same typed
  // diagnostic as through the parser.
  std::string Path = tempPath("hostile.v3trace");
  std::vector<uint8_t> Bytes = realV3Bytes();
  patchU32(Bytes, Bytes.size() - V3FootNumLocks, 0xFFFFFFFFu);
  writeFile(Path, Bytes);
  Expected<Trace> Hostile = readTraceFile(Path);
  ASSERT_FALSE(Hostile.ok());
  EXPECT_EQ(Hostile.code(), ErrorCode::TraceIOFailed);
  EXPECT_NE(Hostile.message().find("lock table count exceeds file size"),
            std::string::npos)
      << Hostile.message();
  std::remove(Path.c_str());
}

TEST(TraceIOCorruptTest, ReadTraceFileRoundTrips) {
  Trace Tr = generateWorkload(makeTransmissionBT(2, 0.25));
  recordGrantSchedule(Tr, 5);
  std::string Path = tempPath("roundtrip.v3trace");
  std::string Err;
  ASSERT_TRUE(saveTrace(Tr, Path, Err, TraceFormat::V3)) << Err;
  Expected<Trace> Back = readTraceFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(writeTraceText(*Back), writeTraceText(Tr));
  std::remove(Path.c_str());
}

// parseTraceBuffer sniffs the format from borrowed bytes — the entry
// point callers holding raw buffers use directly.
TEST(TraceIOCorruptTest, ParseTraceBufferDispatchesBothFormats) {
  Trace Tr = generateWorkload(makeTransmissionBT(2, 0.25));
  recordGrantSchedule(Tr, 5);
  const std::string Golden = writeTraceText(Tr);

  std::vector<uint8_t> V3 = writeTraceV3(Tr);
  Trace FromV3;
  std::string Err;
  ASSERT_TRUE(parseTraceBuffer(V3.data(), V3.size(), FromV3, Err)) << Err;
  EXPECT_EQ(writeTraceText(FromV3), Golden);

  Trace FromText;
  ASSERT_TRUE(parseTraceBuffer(
      reinterpret_cast<const uint8_t *>(Golden.data()), Golden.size(),
      FromText, Err))
      << Err;
  EXPECT_EQ(writeTraceText(FromText), Golden);

  Trace FromEmpty;
  EXPECT_FALSE(parseTraceBuffer(nullptr, 0, FromEmpty, Err));
  EXPECT_FALSE(Err.empty());
}

#if defined(__unix__) || defined(__APPLE__)
// Pipes stat as size-0 and cannot be mapped; the loader must stream
// them (with a single open — a failed map attempt would eat the FIFO's
// read end) and say why it did not map.
TEST(TraceIOCorruptTest, AutoModeStreamsFromFifos) {
  Trace Tr = generateWorkload(makeTransmissionBT(2, 0.25));
  recordGrantSchedule(Tr, 3);
  const std::string Text = writeTraceText(Tr);

  std::string Fifo = tempPath("pipe.trace");
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0) << strerror(errno);
  EXPECT_EQ(MappedFile::classifyPath(Fifo), MappedFile::PathKind::Other);
  std::thread Writer([&] {
    FILE *F = std::fopen(Fifo.c_str(), "wb");
    if (F) {
      std::fwrite(Text.data(), 1, Text.size(), F);
      std::fclose(F);
    }
  });
  TraceLoadInfo Info;
  Expected<Trace> Out = readTraceFile(Fifo, &Info);
  Writer.join();
  ASSERT_TRUE(Out.ok()) << Out.message();
  EXPECT_EQ(writeTraceText(*Out), Text);
  EXPECT_FALSE(Info.UsedMmap);
  EXPECT_NE(Info.MmapDowngradeReason.find("not a regular file"),
            std::string::npos)
      << Info.MmapDowngradeReason;
  std::remove(Fifo.c_str());
}
#endif

//===----------------------------------------------------------------------===//
// v3 mutation corpus
//
// Every forged count must be rejected against the byte budget that
// would have to contain it *before* any allocation, and every mutation
// fails with a typed diagnostic.  The footer/directory offsets used
// for patching follow the normative layout in docs/TRACE_FORMAT.md.
//===----------------------------------------------------------------------===//

TEST(TraceIOCorruptTest, V3BadFooterMagicIsTyped) {
  std::vector<uint8_t> Bytes = realV3Bytes();
  Bytes[Bytes.size() - 1] ^= 0x20;
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("bad v3 footer magic"), std::string::npos) << Err;
}

TEST(TraceIOCorruptTest, V3BadDirectoryOffsetIsTyped) {
  // Shift the directory offset so chunk count and directory byte size
  // no longer agree.
  std::vector<uint8_t> Bytes = realV3Bytes();
  uint64_t DirOff = readU64(Bytes, Bytes.size() - V3FootDirOff);
  patchU64(Bytes, Bytes.size() - V3FootDirOff, DirOff + 4);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("bad v3 directory offset"), std::string::npos) << Err;

  // An offset beyond the file is a section-bounds failure.
  Bytes = realV3Bytes();
  patchU64(Bytes, Bytes.size() - V3FootDirOff, Bytes.size() + 1000);
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("bad v3 section offsets"), std::string::npos) << Err;
}

// The motivating attack: forged counts in the footer must be rejected
// against the file's byte budget before any table is sized.
TEST(TraceIOCorruptTest, V3InflatedFooterCountsFailFast) {
  {
    std::vector<uint8_t> Bytes = realV3Bytes();
    patchU32(Bytes, Bytes.size() - V3FootNumLocks, 0xFFFFFFFFu);
    Trace Out;
    std::string Err;
    EXPECT_FALSE(parseV3(Bytes, Out, Err));
    EXPECT_NE(Err.find("lock table count exceeds file size"),
              std::string::npos)
        << Err;
  }
  {
    std::vector<uint8_t> Bytes = realV3Bytes();
    patchU32(Bytes, Bytes.size() - V3FootNumSites, 0xFFFFFFFFu);
    Trace Out;
    std::string Err;
    EXPECT_FALSE(parseV3(Bytes, Out, Err));
    EXPECT_NE(Err.find("site table count exceeds file size"),
              std::string::npos)
        << Err;
  }
  {
    // A forged thread count must not size the thread table: threads
    // are bounded by the chunk count, itself pinned to the directory's
    // real byte size.
    std::vector<uint8_t> Bytes = realV3Bytes();
    patchU32(Bytes, Bytes.size() - V3FootNumThreads, 0x40000000u);
    Trace Out;
    std::string Err;
    EXPECT_FALSE(parseV3(Bytes, Out, Err));
    EXPECT_NE(Err.find("thread count exceeds chunk count"),
              std::string::npos)
        << Err;
  }
  {
    std::vector<uint8_t> Bytes = realV3Bytes();
    patchU64(Bytes, Bytes.size() - V3FootTotalEvents,
             0xFFFFFFFFFFFFull);
    Trace Out;
    std::string Err;
    EXPECT_FALSE(parseV3(Bytes, Out, Err));
    EXPECT_NE(Err.find("event count exceeds file size"),
              std::string::npos)
        << Err;
  }
}

// Inflating one chunk's event count in the directory: every event
// costs at least its kind tag, so a count beyond the chunk's byte size
// is rejected before any span is sized.
TEST(TraceIOCorruptTest, V3InflatedChunkEventCountFailsFast) {
  std::vector<uint8_t> Bytes = realV3Bytes();
  uint64_t DirOff = readU64(Bytes, Bytes.size() - V3FootDirOff);
  // Directory entry 0: EventCount lives at +16.
  patchU32(Bytes, static_cast<size_t>(DirOff) + 16, 0x7FFFFFFFu);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("event count exceeds chunk size"), std::string::npos)
      << Err;
}

// Shrinking a chunk's directory byte size truncates the chunk: its
// header still matches, but the delta tables and event stream no
// longer fit.
TEST(TraceIOCorruptTest, V3TruncatedChunkIsTyped) {
  std::vector<uint8_t> Bytes = realV3Bytes();
  uint64_t DirOff = readU64(Bytes, Bytes.size() - V3FootDirOff);
  // Directory entry 0: ByteSize lives at +8.  36 bytes = bare header.
  patchU32(Bytes, static_cast<size_t>(DirOff) + 8, 36);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("chunk 0:"), std::string::npos) << Err;
}

// A chunk header promising more string-table delta entries than its
// chunk has bytes must fail the per-chunk budget check.
TEST(TraceIOCorruptTest, V3InflatedDeltaCountIsTyped) {
  std::vector<uint8_t> Bytes = realV3Bytes();
  uint64_t DirOff = readU64(Bytes, Bytes.size() - V3FootDirOff);
  uint64_t Chunk0 = readU64(Bytes, static_cast<size_t>(DirOff));
  // Chunk header: NewLocks lives at +24 (after Thread, EventCount,
  // FirstTs, LastTs).
  patchU32(Bytes, static_cast<size_t>(Chunk0) + 24, 0x7FFFFFFFu);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("lock delta count exceeds chunk size"),
            std::string::npos)
      << Err;
}

// A varint running past its 10-byte cap (hostile continuation bits
// forever) is an overrun, not a hang or an overflow.  Hand-crafted
// minimal file: one chunk, one Compute event whose cost varint never
// terminates.
TEST(TraceIOCorruptTest, V3VarintOverrunIsTyped) {
  std::vector<uint8_t> Bytes(
      {'P', 'F', 'P', 'L', 'T', 'R', 'C', '3'});
  // Chunk at offset 8: header, no deltas, 11 event bytes.
  const uint32_t EventBytes = 11;
  appendU32(Bytes, 0);          // Thread
  appendU32(Bytes, 1);          // EventCount
  appendU64(Bytes, 0);          // FirstTs
  appendU64(Bytes, 0);          // LastTs
  appendU32(Bytes, 0);          // NewLocks
  appendU32(Bytes, 0);          // NewSites
  appendU32(Bytes, EventBytes); // EventBytes
  Bytes.push_back(6);           // EventKind::Compute
  for (int I = 0; I != 10; ++I) // cost varint: continuation forever
    Bytes.push_back(0xFF);
  const uint64_t SideOff = Bytes.size();
  for (int Table = 0; Table != 5; ++Table)
    appendU32(Bytes, 0); // rem-locks/rem-sites/locksets/constraints/sched
  const uint64_t DirOff = Bytes.size();
  appendU64(Bytes, 8);              // chunk offset
  appendU32(Bytes, 36 + EventBytes); // chunk byte size
  appendU32(Bytes, 0);              // thread
  appendU32(Bytes, 1);              // event count
  appendU32(Bytes, 0);              // acquire count
  appendU64(Bytes, 0);              // first ts
  appendU64(Bytes, 0);              // last ts
  appendU64(Bytes, SideOff);
  appendU64(Bytes, DirOff);
  appendU32(Bytes, 1); // chunks
  appendU32(Bytes, 1); // threads
  appendU32(Bytes, 0); // locks
  appendU32(Bytes, 0); // sites
  appendU64(Bytes, 1); // total events
  Bytes.insert(Bytes.end(),
               {'P', 'F', 'P', 'L', 'E', 'N', 'D', '3'});

  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("varint overrun"), std::string::npos) << Err;
}

// A footer lock count larger than the number of definitions actually
// present leaves undefined table slots — typed, not silent.
TEST(TraceIOCorruptTest, V3MissingLockDefinitionIsTyped) {
  std::vector<uint8_t> Bytes = realV3Bytes();
  uint32_t NumLocks = 0;
  for (int I = 0; I != 4; ++I)
    NumLocks |= static_cast<uint32_t>(
                    Bytes[Bytes.size() - V3FootNumLocks + I])
                << (8 * I);
  patchU32(Bytes, Bytes.size() - V3FootNumLocks, NumLocks + 1);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("missing lock definition"), std::string::npos) << Err;
}

// Every truncation point of a real v3 trace fails with a diagnostic —
// no crash, no unbounded allocation.
TEST(TraceIOCorruptTest, V3EveryTruncationFailsGracefully) {
  const std::vector<uint8_t> Base = realV3Bytes();
  ASSERT_GT(Base.size(), 128u);
  for (size_t Len = 0; Len < Base.size(); Len += 7) {
    std::vector<uint8_t> Prefix(Base.begin(),
                                Base.begin() + static_cast<ptrdiff_t>(Len));
    Trace Out;
    std::string Err;
    bool Ok = parseTraceV3(Prefix.data(), Prefix.size(), Out, Err);
    if (Ok)
      EXPECT_EQ(Out.validate(), "") << "prefix " << Len;
    else
      EXPECT_FALSE(Err.empty()) << "prefix " << Len;
  }
}

// WindowedReader runs the same validation as the full parser at
// open(); a corrupt directory must be rejected before any chunk
// streams.
TEST(TraceIOCorruptTest, V3WindowedReaderRejectsCorruptFiles) {
  std::vector<uint8_t> Bytes = realV3Bytes();
  uint64_t DirOff = readU64(Bytes, Bytes.size() - V3FootDirOff);
  patchU64(Bytes, Bytes.size() - V3FootDirOff, DirOff + 4);
  std::string Path = tempPath("corrupt.v3trace");
  writeFile(Path, Bytes);

  WindowedReader R;
  std::string Err;
  EXPECT_FALSE(R.open(Path, Err));
  EXPECT_NE(Err.find("bad v3 directory offset"), std::string::npos) << Err;
  EXPECT_FALSE(R.isOpen());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// v3.1 extended-vocabulary corruption
//===----------------------------------------------------------------------===//

namespace {

/// A small v3.1 trace carrying the extended vocabulary: a reader-side
/// rwlock section, exactly one TryAcquire, and a condvar pairing.
/// Small ids keep the trylock's byte encoding deterministic — kind 9,
/// varint lock+1, varint site+1, varint 0 (no lockset), mode byte,
/// success byte — so tests can locate and corrupt it.
std::vector<uint8_t> extendedV3Bytes(size_t TargetChunkBytes = 4096) {
  TraceBuilder B;
  LockId Rw = B.addLock("rw");
  LockId Cv = B.addLock("cv");
  CodeSiteId S = B.addSite("ext.cc", "reader", 1, 2);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCsShared(T0, Rw, S);
  B.read(T0, 100, 7);
  B.endCs(T0);
  B.tryCs(T0, Rw, S, /*Succeeded=*/true);
  B.write(T0, 100, 9);
  B.endCs(T0);
  B.condSignal(T0, Cv);
  B.condWait(T1, Cv, S);
  return writeTraceV3(B.finish(), TargetChunkBytes);
}

/// Byte offset of the single TryAcquire event's kind tag inside
/// extendedV3Bytes().  Asserts the encoded pattern occurs exactly once
/// so the mutation below cannot silently hit an unrelated byte.
size_t findTryAcquire(const std::vector<uint8_t> &Bytes) {
  // kind 9, lock id 0 (+1), site id 0 (+1), no lockset, Exclusive,
  // succeeded.
  const uint8_t Pattern[] = {0x09, 0x01, 0x01, 0x00, 0x00, 0x01};
  size_t Found = Bytes.size();
  unsigned Count = 0;
  for (size_t I = 0; I + sizeof(Pattern) <= Bytes.size(); ++I)
    if (std::memcmp(Bytes.data() + I, Pattern, sizeof(Pattern)) == 0) {
      Found = I;
      ++Count;
    }
  EXPECT_EQ(Count, 1u);
  return Found;
}

} // namespace

// A stream whose footer claims minor version 3.0 must reject the
// extended kinds: old-vocabulary files promise LockAcquire..Compute
// only, and the decoder gates on that promise.
TEST(TraceIOCorruptTest, V3ExtendedKindRejectedUnderMinor30Footer) {
  std::vector<uint8_t> Bytes = extendedV3Bytes();
  ASSERT_GE(Bytes.size(), 8u);
  ASSERT_EQ(std::memcmp(Bytes.data() + Bytes.size() - 8, "PFPLEN31", 8), 0);
  std::memcpy(Bytes.data() + Bytes.size() - 8, "PFPLEND3", 8);
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("unknown event kind"), std::string::npos) << Err;
}

// Corrupting the TryAcquire mode byte past AcquireMode::Shared is a
// typed decode failure, not a silent mis-mode.
TEST(TraceIOCorruptTest, V3BadTryModeByteIsTyped) {
  std::vector<uint8_t> Bytes = extendedV3Bytes();
  size_t Try = findTryAcquire(Bytes);
  ASSERT_LT(Try, Bytes.size());
  Bytes[Try + 4] = 0x02; // mode byte: neither Exclusive nor Shared
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("unknown acquire mode"), std::string::npos) << Err;
}

// Same for the success flag: anything beyond 0/1 is rejected.
TEST(TraceIOCorruptTest, V3BadTryFlagIsTyped) {
  std::vector<uint8_t> Bytes = extendedV3Bytes();
  size_t Try = findTryAcquire(Bytes);
  ASSERT_LT(Try, Bytes.size());
  Bytes[Try + 5] = 0x02;
  Trace Out;
  std::string Err;
  EXPECT_FALSE(parseV3(Bytes, Out, Err));
  EXPECT_NE(Err.find("bad trylock flag"), std::string::npos) << Err;
}

// The truncation sweep repeated over an extended-vocabulary trace
// split across many chunks: every prefix either parses to a valid
// trace or fails with a diagnostic.
TEST(TraceIOCorruptTest, V3ExtendedEveryTruncationFailsGracefully) {
  const std::vector<uint8_t> Base = extendedV3Bytes(/*TargetChunkBytes=*/64);
  ASSERT_GT(Base.size(), 64u);
  for (size_t Len = 0; Len < Base.size(); Len += 3) {
    std::vector<uint8_t> Prefix(Base.begin(),
                                Base.begin() + static_cast<ptrdiff_t>(Len));
    Trace Out;
    std::string Err;
    bool Ok = parseTraceV3(Prefix.data(), Prefix.size(), Out, Err);
    if (Ok)
      EXPECT_EQ(Out.validate(), "") << "prefix " << Len;
    else
      EXPECT_FALSE(Err.empty()) << "prefix " << Len;
  }
}

//===----------------------------------------------------------------------===//
// MappedFile mechanics
//===----------------------------------------------------------------------===//

TEST(TraceIOCorruptTest, MappedFileBasics) {
  std::string Err;
  MappedFile File;
  EXPECT_FALSE(File.open(tempPath("missing.bin"), Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(File.data(), nullptr);

  // Empty files map to an empty view, not an error.
  std::string Empty = tempPath("empty.bin");
  std::fclose(std::fopen(Empty.c_str(), "wb"));
  EXPECT_TRUE(File.open(Empty, Err)) << Err;
  EXPECT_EQ(File.size(), 0u);
  std::remove(Empty.c_str());

  std::string Small = tempPath("small.bin");
  FILE *F = std::fopen(Small.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("perfplay", F);
  std::fclose(F);
  ASSERT_TRUE(File.open(Small, Err)) << Err;
  ASSERT_EQ(File.size(), 8u);
  EXPECT_EQ(std::memcmp(File.data(), "perfplay", 8), 0);
  EXPECT_EQ(File.isMapped(), MappedFile::supportsMapping());

  // Moves transfer the view; the source is left closed.
  MappedFile Moved = std::move(File);
  EXPECT_EQ(Moved.size(), 8u);
  EXPECT_EQ(File.size(), 0u);
  Moved.close();
  EXPECT_EQ(Moved.data(), nullptr);
  std::remove(Small.c_str());
}

// -----------------------------------------------------------------------------
// LD_PRELOAD recorder corpses (record/Flusher.h streams v3 through a
// `<out>.tmp` + rename protocol, so a killed recorder leaves exactly
// the bytes below: chunks flushed mid-stream, no footer).
// -----------------------------------------------------------------------------

// A recorder killed mid-flush leaves a chunk stream without footer or
// directory; both loaders must fail with a typed diagnostic and the
// windowed reader must reject it without over-allocating.
TEST(TraceIOCorruptTest, V3RecorderKilledMidFlushIsTyped) {
  std::string Path = tempPath("recorder_killed.v3.tmp");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  {
    // A tiny chunk target forces chunk flushes long before finish(),
    // exactly like the recorder's streaming writer under load.
    TraceV3Writer W(
        [&](const void *Data, size_t Size) {
          return std::fwrite(Data, 1, Size, F) == Size;
        },
        /*TargetChunkBytes=*/128);
    uint32_t L = W.addLock(false, "mutex@0xdead");
    W.beginThread(0);
    W.append(Event::threadStart());
    for (int I = 0; I != 200; ++I) {
      W.append(Event::compute(5));
      W.append(Event::lockAcquire(L, InvalidId));
      W.append(Event::lockRelease(L));
    }
    // No finish(): the "process" dies here.
  }
  std::fclose(F);

  Expected<Trace> Tr = readTraceFile(Path);
  ASSERT_FALSE(Tr.ok());
  EXPECT_FALSE(Tr.message().empty());

  WindowedReader Reader;
  std::string WinErr;
  EXPECT_FALSE(Reader.open(Path, WinErr));
  EXPECT_FALSE(WinErr.empty());
  EXPECT_FALSE(Reader.isOpen());
  std::remove(Path.c_str());
}

// A recording with zero events (a program that never touched a lock)
// must round-trip as a structurally valid empty trace.
TEST(TraceIOCorruptTest, RecorderZeroEventTraceRoundTrips) {
  std::string Path = tempPath("recorder_empty.v3");
  {
    perfplay::record::RecordOptions Opts;
    Opts.OutPath = Path;
    perfplay::record::RecordRuntime RT(Opts);
    perfplay::record::RecordSummary S = RT.finalize();
    ASSERT_TRUE(S.Ok) << S.Error;
    EXPECT_EQ(S.TraceEvents, 0u);
    EXPECT_EQ(S.Sections, 0u);
  }
  Expected<Trace> Tr = readTraceFile(Path);
  ASSERT_TRUE(Tr.ok()) << Tr.message();
  EXPECT_EQ(Tr->numThreads(), 0u);
  EXPECT_EQ(Tr->numEvents(), 0u);
  EXPECT_EQ(Tr->validate(), "");
  // The temporary never survives a clean finalize.
  std::FILE *Tmp = std::fopen((Path + ".tmp").c_str(), "rb");
  EXPECT_EQ(Tmp, nullptr);
  if (Tmp)
    std::fclose(Tmp);
  std::remove(Path.c_str());
}

// A recorder whose finalize never ran (crash before exit handlers)
// leaves no file at the advertised path at all — only the .tmp corpse.
TEST(TraceIOCorruptTest, RecorderTmpNeverShadowsFinalPath) {
  std::string Path = tempPath("recorder_unfinalized.v3");
  std::remove(Path.c_str());
  {
    perfplay::record::RecordOptions Opts;
    Opts.OutPath = Path;
    perfplay::record::RecordRuntime RT(Opts);
    RT.mutexAcquired(0x1000, nullptr, 10, 20);
    // Mid-recording: the advertised path must not exist yet.
    std::FILE *Final = std::fopen(Path.c_str(), "rb");
    EXPECT_EQ(Final, nullptr);
    if (Final)
      std::fclose(Final);
    RT.finalize();
  }
  std::FILE *Final = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(Final, nullptr);
  if (Final)
    std::fclose(Final);
  std::remove(Path.c_str());
}
