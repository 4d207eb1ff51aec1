//===- bench/micro_trace_ingest.cpp - trace ingestion throughput ------------===//
//
// Measures v3 trace ingestion along two paths:
//
//   stream — the copying path: stdio-read the whole file into a byte
//            vector, then parse out of the copy (parseTraceBuffer) —
//            what the loader does for pipes and unmappable files,
//   mmap   — the zero-copy read: readTraceFile maps the file and
//            parses straight out of the page cache
//            (support/MappedFile.h).
//
// Two phases are timed per path.  "ingest" is the cost of making the
// file's bytes addressable (the read-and-copy that mmap eliminates —
// this is where the >= 2x zero-copy win lives, and it grows with the
// file); "end-to-end" is the full load including the parse, whose
// event decoding dominates and is common to both paths.  The stream
// path additionally holds a transient whole-file copy, so its peak
// memory is file-size bytes higher — reported as peak_extra_bytes.
//
// Both paths must produce byte-identical traces (asserted).  Emits
// BENCH_traceio.json for CI tracking alongside a human-readable table.
//
// A second, name-heavy corpus (thousands of locks and call sites with
// long symbol names — the shape of the paper's Table 1/Table 2
// workloads) measures the string pool:
//
//   owned parse      — parsing the mapped file, interning every name
//       into the trace's pool (one arena copy per distinct name),
//   dedup compare    — name equality as pooled-id integer compares vs.
//       materialized std::string compares (section-key interning and
//       the recorder's site lookup run the former since the pool
//       migration).
//
// With --out-of-core a third section runs FIRST (getrusage peak RSS
// is a process-lifetime high-water mark, so it must precede anything
// that materializes a trace): a corpus is stream-written through
// TraceV3Writer without ever building a Trace, then streamed back
// through WindowedReader + WindowedDetector (detect/WindowedDetect.h)
// in bounded memory.  windowed_peak_rss_ratio — peak RSS over file
// size — is exit-gated at <= 0.25, and windowed verdicts are asserted
// bit-identical to whole-trace detectUlcps on a materializable corpus
// from the same generator.
//
// Usage:
//   bench_micro_trace_ingest [--size-mb N] [--repeat K] [--out FILE]
//                            [--file SCRATCH] [--names N] [--out-of-core]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "detect/WindowedDetect.h"
#include "support/MappedFile.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/TraceV3.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace perfplay;

namespace {

/// A synthetic production-shaped recording: a few threads hammering
/// shared counters under a handful of locks, with long compute-heavy
/// stretches — event-dense, so the serialized size is dominated by the
/// event stream exactly like a real large recording.
Trace makeSyntheticTrace(size_t TargetBytes) {
  const unsigned Threads = 4;
  // One loop iteration per thread emits six delta-varint v3 events:
  // compute, acquire, read, write, release, compute — measured at
  // ~BytesPerIteration bytes on disk.
  const size_t BytesPerIteration = 21;
  const size_t Iterations =
      TargetBytes / (BytesPerIteration * Threads) + 1;

  TraceBuilder B;
  LockId Mu[4];
  for (unsigned L = 0; L != 4; ++L)
    Mu[L] = B.addLock("ingest_mu" + std::to_string(L));
  CodeSiteId Site = B.addSite("ingest.cc", "producer", 10, 42);
  std::vector<ThreadId> Ids;
  for (unsigned T = 0; T != Threads; ++T)
    Ids.push_back(B.addThread());

  for (size_t I = 0; I != Iterations; ++I)
    for (unsigned T = 0; T != Threads; ++T) {
      B.compute(Ids[T], 100 + (I & 0xff));
      B.beginCs(Ids[T], Mu[I & 3], Site);
      B.read(Ids[T], /*Addr=*/1 + (I & 7), /*Value=*/I);
      B.write(Ids[T], /*Addr=*/16 + T, /*Value=*/I, WriteOpKind::Add);
      B.endCs(Ids[T]);
      B.compute(Ids[T], 50);
    }
  return B.finish();
}

/// The name-heavy corpus: NumNames locks and NumNames call sites whose
/// fixed-width symbol names share a long common prefix (real symbol
/// tables do: long namespace/path prefixes, distinct tails), and a
/// minimal event stream — the serialized size is dominated by the
/// string tables, isolating the cost the string pool removes.
Trace makeNameHeavyTrace(size_t NumNames) {
  char Buf[96];
  TraceBuilder B;
  for (size_t I = 0; I != NumNames; ++I) {
    std::snprintf(Buf, sizeof(Buf),
                  "com/perfplay/workload/liblock/instance/lock_%06zu", I);
    B.addLock(Buf, (I & 7) == 0);
  }
  for (size_t I = 0; I != NumNames; ++I) {
    std::snprintf(Buf, sizeof(Buf),
                  "com/perfplay/workload/src/module/storage_engine_%06zu.cc",
                  I);
    std::string File = Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "perfplay::workload::Engine::criticalSection_%06zu", I);
    B.addSite(File, Buf, 100, 140);
  }
  ThreadId T = B.addThread();
  B.beginCs(T, 0, 0);
  B.endCs(T);
  return B.finish();
}

struct PhaseTimes {
  double IngestSeconds = 0.0;
  double TotalSeconds = 0.0;
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-lifetime peak resident set in bytes; 0 when the platform
/// offers no getrusage (the RSS gate is then reported but not
/// enforced).
uint64_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(RU.ru_maxrss); // bytes
#else
  return static_cast<uint64_t>(RU.ru_maxrss) * 1024; // KiB
#endif
#else
  return 0;
#endif
}

/// The stream path's bytes-ready phase: stdio-read the file into an
/// owned vector, mirroring the loader's stream path.
std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  char Buf[1 << 16];
  for (;;) {
    size_t N = std::fread(Buf, 1, sizeof(Buf), F);
    Bytes.insert(Bytes.end(), Buf, Buf + N);
    if (N < sizeof(Buf))
      break;
  }
  std::fclose(F);
  return Bytes;
}

struct CorpusInfo {
  uint64_t FileBytes = 0;
  uint64_t Events = 0;
  uint64_t Sections = 0;
};

/// Stream-writes the out-of-core corpus straight to disk through
/// TraceV3Writer — no Trace is ever materialized, so writer memory is
/// one chunk regardless of \p TargetBytes.  Four threads alternate
/// compute-heavy stretches with critical sections whose lock, access
/// addresses, and write operands all derive from a 64-cycle counter:
/// dynamic sections (and the file) grow without bound while the
/// detector's signature arena holds at most 64 representatives — the
/// shape that makes bounded-memory windowed detection possible.  The
/// out-of-section compute runs mirror real recordings (most of a
/// production trace is not inside a lock) and keep the bytes-per-
/// section high enough that the detector's ~12 bytes of per-section
/// metadata stay a small fraction of the file.
bool streamOutOfCoreCorpus(const std::string &Path, size_t TargetBytes,
                           CorpusInfo &Info, std::string &Err) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Err = "cannot open " + Path + " for writing";
    return false;
  }
  TraceV3Writer W([F](const void *Data, size_t Size) {
    return std::fwrite(Data, 1, Size, F) == Size;
  });
  LockId Mu[4];
  for (unsigned L = 0; L != 4; ++L)
    Mu[L] = W.addLock(false, "ooc_mu" + std::to_string(L));
  uint32_t Site = W.addSite(10, 42, "ooc.cc", "worker");
  const unsigned Threads = 4;
  const unsigned ComputeRun = 14; // out-of-section events per side
  // 38 events per section (10 inside, 28 outside), delta-varint
  // encoded; the estimate only sizes the loop — the real byte count
  // is bytesWritten().
  const size_t BytesPerSection = 140;
  const uint64_t Iterations =
      TargetBytes / (BytesPerSection * Threads) + 1;
  for (unsigned T = 0; T != Threads; ++T) {
    W.beginThread(T);
    W.append(Event::threadStart());
    for (uint64_t I = 0; I != Iterations; ++I) {
      const uint64_t S = I & 63;
      for (unsigned K = 0; K != ComputeRun; ++K)
        W.append(Event::compute(100000 + ((I * 7 + K) & 0xFFF)));
      W.append(Event::lockAcquire(Mu[S & 3], Site));
      W.append(Event::read(1 + (S & 7), I));
      W.append(Event::read(9 + (S & 7), I >> 1));
      W.append(Event::read(17 + ((S >> 3) & 7), I >> 2));
      W.append(Event::read(25 + ((S >> 3) & 7), I >> 3));
      W.append(Event::write(64 + (S & 3), S & 3, WriteOpKind::Add));
      W.append(Event::write(80 + ((S >> 2) & 3), (S >> 2) & 3));
      W.append(Event::lockRelease(Mu[S & 3]));
      for (unsigned K = 0; K != ComputeRun; ++K)
        W.append(Event::compute(200000 + ((I * 13 + K) & 0xFFF)));
      ++Info.Sections;
    }
    W.append(Event::threadEnd());
    Info.Events += (10 + 2 * ComputeRun) * Iterations + 2;
  }
  W.setNumThreads(Threads);
  bool Ok = W.finish(Err);
  std::fclose(F);
  Info.FileBytes = W.bytesWritten();
  return Ok;
}

struct WindowedRun {
  DetectResult Result;
  uint64_t Sections = 0;
  uint32_t Signatures = 0;
  uint64_t PeakOpenEvents = 0;
};

/// Streams the v3 file at \p Path chunk-by-chunk through a
/// WindowedDetector — the bench-side mirror of Engine::detectWindowed.
bool runWindowedDetect(const std::string &Path, const DetectOptions &Opts,
                       WindowedRun &Out, std::string &Err) {
  WindowedReader Reader;
  if (!Reader.open(Path, Err))
    return false;
  WindowedDetector D(Opts);
  WindowedReader::Chunk Chunk;
  while (Reader.next(Chunk, Err))
    if (!D.addEvents(Chunk.Thread, Chunk.Events.data(),
                     Chunk.Events.size(), Err))
      return false;
  if (!Err.empty())
    return false;
  if (!D.finish(Reader.tables(), Out.Result, Err))
    return false;
  Out.Sections = D.numSections();
  Out.Signatures = D.numSignatures();
  Out.PeakOpenEvents = D.peakOpenEvents();
  return true;
}

bool sameDetectResult(const DetectResult &A, const DetectResult &B) {
  if (A.Counts.NullLock != B.Counts.NullLock ||
      A.Counts.ReadRead != B.Counts.ReadRead ||
      A.Counts.DisjointWrite != B.Counts.DisjointWrite ||
      A.Counts.Benign != B.Counts.Benign ||
      A.Counts.TrueContention != B.Counts.TrueContention)
    return false;
  if (A.Stats.NumSectionKeys != B.Stats.NumSectionKeys ||
      A.Stats.NumClassified != B.Stats.NumClassified)
    return false;
  if (A.Pairs.size() != B.Pairs.size())
    return false;
  for (size_t I = 0; I != A.Pairs.size(); ++I)
    if (A.Pairs[I].First != B.Pairs[I].First ||
        A.Pairs[I].Second != B.Pairs[I].Second ||
        A.Pairs[I].Kind != B.Pairs[I].Kind)
      return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchArgs Args(Argc, Argv,
                        {"--size-mb", "--repeat", "--out", "--file", "--names"},
                        {"--out-of-core"});
  double SizeMb = std::atof(Args.option("--size-mb", "100").c_str());
  unsigned Repeat = static_cast<unsigned>(
      std::atoi(Args.option("--repeat", "3").c_str()));
  std::string Out = Args.option("--out", "BENCH_traceio.json");
  std::string Scratch =
      Args.option("--file", "BENCH_traceio.scratch.v3trace");
  long NamesArg = std::atol(Args.option("--names", "20000").c_str());
  if (Repeat == 0)
    Repeat = 1;
  if (SizeMb <= 0)
    SizeMb = 1;
  // Clamp before the size_t cast: a negative --names must not wrap to
  // an effectively unbounded generation loop.
  size_t NumNames = NamesArg < 16 ? 16 : static_cast<size_t>(NamesArg);
  bool OutOfCore = Args.flag("--out-of-core");

  //===--------------------------------------------------------------------===//
  // Out-of-core windowed detection (--out-of-core).  Runs before any
  // whole-trace materialization: ru_maxrss is a process-lifetime
  // high-water mark, so the RSS measured here is genuinely the
  // streaming pipeline's — stream-write the corpus, stream it back
  // through windowed detection, snapshot RSS, and only then allow the
  // rest of the bench to build in-memory traces.
  //===--------------------------------------------------------------------===//

  CorpusInfo Ooc;
  WindowedRun OocRun;
  double OocDetectSeconds = 0.0;
  uint64_t OocPeakRss = 0;
  double OocRssRatio = 0.0;
  bool OocParityOk = true;
  std::string Err;
  if (OutOfCore) {
    std::string OocPath = Scratch + ".ooc.v3trace";
    // The RSS ratio is only meaningful when the streamed file dwarfs
    // the process' fixed footprint (binary + libraries + detector
    // arenas, ~10-15 MB), so the out-of-core corpus gets a 100 MB
    // floor independent of --size-mb — an 8 MB smoke corpus would
    // fail the 0.25 gate on baseline RSS alone.
    size_t OocTarget = std::max<size_t>(
        static_cast<size_t>(SizeMb * 1e6), 100000000u);
    std::printf("stream-writing ~%.0f MB out-of-core v3 corpus...\n",
                static_cast<double>(OocTarget) / 1e6);
    if (!streamOutOfCoreCorpus(OocPath, OocTarget, Ooc, Err)) {
      std::fprintf(stderr, "out-of-core corpus write failed: %s\n",
                   Err.c_str());
      return 1;
    }
    DetectOptions OocOpts;
    OocOpts.CountsOnly = true;
    OocOpts.PairMode = PairModeKind::AdjacentCrossThread;
    double T0 = now();
    if (!runWindowedDetect(OocPath, OocOpts, OocRun, Err)) {
      std::fprintf(stderr, "out-of-core windowed detection failed: %s\n",
                   Err.c_str());
      return 1;
    }
    OocDetectSeconds = now() - T0;
    OocPeakRss = peakRssBytes();
    OocRssRatio = Ooc.FileBytes
                      ? static_cast<double>(OocPeakRss) /
                            static_cast<double>(Ooc.FileBytes)
                      : 0.0;
    std::printf("out-of-core: %llu byte file, %llu sections, "
                "%u signatures, detect %.3f s\n",
                static_cast<unsigned long long>(Ooc.FileBytes),
                static_cast<unsigned long long>(Ooc.Sections),
                OocRun.Signatures, OocDetectSeconds);
    std::printf("  ULCPs %llu, true contention %llu, peak open events "
                "%llu\n",
                static_cast<unsigned long long>(
                    OocRun.Result.Counts.totalUnnecessary()),
                static_cast<unsigned long long>(
                    OocRun.Result.Counts.TrueContention),
                static_cast<unsigned long long>(OocRun.PeakOpenEvents));
    std::printf("  peak RSS %.1f MB / %.1f MB file = ratio %.3f "
                "(gate <= 0.25%s)\n",
                static_cast<double>(OocPeakRss) / 1e6,
                static_cast<double>(Ooc.FileBytes) / 1e6, OocRssRatio,
                OocPeakRss ? "" : ", unmeasurable: not enforced");

    // Verdict parity: a corpus from the same generator, small enough
    // to materialize, analyzed both ways — the whole-trace detectUlcps
    // result and the windowed result must match field for field
    // (pairs, counts, stats).  tests/WindowedDetectTest gates the same
    // invariant across window sizes and option sets.
    std::string ParityPath = Scratch + ".oocparity.v3trace";
    CorpusInfo ParityInfo;
    if (!streamOutOfCoreCorpus(ParityPath, 4u << 20, ParityInfo, Err)) {
      std::fprintf(stderr, "parity corpus write failed: %s\n", Err.c_str());
      return 1;
    }
    Expected<Trace> ParityOr = readTraceFile(ParityPath);
    if (!ParityOr) {
      std::fprintf(stderr, "parity corpus load failed: %s\n",
                   ParityOr.message().c_str());
      return 1;
    }
    const Trace &ParityTr = *ParityOr;
    DetectOptions ParityOpts;
    ParityOpts.PairMode = PairModeKind::AdjacentCrossThread;
    DetectResult Whole =
        detectUlcps(ParityTr, CsIndex::build(ParityTr), ParityOpts);
    WindowedRun Windowed;
    if (!runWindowedDetect(ParityPath, ParityOpts, Windowed, Err)) {
      std::fprintf(stderr, "parity windowed detection failed: %s\n",
                   Err.c_str());
      return 1;
    }
    OocParityOk = sameDetectResult(Whole, Windowed.Result);
    std::printf("  verdict parity vs whole-trace (%llu-section corpus): "
                "%s\n",
                static_cast<unsigned long long>(ParityInfo.Sections),
                OocParityOk ? "ok" : "MISMATCH");
    std::remove(OocPath.c_str());
    std::remove(ParityPath.c_str());
  }

  std::printf("building ~%.0f MB synthetic v3 trace...\n", SizeMb);
  Trace Tr = makeSyntheticTrace(static_cast<size_t>(SizeMb * 1e6));
  const size_t NumEvents = Tr.numEvents();
  if (!saveTrace(Tr, Scratch, Err, TraceFormat::V3)) {
    std::fprintf(stderr, "cannot write scratch trace: %s\n", Err.c_str());
    return 1;
  }
  Tr = Trace(); // The generator copy is done; keep peak memory low.

  // Warm the page cache so both paths read memory-resident bytes; the
  // comparison is copy-vs-no-copy, not disk speed.
  size_t FileBytes = readFileBytes(Scratch).size();
  std::printf("scratch file: %s (%zu bytes, %zu events)\n", Scratch.c_str(),
              FileBytes, NumEvents);

  PhaseTimes Stream, Mapped;
  Trace StreamTrace, MmapTrace;
  for (unsigned I = 0; I != Repeat; ++I) {
    double T0 = now();
    if (readFileBytes(Scratch).size() != FileBytes) {
      std::fprintf(stderr, "stream ingest failed\n");
      return 1;
    }
    double T1 = now();
    Stream.IngestSeconds += T1 - T0;

    T0 = now();
    MappedFile File;
    if (!File.open(Scratch, Err) || File.size() != FileBytes) {
      std::fprintf(stderr, "mmap ingest failed: %s\n", Err.c_str());
      return 1;
    }
    // mmap is lazy: fault every page into the address space so the
    // timed window measures actual data readiness, not just the
    // syscall — otherwise a regression that re-introduced a copy
    // somewhere could never move this metric.
    uint64_t Checksum = 0;
    for (size_t Off = 0; Off < File.size(); Off += 4096)
      Checksum += File.data()[Off];
    T1 = now();
    Mapped.IngestSeconds += T1 - T0;
    if (Checksum == uint64_t(-1)) // Defeat dead-code elimination.
      std::fprintf(stderr, "impossible checksum\n");
    File.close();

    T0 = now();
    {
      std::vector<uint8_t> Bytes = readFileBytes(Scratch);
      if (!parseTraceBuffer(Bytes.data(), Bytes.size(), StreamTrace, Err)) {
        std::fprintf(stderr, "stream load failed: %s\n", Err.c_str());
        return 1;
      }
    }
    T1 = now();
    Stream.TotalSeconds += T1 - T0;

    T0 = now();
    Expected<Trace> Loaded = readTraceFile(Scratch);
    if (!Loaded) {
      std::fprintf(stderr, "mmap load failed: %s\n",
                   Loaded.message().c_str());
      return 1;
    }
    MmapTrace = std::move(*Loaded);
    T1 = now();
    Mapped.TotalSeconds += T1 - T0;
  }
  Stream.IngestSeconds /= Repeat;
  Stream.TotalSeconds /= Repeat;
  Mapped.IngestSeconds /= Repeat;
  Mapped.TotalSeconds /= Repeat;

  // Both loaders must parse the same trace; speed with different
  // results would be meaningless.
  const std::vector<uint8_t> Reference = writeTraceV3(MmapTrace);
  if (writeTraceV3(StreamTrace) != Reference) {
    std::fprintf(stderr, "FATAL: mmap and stream loads diverged\n");
    return 1;
  }

  const double Mb = static_cast<double>(FileBytes) / 1e6;
  double IngestSpeedup = Mapped.IngestSeconds > 0.0
                             ? Stream.IngestSeconds / Mapped.IngestSeconds
                             : 0.0;
  double TotalSpeedup = Mapped.TotalSeconds > 0.0
                            ? Stream.TotalSeconds / Mapped.TotalSeconds
                            : 0.0;
  std::printf("trace ingest: %.1f MB v3, %u repeat(s), mmap %s\n", Mb,
              Repeat, MappedFile::supportsMapping() ? "native" : "fallback");
  std::printf("  %-8s ingest %9.3f ms (%8.0f MB/s)   end-to-end %9.3f ms\n",
              "stream", Stream.IngestSeconds * 1e3,
              Mb / std::max(Stream.IngestSeconds, 1e-9),
              Stream.TotalSeconds * 1e3);
  std::printf("  %-8s ingest %9.3f ms (%8.0f MB/s)   end-to-end %9.3f ms\n",
              "mmap", Mapped.IngestSeconds * 1e3,
              Mb / std::max(Mapped.IngestSeconds, 1e-9),
              Mapped.TotalSeconds * 1e3);
  std::printf("  zero-copy bytes-ready speedup: %.1fx, end-to-end: %.2fx, "
              "peak memory saved: %.1f MB\n",
              IngestSpeedup, TotalSpeedup, Mb);

  //===--------------------------------------------------------------------===//
  // Name-heavy corpus: owned-name parse time + dedup compares.
  //===--------------------------------------------------------------------===//

  std::string NamePath = Scratch + ".names";
  {
    Trace NameTrace = makeNameHeavyTrace(NumNames);
    std::string E;
    if (!saveTrace(NameTrace, NamePath, E, TraceFormat::V3)) {
      std::fprintf(stderr, "cannot write name-heavy trace: %s\n", E.c_str());
      return 1;
    }
  }
  MappedFile NameFile;
  if (!NameFile.open(NamePath, Err)) {
    std::fprintf(stderr, "cannot map name-heavy trace: %s\n", Err.c_str());
    return 1;
  }

  double OwnedSeconds = 0.0;
  Trace OwnedTrace;
  for (unsigned I = 0; I != Repeat; ++I) {
    double T0 = now();
    if (!parseTraceV3(NameFile.data(), NameFile.size(), OwnedTrace, Err)) {
      std::fprintf(stderr, "name-heavy parse failed: %s\n", Err.c_str());
      return 1;
    }
    OwnedSeconds += now() - T0;
  }
  OwnedSeconds /= Repeat;
  size_t NameBytes = 0;
  for (StringId Id = 0; Id != OwnedTrace.Names.size(); ++Id)
    NameBytes += OwnedTrace.Names.str(Id).size();

  // Dedup-compare microbenchmark: the detector/recorder dedup paths
  // used to compare names as strings; with the pool they compare ids.
  // Fixed-width names with a long shared prefix force the string
  // compare to walk ~40 bytes before differing — exactly the symbol-
  // table shape the pool was built for.
  const size_t NumLocks = OwnedTrace.Locks.size();
  std::vector<std::string> Materialized;
  Materialized.reserve(NumLocks);
  for (size_t I = 0; I != NumLocks; ++I)
    Materialized.push_back(
        std::string(OwnedTrace.lockName(static_cast<LockId>(I))));
  const size_t CompareIters = 4u * 1000u * 1000u;
  uint64_t StringMatches = 0, IdMatches = 0;
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  auto nextPair = [&X, NumLocks]() {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return std::pair<size_t, size_t>(static_cast<size_t>(X % NumLocks),
                                     static_cast<size_t>((X >> 24) %
                                                         NumLocks));
  };
  double T0 = now();
  for (size_t I = 0; I != CompareIters; ++I) {
    auto [A, B] = nextPair();
    StringMatches += Materialized[A] == Materialized[B];
  }
  double StringCompareSeconds = now() - T0;
  X = 0x9e3779b97f4a7c15ULL; // Same pair sequence for both sides.
  T0 = now();
  for (size_t I = 0; I != CompareIters; ++I) {
    auto [A, B] = nextPair();
    IdMatches +=
        OwnedTrace.Locks[A].Name == OwnedTrace.Locks[B].Name;
  }
  double IdCompareSeconds = now() - T0;
  if (StringMatches != IdMatches) {
    std::fprintf(stderr, "FATAL: string and id compares disagreed\n");
    return 1;
  }

  double CompareSpeedup =
      IdCompareSeconds > 0.0 ? StringCompareSeconds / IdCompareSeconds : 0.0;
  std::printf("name-heavy corpus: %zu locks + %zu sites, %zu name bytes, "
              "%zu byte file\n",
              NumLocks, OwnedTrace.Sites.size(), NameBytes,
              NameFile.size());
  std::printf("  parse owned %9.3f ms\n", OwnedSeconds * 1e3);
  std::printf("  name equality: string %9.3f ms   pooled-id %9.3f ms   "
              "(%.1fx, %zuM compares)\n",
              StringCompareSeconds * 1e3, IdCompareSeconds * 1e3,
              CompareSpeedup, CompareIters / 1000000);

  FILE *F = std::fopen(Out.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Out.c_str());
    return 1;
  }
  std::fprintf(F,
               "{\n"
               "  \"bench\": \"micro_trace_ingest\",\n"
               "  \"file_bytes\": %zu,\n"
               "  \"events\": %zu,\n"
               "  \"repeat\": %u,\n"
               "  \"mmap_native\": %s,\n"
               "  \"configs\": [\n",
               FileBytes, NumEvents, Repeat,
               MappedFile::supportsMapping() ? "true" : "false");
  std::fprintf(F,
               "    {\"name\": \"stream\", \"ingest_seconds\": %.6f, "
               "\"end_to_end_seconds\": %.6f, \"peak_extra_bytes\": %zu},\n",
               Stream.IngestSeconds, Stream.TotalSeconds, FileBytes);
  std::fprintf(F,
               "    {\"name\": \"mmap\", \"ingest_seconds\": %.6f, "
               "\"end_to_end_seconds\": %.6f, \"peak_extra_bytes\": 0, "
               "\"ingest_speedup\": %.3f, \"end_to_end_speedup\": %.3f}\n",
               Mapped.IngestSeconds, Mapped.TotalSeconds, IngestSpeedup,
               TotalSpeedup);
  std::fprintf(F, "  ],\n");
  std::fprintf(F,
               "  \"out_of_core\": {\n"
               "    \"ran\": %s,\n"
               "    \"file_bytes\": %llu,\n"
               "    \"sections\": %llu,\n"
               "    \"signatures\": %u,\n"
               "    \"detect_seconds\": %.6f,\n"
               "    \"windowed_peak_rss_bytes\": %llu,\n"
               "    \"windowed_peak_rss_ratio\": %.4f,\n"
               "    \"parity_ok\": %s\n"
               "  },\n",
               OutOfCore ? "true" : "false",
               static_cast<unsigned long long>(Ooc.FileBytes),
               static_cast<unsigned long long>(Ooc.Sections),
               OocRun.Signatures, OocDetectSeconds,
               static_cast<unsigned long long>(OocPeakRss), OocRssRatio,
               OocParityOk ? "true" : "false");
  std::fprintf(F,
               "  \"name_heavy\": {\n"
               "    \"locks\": %zu,\n"
               "    \"sites\": %zu,\n"
               "    \"name_bytes\": %zu,\n"
               "    \"file_bytes\": %zu,\n"
               "    \"owned_parse_seconds\": %.6f,\n"
               "    \"string_compare_seconds\": %.6f,\n"
               "    \"id_compare_seconds\": %.6f,\n"
               "    \"dedup_compare_speedup\": %.3f\n"
               "  }\n}\n",
               NumLocks, OwnedTrace.Sites.size(), NameBytes,
               NameFile.size(), OwnedSeconds, StringCompareSeconds, IdCompareSeconds, CompareSpeedup);
  std::fclose(F);
  std::printf("wrote %s\n", Out.c_str());

  NameFile.close();
  std::remove(Scratch.c_str());
  std::remove(NamePath.c_str());
  // Gates: the mmap bytes-ready win must hold, and the out-of-core run
  // (when requested) must stay under a quarter of the file's size with
  // whole-trace-identical verdicts.
  int Status = 0;
  if (IngestSpeedup < 2.0 && MappedFile::supportsMapping()) {
    std::fprintf(stderr, "FAIL: mmap ingest speedup %.2fx < 2.0x\n",
                 IngestSpeedup);
    Status = 1;
  }
  if (OutOfCore) {
    if (!OocParityOk) {
      std::fprintf(stderr, "FAIL: windowed verdicts diverged from "
                           "whole-trace detection\n");
      Status = 1;
    }
    if (OocPeakRss != 0 && OocRssRatio > 0.25) {
      std::fprintf(stderr,
                   "FAIL: windowed peak RSS ratio %.3f > 0.25 "
                   "(%llu bytes over a %llu byte file)\n",
                   OocRssRatio,
                   static_cast<unsigned long long>(OocPeakRss),
                   static_cast<unsigned long long>(Ooc.FileBytes));
      Status = 1;
    }
  }
  return Status;
}
