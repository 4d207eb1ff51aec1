//===- trace/TraceV3.cpp - Chunked binary trace format v3 ------------------===//
//
// On-disk layout (normative spec: docs/TRACE_FORMAT.md):
//
//   [0, 8)                 head magic "PFPLTRC3"
//   [8, SideOff)           chunks, back to back
//   [SideOff, DirOff)      remainder lock/site entries + side tables
//   [DirOff, Size - 48)    chunk directory (40 bytes per chunk)
//   [Size - 48, Size)      footer, ending in "PFPLEND3" (minor 3.0,
//                          mutex-only vocabulary) or "PFPLEN31"
//                          (minor 3.1, rwlock/trylock/condvar kinds)
//
// Every count is validated against the byte budget that must contain
// it before any container is sized, so a forged header cannot drive
// an allocation beyond the file's own size; varints are capped at 10 bytes, and the directory is
// cross-checked against the decoded streams (event counts, acquire
// counts, first/last timestamps), which is what makes it trustworthy
// enough to drive the full loader's span layout and the O(threads)
// critical-section index installation.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceV3.h"

#include "support/MappedFile.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

using namespace perfplay;

static const char V3Magic[8] = {'P', 'F', 'P', 'L', 'T', 'R', 'C', '3'};
static const char V3EndMagic[8] = {'P', 'F', 'P', 'L', 'E', 'N', 'D', '3'};
/// End magic of minor version 3.1, which extends the event vocabulary
/// with rwlock/trylock/condvar kinds.  The writer emits it only when
/// such an event actually appears, so mutex-only traces stay
/// byte-identical to 3.0 and remain readable by 3.0-only consumers.
static const char V3EndMagicV31[8] = {'P', 'F', 'P', 'L', 'E', 'N', '3', '1'};

static constexpr size_t V3FooterSize = 48;
static constexpr size_t V3DirEntrySize = 40;
static constexpr size_t V3ChunkHeaderSize = 36;
/// Minimum encoded size of a lock delta/remainder entry: u32 id +
/// u8 spin + u32 name length.
static constexpr size_t V3LockEntryMin = 9;
/// Minimum encoded size of a site entry: u32 id + two u32 lines + two
/// u32 string lengths.
static constexpr size_t V3SiteEntryMin = 20;

bool perfplay::hasTraceV3Magic(const uint8_t *Data, size_t Size) {
  return Size >= sizeof(V3Magic) &&
         std::memcmp(Data, V3Magic, sizeof(V3Magic)) == 0;
}

//===----------------------------------------------------------------------===//
// Primitive codecs
//===----------------------------------------------------------------------===//

namespace {

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putStr(std::vector<uint8_t> &Out, std::string_view S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

/// LEB128 unsigned varint; at most 10 bytes for a full uint64_t.
void putUvarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

/// Zigzag maps small signed deltas to small unsigned varints.
uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t zigzagDecode(uint64_t V) {
  return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
}

/// Id coding for the event stream: InvalidId becomes 0 so the common
/// "no lockset" case costs one byte; real ids shift up by one.
uint64_t uid(uint32_t Id) {
  return Id == InvalidId ? 0 : static_cast<uint64_t>(Id) + 1;
}

enum class VarintStatus { Ok, Truncated, Overrun };

/// Bounds-checked little-endian cursor over a borrowed byte range
/// (typically a read-only file mapping), with LEB128 varints.
class V3Cursor {
public:
  V3Cursor(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  size_t remaining() const { return Size - Pos; }
  size_t pos() const { return Pos; }

  /// True when a table of \p N entries, each at least \p MinEntryBytes
  /// on disk, can still fit in the unread suffix — the guard run
  /// before trusting any on-disk count.
  bool countFits(uint64_t N, size_t MinEntryBytes) const {
    return N <= remaining() / MinEntryBytes;
  }

  bool u8(uint8_t &V) {
    if (remaining() < 1)
      return false;
    V = Data[Pos++];
    return true;
  }
  bool u32(uint32_t &V) {
    if (remaining() < 4)
      return false;
    V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  bool u64(uint64_t &V) {
    if (remaining() < 8)
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  bool str(std::string_view &S) {
    uint32_t Len;
    if (!u32(Len) || Len > remaining())
      return false;
    S = std::string_view(reinterpret_cast<const char *>(Data) + Pos, Len);
    Pos += Len;
    return true;
  }

  /// Decodes one LEB128 varint, refusing to read past the range or
  /// past the 10-byte cap (a hostile run of continuation bytes must
  /// fail as an overrun, not spin or overflow).
  VarintStatus uvarint(uint64_t &V) {
    V = 0;
    unsigned Shift = 0;
    for (unsigned I = 0; I != 10; ++I) {
      if (remaining() == 0)
        return VarintStatus::Truncated;
      uint8_t B = Data[Pos++];
      if (I == 9 && B > 1)
        return VarintStatus::Overrun; // 10th byte holds only bit 63.
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return VarintStatus::Ok;
      Shift += 7;
    }
    return VarintStatus::Overrun;
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Shared on-disk structures
//===----------------------------------------------------------------------===//

struct V3Footer {
  uint64_t SideOff = 0;
  uint64_t DirOff = 0;
  uint32_t NumChunks = 0;
  uint32_t NumThreads = 0;
  uint32_t NumLocks = 0;
  uint32_t NumSites = 0;
  uint64_t TotalEvents = 0;
  /// Minor format version, selected by the end magic: 0 for the
  /// original mutex-only vocabulary, 1 when rwlock/trylock/condvar
  /// kinds may appear in the event streams.
  uint8_t Minor = 0;
};

struct V3DirEntry {
  uint64_t Offset = 0;
  uint32_t ByteSize = 0;
  uint32_t Thread = 0;
  uint32_t EventCount = 0;
  uint32_t AcquireCount = 0;
  uint64_t FirstTs = 0;
  uint64_t LastTs = 0;
};

struct V3ChunkHeader {
  uint32_t Thread = 0;
  uint32_t EventCount = 0;
  uint64_t FirstTs = 0;
  uint64_t LastTs = 0;
  uint32_t NewLocks = 0;
  uint32_t NewSites = 0;
  uint32_t EventBytes = 0;
};

/// Directory-derived aggregates: exact per-thread event/acquire totals
/// and each chunk's start index inside its thread's final event
/// vector.  Cheap (O(chunks)) and — because the decoders re-verify
/// every entry against the actual stream — trustworthy enough to size
/// spans and install the critical-section index without rescans.
struct V3DirStats {
  std::vector<uint64_t> PerThreadEvents;
  std::vector<uint64_t> PerThreadAcquires;
  std::vector<uint64_t> SpanStart;
};

bool parseFooter(const uint8_t *FooterBytes, uint64_t FileSize,
                 V3Footer &F, std::string &Err) {
  V3Cursor C(FooterBytes, V3FooterSize);
  C.u64(F.SideOff);
  C.u64(F.DirOff);
  C.u32(F.NumChunks);
  C.u32(F.NumThreads);
  C.u32(F.NumLocks);
  C.u32(F.NumSites);
  C.u64(F.TotalEvents);
  const uint8_t *EndMagic =
      FooterBytes + V3FooterSize - sizeof(V3EndMagic);
  if (std::memcmp(EndMagic, V3EndMagic, sizeof(V3EndMagic)) == 0) {
    F.Minor = 0;
  } else if (std::memcmp(EndMagic, V3EndMagicV31,
                         sizeof(V3EndMagicV31)) == 0) {
    F.Minor = 1;
  } else {
    Err = "bad v3 footer magic";
    return false;
  }
  const uint64_t DirEnd = FileSize - V3FooterSize;
  if (F.SideOff < sizeof(V3Magic) || F.SideOff > F.DirOff ||
      F.DirOff > DirEnd) {
    Err = "bad v3 section offsets";
    return false;
  }
  if (DirEnd - F.DirOff !=
      static_cast<uint64_t>(F.NumChunks) * V3DirEntrySize) {
    Err = "bad v3 directory offset";
    return false;
  }
  // A valid thread owns at least one chunk (its stream holds at least
  // ThreadStart/ThreadEnd), so the chunk count — itself pinned to the
  // directory's real byte size above — bounds the thread count; a
  // forged thread count must not size the thread table.
  if (F.NumThreads > F.NumChunks && F.NumThreads != 0) {
    Err = "thread count exceeds chunk count";
    return false;
  }
  // Each lock/site definition occupies its minimum entry size
  // somewhere in the file; each event occupies at least its kind tag.
  if (F.NumLocks > FileSize / V3LockEntryMin) {
    Err = "lock table count exceeds file size";
    return false;
  }
  if (F.NumSites > FileSize / V3SiteEntryMin) {
    Err = "site table count exceeds file size";
    return false;
  }
  if (F.TotalEvents > FileSize) {
    Err = "event count exceeds file size";
    return false;
  }
  return true;
}

bool parseDirectory(const uint8_t *DirBytes, const V3Footer &F,
                    std::vector<V3DirEntry> &Out, V3DirStats &Stats,
                    std::string &Err) {
  Out.clear();
  Out.reserve(F.NumChunks);
  Stats.PerThreadEvents.assign(F.NumThreads, 0);
  Stats.PerThreadAcquires.assign(F.NumThreads, 0);
  Stats.SpanStart.assign(F.NumChunks, 0);
  std::vector<uint64_t> ThreadTs(F.NumThreads, 0);
  V3Cursor C(DirBytes,
             static_cast<size_t>(F.NumChunks) * V3DirEntrySize);
  uint64_t TotalEvents = 0;
  for (uint32_t I = 0; I != F.NumChunks; ++I) {
    V3DirEntry E;
    C.u64(E.Offset);
    C.u32(E.ByteSize);
    C.u32(E.Thread);
    C.u32(E.EventCount);
    C.u32(E.AcquireCount);
    C.u64(E.FirstTs);
    C.u64(E.LastTs);
    std::string Where = "chunk " + std::to_string(I) + ": ";
    if (E.Offset < sizeof(V3Magic) || E.ByteSize < V3ChunkHeaderSize ||
        E.Offset + E.ByteSize < E.Offset ||
        E.Offset + E.ByteSize > F.SideOff) {
      Err = Where + "directory entry out of bounds";
      return false;
    }
    if (E.Thread >= F.NumThreads) {
      Err = Where + "directory thread out of range";
      return false;
    }
    // Every event costs at least its one-byte kind tag inside the
    // chunk, so a per-chunk count beyond the chunk's byte size is
    // forged — reject before it can size any span.
    if (E.EventCount > E.ByteSize) {
      Err = Where + "event count exceeds chunk size";
      return false;
    }
    if (E.AcquireCount > E.EventCount) {
      Err = Where + "acquire count exceeds event count";
      return false;
    }
    if (E.FirstTs != ThreadTs[E.Thread] || E.LastTs < E.FirstTs) {
      Err = Where + "timestamp discontinuity in directory";
      return false;
    }
    ThreadTs[E.Thread] = E.LastTs;
    Stats.SpanStart[I] = Stats.PerThreadEvents[E.Thread];
    Stats.PerThreadEvents[E.Thread] += E.EventCount;
    Stats.PerThreadAcquires[E.Thread] += E.AcquireCount;
    TotalEvents += E.EventCount;
    Out.push_back(E);
  }
  if (TotalEvents != F.TotalEvents) {
    Err = "directory event total disagrees with footer";
    return false;
  }
  return true;
}

bool readChunkHeader(V3Cursor &C, V3ChunkHeader &H, std::string &Err) {
  if (!C.u32(H.Thread) || !C.u32(H.EventCount) || !C.u64(H.FirstTs) ||
      !C.u64(H.LastTs) || !C.u32(H.NewLocks) || !C.u32(H.NewSites) ||
      !C.u32(H.EventBytes)) {
    Err = "truncated chunk header";
    return false;
  }
  return true;
}

bool headerMatchesDirectory(const V3ChunkHeader &H, const V3DirEntry &D) {
  return H.Thread == D.Thread && H.EventCount == D.EventCount &&
         H.FirstTs == D.FirstTs && H.LastTs == D.LastTs;
}

} // namespace

/// Shared table state the chunk deltas and remainder entries fill in.
struct perfplay::detail::V3TableState {
  Trace *Tr = nullptr;
  std::vector<uint8_t> LockDefined;
  std::vector<uint8_t> SiteDefined;
  uint32_t LocksDefined = 0;
  uint32_t SitesDefined = 0;

  bool defineLock(uint32_t Id, uint8_t Spin, std::string_view Name,
                  std::string &Err) {
    if (Id >= Tr->Locks.size()) {
      Err = "lock definition id out of range";
      return false;
    }
    if (LockDefined[Id]) {
      Err = "duplicate lock definition";
      return false;
    }
    LockDefined[Id] = 1;
    ++LocksDefined;
    Tr->Locks[Id].IsSpin = Spin != 0;
    Tr->Locks[Id].Name = Tr->Names.intern(Name);
    return true;
  }

  bool defineSite(uint32_t Id, uint32_t Begin, uint32_t End,
                  std::string_view File, std::string_view Function,
                  std::string &Err) {
    if (Id >= Tr->Sites.size()) {
      Err = "site definition id out of range";
      return false;
    }
    if (SiteDefined[Id]) {
      Err = "duplicate site definition";
      return false;
    }
    SiteDefined[Id] = 1;
    ++SitesDefined;
    Tr->Sites[Id].BeginLine = Begin;
    Tr->Sites[Id].EndLine = End;
    Tr->Sites[Id].File = Tr->Names.intern(File);
    Tr->Sites[Id].Function = Tr->Names.intern(Function);
    return true;
  }
};

namespace {

/// Parses one chunk's string-table delta entries.  With \p Apply false
/// the entries are walked (and bounds-checked) but not re-defined —
/// WindowedReader::rewind() replays chunks whose deltas were already
/// digested.
bool applyChunkDeltas(V3Cursor &C, const V3ChunkHeader &H,
                      detail::V3TableState &Tables, bool Apply,
                      std::string &Err) {
  if (!C.countFits(H.NewLocks, V3LockEntryMin)) {
    Err = "lock delta count exceeds chunk size";
    return false;
  }
  for (uint32_t I = 0; I != H.NewLocks; ++I) {
    uint32_t Id;
    uint8_t Spin;
    std::string_view Name;
    if (!C.u32(Id) || !C.u8(Spin) || !C.str(Name)) {
      Err = "truncated lock delta";
      return false;
    }
    if (Apply && !Tables.defineLock(Id, Spin, Name, Err))
      return false;
  }
  if (!C.countFits(H.NewSites, V3SiteEntryMin)) {
    Err = "site delta count exceeds chunk size";
    return false;
  }
  for (uint32_t I = 0; I != H.NewSites; ++I) {
    uint32_t Id, Begin, End;
    std::string_view File, Function;
    if (!C.u32(Id) || !C.u32(Begin) || !C.u32(End) || !C.str(File) ||
        !C.str(Function)) {
      Err = "truncated site delta";
      return false;
    }
    if (Apply && !Tables.defineSite(Id, Begin, End, File, Function, Err))
      return false;
  }
  return true;
}

/// Decodes \p H.EventCount delta-varint events from exactly
/// \p H.EventBytes bytes into \p Out (caller-sized to EventCount).
/// Re-derives the chunk's last timestamp and acquire count from the
/// stream and refuses any disagreement with the header/directory —
/// the verification that lets the directory stand in for an O(events)
/// rescan elsewhere.
bool decodeEventStream(const uint8_t *Bytes, size_t Size,
                       const V3ChunkHeader &H, uint32_t ExpectedAcquires,
                       uint8_t Minor, Event *Out, std::string &Err) {
  V3Cursor C(Bytes, Size);
  // 3.0 streams carry only the original mutex vocabulary; the extended
  // kinds are legal input iff the footer declared minor version 1.
  const uint8_t MaxKind = static_cast<uint8_t>(
      Minor == 0 ? EventKind::Compute : EventKind::CondBroadcast);
  uint64_t Ts = H.FirstTs;
  uint64_t PrevAddr = 0;
  uint32_t Acquires = 0;
  auto varint = [&](uint64_t &V, const char *What) {
    switch (C.uvarint(V)) {
    case VarintStatus::Ok:
      return true;
    case VarintStatus::Truncated:
      Err = std::string("truncated ") + What;
      return false;
    case VarintStatus::Overrun:
      Err = std::string("varint overrun in ") + What;
      return false;
    }
    return false;
  };
  auto eventId = [&](uint32_t &Id, const char *What) {
    uint64_t V;
    if (!varint(V, What))
      return false;
    if (V > 0x100000000ull) {
      Err = std::string("event id out of range in ") + What;
      return false;
    }
    Id = V == 0 ? InvalidId : static_cast<uint32_t>(V - 1);
    return true;
  };
  auto addr = [&](uint64_t &A, const char *What) {
    uint64_t Z;
    if (!varint(Z, What))
      return false;
    A = PrevAddr + static_cast<uint64_t>(zigzagDecode(Z));
    PrevAddr = A;
    return true;
  };

  for (uint32_t I = 0; I != H.EventCount; ++I) {
    uint8_t KindByte;
    if (!C.u8(KindByte)) {
      Err = "truncated event";
      return false;
    }
    if (KindByte > MaxKind) {
      Err = "unknown event kind";
      return false;
    }
    // Each event is built by its kind's named constructor, which also
    // fixes the header (a rwlock acquire's mode, a write's operator).
    const EventKind Kind = static_cast<EventKind>(KindByte);
    uint32_t Lock = InvalidId, Site = InvalidId, Lockset = InvalidId;
    uint64_t Addr = 0, Value = 0;
    switch (Kind) {
    case EventKind::ThreadStart:
      Out[I] = Event::threadStart();
      break;
    case EventKind::ThreadEnd:
      Out[I] = Event::threadEnd();
      break;
    case EventKind::LockAcquire:
      if (!eventId(Lock, "acquire") || !eventId(Site, "acquire") ||
          !eventId(Lockset, "acquire"))
        return false;
      Out[I] = Event::lockAcquire(Lock, Site, Lockset);
      ++Acquires;
      break;
    case EventKind::LockRelease:
      if (!eventId(Lock, "release"))
        return false;
      Out[I] = Event::lockRelease(Lock);
      break;
    case EventKind::Read:
      if (!addr(Addr, "read") || !varint(Value, "read"))
        return false;
      Out[I] = Event::read(Addr, Value);
      break;
    case EventKind::Write: {
      uint8_t Op;
      if (!addr(Addr, "write") || !varint(Value, "write") || !C.u8(Op)) {
        Err = "truncated write";
        return false;
      }
      if (Op > static_cast<uint8_t>(WriteOpKind::Xor)) {
        Err = "unknown write op";
        return false;
      }
      Out[I] = Event::write(Addr, Value, static_cast<WriteOpKind>(Op));
      break;
    }
    case EventKind::Compute: {
      uint64_t Cost;
      if (!varint(Cost, "compute"))
        return false;
      Ts += Cost;
      Out[I] = Event::compute(Cost);
      break;
    }
    case EventKind::RwAcquireRead:
    case EventKind::RwAcquireWrite:
      if (!eventId(Lock, "rwlock acquire") ||
          !eventId(Site, "rwlock acquire") ||
          !eventId(Lockset, "rwlock acquire"))
        return false;
      Out[I] = Kind == EventKind::RwAcquireRead
                   ? Event::rwAcquireRead(Lock, Site, Lockset)
                   : Event::rwAcquireWrite(Lock, Site, Lockset);
      ++Acquires;
      break;
    case EventKind::TryAcquire: {
      uint8_t Mode, Ok;
      if (!eventId(Lock, "trylock") || !eventId(Site, "trylock") ||
          !eventId(Lockset, "trylock"))
        return false;
      if (!C.u8(Mode) || !C.u8(Ok)) {
        Err = "truncated trylock";
        return false;
      }
      if (Mode > static_cast<uint8_t>(AcquireMode::Shared)) {
        Err = "unknown acquire mode";
        return false;
      }
      if (Ok > 1) {
        Err = "bad trylock flag";
        return false;
      }
      Out[I] = Event::tryAcquire(Lock, Site, Ok != 0,
                                 static_cast<AcquireMode>(Mode), Lockset);
      // Only a successful try opens a critical section, so only it
      // participates in the directory's acquire accounting.
      if (Ok != 0)
        ++Acquires;
      break;
    }
    case EventKind::CondWait:
      if (!eventId(Lock, "condition wait") ||
          !eventId(Site, "condition wait"))
        return false;
      Out[I] = Event::condWait(Lock, Site);
      break;
    case EventKind::CondSignal:
    case EventKind::CondBroadcast:
      if (!eventId(Lock, "condition signal"))
        return false;
      Out[I] = Kind == EventKind::CondSignal ? Event::condSignal(Lock)
                                             : Event::condBroadcast(Lock);
      break;
    }
  }
  if (C.remaining() != 0) {
    Err = "chunk event stream size mismatch";
    return false;
  }
  if (Ts != H.LastTs) {
    Err = "chunk timestamp disagrees with header";
    return false;
  }
  if (Acquires != ExpectedAcquires) {
    Err = "chunk acquire count disagrees with directory";
    return false;
  }
  return true;
}

/// Parses the side-table section: remainder lock/site entries, then
/// the transformed-trace tables (locksets, constraints, schedule).
bool parseSideTables(V3Cursor &C, detail::V3TableState &Tables,
                     std::string &Err) {
  Trace &Tr = *Tables.Tr;
  uint32_t N;

  if (!C.u32(N)) {
    Err = "truncated remainder lock table";
    return false;
  }
  if (!C.countFits(N, V3LockEntryMin)) {
    Err = "remainder lock count exceeds file size";
    return false;
  }
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t Id;
    uint8_t Spin;
    std::string_view Name;
    if (!C.u32(Id) || !C.u8(Spin) || !C.str(Name)) {
      Err = "truncated remainder lock";
      return false;
    }
    if (!Tables.defineLock(Id, Spin, Name, Err))
      return false;
  }

  if (!C.u32(N)) {
    Err = "truncated remainder site table";
    return false;
  }
  if (!C.countFits(N, V3SiteEntryMin)) {
    Err = "remainder site count exceeds file size";
    return false;
  }
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t Id, Begin, End;
    std::string_view File, Function;
    if (!C.u32(Id) || !C.u32(Begin) || !C.u32(End) || !C.str(File) ||
        !C.str(Function)) {
      Err = "truncated remainder site";
      return false;
    }
    if (!Tables.defineSite(Id, Begin, End, File, Function, Err))
      return false;
  }

  if (!C.u32(N)) {
    Err = "truncated lockset table";
    return false;
  }
  if (!C.countFits(N, 4)) {
    Err = "lockset table count exceeds file size";
    return false;
  }
  Tr.Locksets.reserve(N, 0);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t K;
    if (!C.u32(K)) {
      Err = "truncated lockset";
      return false;
    }
    if (!C.countFits(K, 8)) {
      Err = "lockset entry count exceeds file size";
      return false;
    }
    for (uint32_t J = 0; J != K; ++J) {
      LocksetEntry E;
      if (!C.u32(E.Lock) || !C.u32(E.SourceCs)) {
        Err = "truncated lockset entry";
        return false;
      }
      Tr.Locksets.addEntry(E);
    }
    Tr.Locksets.closeLockset();
  }

  if (!C.u32(N)) {
    Err = "truncated constraint table";
    return false;
  }
  if (!C.countFits(N, 8)) {
    Err = "constraint table count exceeds file size";
    return false;
  }
  Tr.Constraints.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    OrderConstraint OC;
    if (!C.u32(OC.Before) || !C.u32(OC.After)) {
      Err = "truncated constraint";
      return false;
    }
    Tr.Constraints.push_back(OC);
  }

  if (!C.u32(N)) {
    Err = "truncated schedule";
    return false;
  }
  if (!C.countFits(N, 4)) {
    Err = "schedule count exceeds file size";
    return false;
  }
  Tr.LockSchedule.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t K;
    if (!C.u32(K)) {
      Err = "truncated schedule order";
      return false;
    }
    if (!C.countFits(K, 8)) {
      Err = "schedule entry count exceeds file size";
      return false;
    }
    Tr.LockSchedule[I].reserve(K);
    for (uint32_t J = 0; J != K; ++J) {
      CsRef Ref;
      if (!C.u32(Ref.Thread) || !C.u32(Ref.Index)) {
        Err = "truncated schedule entry";
        return false;
      }
      Tr.LockSchedule[I].push_back(Ref);
    }
  }

  if (C.remaining() != 0) {
    Err = "trailing bytes in side-table section";
    return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceV3Writer
//===----------------------------------------------------------------------===//

TraceV3Writer::TraceV3Writer(Sink OutSink, size_t TargetBytes)
    : Out(std::move(OutSink)),
      TargetChunkBytes(std::max<size_t>(TargetBytes, 1024)) {
  write(V3Magic, sizeof(V3Magic));
}

bool TraceV3Writer::write(const void *Data, size_t Size) {
  if (SinkFailed)
    return false;
  if (!Out(Data, Size)) {
    SinkFailed = true;
    return false;
  }
  Offset += Size;
  return true;
}

uint32_t TraceV3Writer::addLock(bool IsSpin, std::string_view Name) {
  Locks.push_back(PendingLock{IsSpin, std::string(Name), false});
  return static_cast<uint32_t>(Locks.size() - 1);
}

uint32_t TraceV3Writer::addSite(uint32_t BeginLine, uint32_t EndLine,
                                std::string_view File,
                                std::string_view Function) {
  Sites.push_back(PendingSite{BeginLine, EndLine, std::string(File),
                              std::string(Function), false});
  return static_cast<uint32_t>(Sites.size() - 1);
}

void TraceV3Writer::setSideTables(
    const LocksetTable &TheLocksets,
    const std::vector<OrderConstraint> &TheConstraints,
    const std::vector<std::vector<CsRef>> &TheSchedule) {
  Locksets = TheLocksets;
  Constraints = TheConstraints;
  Schedule = TheSchedule;
}

void TraceV3Writer::setNumThreads(uint32_t N) {
  NumThreads = N;
  NumThreadsExplicit = true;
}

void TraceV3Writer::beginThread(uint32_t Thread) {
  if (ChunkOpen && CurThread != Thread)
    flushChunk();
  CurThread = Thread;
  if (!NumThreadsExplicit && Thread + 1 > NumThreads)
    NumThreads = Thread + 1;
  if (ThreadTs.size() <= Thread)
    ThreadTs.resize(Thread + 1, 0);
}

void TraceV3Writer::referenceLock(uint32_t Id) {
  if (Id < Locks.size() && !Locks[Id].Emitted) {
    Locks[Id].Emitted = true;
    CurNewLocks.push_back(Id);
  }
}

void TraceV3Writer::referenceSite(uint32_t Id) {
  if (Id < Sites.size() && !Sites[Id].Emitted) {
    Sites[Id].Emitted = true;
    CurNewSites.push_back(Id);
  }
}

void TraceV3Writer::append(const Event &E) {
  if (!ChunkOpen) {
    ChunkOpen = true;
    CurEvents.clear();
    CurNewLocks.clear();
    CurNewSites.clear();
    CurEventCount = 0;
    CurAcquireCount = 0;
    CurFirstTs = ThreadTs[CurThread];
    PrevAddr = 0;
  }
  CurEvents.push_back(static_cast<uint8_t>(E.Kind));
  switch (E.Kind) {
  case EventKind::ThreadStart:
  case EventKind::ThreadEnd:
    break;
  case EventKind::LockAcquire:
    referenceLock(E.lock());
    if (E.site() != InvalidId)
      referenceSite(E.site());
    putUvarint(CurEvents, uid(E.lock()));
    putUvarint(CurEvents, uid(E.site()));
    putUvarint(CurEvents, uid(E.lockset()));
    ++CurAcquireCount;
    break;
  case EventKind::LockRelease:
    referenceLock(E.lock());
    putUvarint(CurEvents, uid(E.lock()));
    break;
  case EventKind::Read:
    putUvarint(CurEvents,
               zigzagEncode(static_cast<int64_t>(E.addr() - PrevAddr)));
    PrevAddr = E.addr();
    putUvarint(CurEvents, E.value());
    break;
  case EventKind::Write:
    putUvarint(CurEvents,
               zigzagEncode(static_cast<int64_t>(E.addr() - PrevAddr)));
    PrevAddr = E.addr();
    putUvarint(CurEvents, E.value());
    CurEvents.push_back(static_cast<uint8_t>(E.Op));
    break;
  case EventKind::Compute:
    putUvarint(CurEvents, E.cost());
    ThreadTs[CurThread] += E.cost();
    break;
  case EventKind::RwAcquireRead:
  case EventKind::RwAcquireWrite:
    referenceLock(E.lock());
    if (E.site() != InvalidId)
      referenceSite(E.site());
    putUvarint(CurEvents, uid(E.lock()));
    putUvarint(CurEvents, uid(E.site()));
    putUvarint(CurEvents, uid(E.lockset()));
    ++CurAcquireCount;
    SawExtended = true;
    break;
  case EventKind::TryAcquire:
    referenceLock(E.lock());
    if (E.site() != InvalidId)
      referenceSite(E.site());
    putUvarint(CurEvents, uid(E.lock()));
    putUvarint(CurEvents, uid(E.site()));
    putUvarint(CurEvents, uid(E.lockset()));
    CurEvents.push_back(static_cast<uint8_t>(E.Mode));
    CurEvents.push_back(E.TrySucceeded ? 1 : 0);
    if (E.TrySucceeded)
      ++CurAcquireCount;
    SawExtended = true;
    break;
  case EventKind::CondWait:
    referenceLock(E.lock());
    if (E.site() != InvalidId)
      referenceSite(E.site());
    putUvarint(CurEvents, uid(E.lock()));
    putUvarint(CurEvents, uid(E.site()));
    SawExtended = true;
    break;
  case EventKind::CondSignal:
  case EventKind::CondBroadcast:
    referenceLock(E.lock());
    putUvarint(CurEvents, uid(E.lock()));
    SawExtended = true;
    break;
  }
  ++CurEventCount;
  if (CurEvents.size() >= TargetChunkBytes)
    flushChunk();
}

void TraceV3Writer::flushChunk() {
  if (!ChunkOpen)
    return;
  ChunkOpen = false;
  CurLastTs = ThreadTs[CurThread];

  std::vector<uint8_t> Chunk;
  Chunk.reserve(V3ChunkHeaderSize + CurEvents.size() + 64);
  putU32(Chunk, CurThread);
  putU32(Chunk, CurEventCount);
  putU64(Chunk, CurFirstTs);
  putU64(Chunk, CurLastTs);
  putU32(Chunk, static_cast<uint32_t>(CurNewLocks.size()));
  putU32(Chunk, static_cast<uint32_t>(CurNewSites.size()));
  putU32(Chunk, static_cast<uint32_t>(CurEvents.size()));
  for (uint32_t Id : CurNewLocks) {
    putU32(Chunk, Id);
    Chunk.push_back(Locks[Id].IsSpin ? 1 : 0);
    putStr(Chunk, Locks[Id].Name);
  }
  for (uint32_t Id : CurNewSites) {
    putU32(Chunk, Id);
    putU32(Chunk, Sites[Id].BeginLine);
    putU32(Chunk, Sites[Id].EndLine);
    putStr(Chunk, Sites[Id].File);
    putStr(Chunk, Sites[Id].Function);
  }
  Chunk.insert(Chunk.end(), CurEvents.begin(), CurEvents.end());

  DirEntry D;
  D.Offset = Offset;
  D.ByteSize = static_cast<uint32_t>(Chunk.size());
  D.Thread = CurThread;
  D.EventCount = CurEventCount;
  D.AcquireCount = CurAcquireCount;
  D.FirstTs = CurFirstTs;
  D.LastTs = CurLastTs;
  Directory.push_back(D);
  TotalEvents += CurEventCount;
  write(Chunk.data(), Chunk.size());
}

bool TraceV3Writer::finish(std::string &Err) {
  flushChunk();

  const uint64_t SideOff = Offset;
  std::vector<uint8_t> Side;
  uint32_t RemLocks = 0, RemSites = 0;
  for (const PendingLock &L : Locks)
    RemLocks += L.Emitted ? 0 : 1;
  for (const PendingSite &S : Sites)
    RemSites += S.Emitted ? 0 : 1;
  putU32(Side, RemLocks);
  for (uint32_t Id = 0; Id != Locks.size(); ++Id) {
    if (Locks[Id].Emitted)
      continue;
    putU32(Side, Id);
    Side.push_back(Locks[Id].IsSpin ? 1 : 0);
    putStr(Side, Locks[Id].Name);
  }
  putU32(Side, RemSites);
  for (uint32_t Id = 0; Id != Sites.size(); ++Id) {
    if (Sites[Id].Emitted)
      continue;
    putU32(Side, Id);
    putU32(Side, Sites[Id].BeginLine);
    putU32(Side, Sites[Id].EndLine);
    putStr(Side, Sites[Id].File);
    putStr(Side, Sites[Id].Function);
  }
  putU32(Side, static_cast<uint32_t>(Locksets.size()));
  for (LocksetId I = 0; I != Locksets.size(); ++I) {
    Span<LocksetEntry> Entries = Locksets[I].Entries;
    putU32(Side, static_cast<uint32_t>(Entries.size()));
    for (const LocksetEntry &E : Entries) {
      putU32(Side, E.Lock);
      putU32(Side, E.SourceCs);
    }
  }
  putU32(Side, static_cast<uint32_t>(Constraints.size()));
  for (const OrderConstraint &C : Constraints) {
    putU32(Side, C.Before);
    putU32(Side, C.After);
  }
  putU32(Side, static_cast<uint32_t>(Schedule.size()));
  for (const auto &Order : Schedule) {
    putU32(Side, static_cast<uint32_t>(Order.size()));
    for (const CsRef &R : Order) {
      putU32(Side, R.Thread);
      putU32(Side, R.Index);
    }
  }
  write(Side.data(), Side.size());

  const uint64_t DirOff = Offset;
  std::vector<uint8_t> Dir;
  Dir.reserve(Directory.size() * V3DirEntrySize);
  for (const DirEntry &D : Directory) {
    putU64(Dir, D.Offset);
    putU32(Dir, D.ByteSize);
    putU32(Dir, D.Thread);
    putU32(Dir, D.EventCount);
    putU32(Dir, D.AcquireCount);
    putU64(Dir, D.FirstTs);
    putU64(Dir, D.LastTs);
  }
  write(Dir.data(), Dir.size());

  std::vector<uint8_t> Footer;
  Footer.reserve(V3FooterSize);
  putU64(Footer, SideOff);
  putU64(Footer, DirOff);
  putU32(Footer, static_cast<uint32_t>(Directory.size()));
  putU32(Footer, NumThreads);
  putU32(Footer, static_cast<uint32_t>(Locks.size()));
  putU32(Footer, static_cast<uint32_t>(Sites.size()));
  putU64(Footer, TotalEvents);
  // The end magic doubles as the minor-version tag: only a trace that
  // actually used the extended vocabulary claims 3.1, so mutex-only
  // output is byte-for-byte a 3.0 file.
  const char *EndMagic = SawExtended ? V3EndMagicV31 : V3EndMagic;
  Footer.insert(Footer.end(), EndMagic, EndMagic + sizeof(V3EndMagic));
  write(Footer.data(), Footer.size());

  if (SinkFailed) {
    Err = "trace sink write failed";
    return false;
  }
  return true;
}

/// Feeds all of \p Tr through \p W and finishes it.
static bool writeWholeTrace(TraceV3Writer &W, const Trace &Tr,
                            std::string &Err) {
  for (const LockInfo &L : Tr.Locks)
    W.addLock(L.IsSpin, Tr.Names.str(L.Name));
  for (const CodeSite &S : Tr.Sites)
    W.addSite(S.BeginLine, S.EndLine, Tr.Names.str(S.File),
              Tr.Names.str(S.Function));
  W.setSideTables(Tr.Locksets, Tr.Constraints, Tr.LockSchedule);
  W.setNumThreads(static_cast<uint32_t>(Tr.Threads.size()));
  for (uint32_t T = 0; T != Tr.Threads.size(); ++T) {
    W.beginThread(T);
    for (const Event &E : Tr.Threads[T].Events)
      W.append(E);
  }
  return W.finish(Err);
}

std::vector<uint8_t> perfplay::writeTraceV3(const Trace &Tr,
                                            size_t TargetChunkBytes) {
  std::vector<uint8_t> Bytes;
  TraceV3Writer W(
      [&](const void *Data, size_t Size) {
        const uint8_t *P = static_cast<const uint8_t *>(Data);
        Bytes.insert(Bytes.end(), P, P + Size);
        return true;
      },
      TargetChunkBytes);
  std::string Err;
  bool Ok = writeWholeTrace(W, Tr, Err);
  assert(Ok && "in-memory sink cannot fail");
  (void)Ok;
  return Bytes;
}

bool perfplay::saveTraceV3(const Trace &Tr, const std::string &Path,
                           std::string &Err, size_t TargetChunkBytes) {
  return replaceFileAtomically(
      Path, Err, [&](std::FILE *F, std::string &WriteErr) {
        TraceV3Writer W(
            [&](const void *Data, size_t Size) {
              return std::fwrite(Data, 1, Size, F) == Size;
            },
            TargetChunkBytes);
        return writeWholeTrace(W, Tr, WriteErr);
      });
}

//===----------------------------------------------------------------------===//
// parseTraceV3 — full load
//===----------------------------------------------------------------------===//

bool perfplay::parseTraceV3(const uint8_t *Data, size_t Size, Trace &Out,
                            std::string &Err) {
  Out = Trace();
  auto fail = [&](std::string Msg) {
    Err = std::move(Msg);
    return false;
  };

  if (!hasTraceV3Magic(Data, Size))
    return fail("not a perfplay v3 trace (bad magic)");
  if (Size < sizeof(V3Magic) + V3FooterSize)
    return fail("truncated v3 trace");

  V3Footer F;
  if (!parseFooter(Data + Size - V3FooterSize, Size, F, Err))
    return false;

  std::vector<V3DirEntry> Directory;
  V3DirStats Stats;
  if (!parseDirectory(Data + F.DirOff, F, Directory, Stats, Err))
    return false;

  detail::V3TableState Tables;
  Tables.Tr = &Out;
  Out.Locks.resize(F.NumLocks);
  Out.Sites.resize(F.NumSites);
  Tables.LockDefined.assign(F.NumLocks, 0);
  Tables.SiteDefined.assign(F.NumSites, 0);

  // Each thread's event vector is sized exactly from the directory, and
  // every chunk decodes into its own span of it.
  Out.Threads.resize(F.NumThreads);
  for (uint32_t T = 0; T != F.NumThreads; ++T)
    Out.Threads[T].Events.resize(Stats.PerThreadEvents[T]);

  // One pass over the chunks: header check, string-table deltas, then
  // the event stream.
  for (size_t I = 0; I != Directory.size(); ++I) {
    const V3DirEntry &D = Directory[I];
    auto chunkFail = [&] {
      return fail("chunk " + std::to_string(I) + ": " + Err);
    };
    V3Cursor C(Data + D.Offset, D.ByteSize);
    V3ChunkHeader H;
    if (!readChunkHeader(C, H, Err))
      return chunkFail();
    if (!headerMatchesDirectory(H, D)) {
      Err = "chunk header disagrees with directory";
      return chunkFail();
    }
    if (!applyChunkDeltas(C, H, Tables, /*Apply=*/true, Err))
      return chunkFail();
    if (C.remaining() != H.EventBytes) {
      Err = "chunk event stream size mismatch";
      return chunkFail();
    }
    Event *Span = Out.Threads[D.Thread].Events.data() + Stats.SpanStart[I];
    if (!decodeEventStream(Data + D.Offset + C.pos(), H.EventBytes, H,
                           D.AcquireCount, F.Minor, Span, Err))
      return chunkFail();
  }

  if (F.DirOff - F.SideOff > Size)
    return fail("bad v3 section offsets");
  V3Cursor SideCursor(Data + F.SideOff,
                      static_cast<size_t>(F.DirOff - F.SideOff));
  if (!parseSideTables(SideCursor, Tables, Err))
    return false;
  if (Tables.LocksDefined != F.NumLocks)
    return fail("missing lock definition");
  if (Tables.SitesDefined != F.NumSites)
    return fail("missing site definition");

  // Per-thread critical-section counts from the (decode-verified)
  // directory; global ids are u32, so the total must fit.
  uint64_t TotalAcquires = 0;
  std::vector<uint32_t> CsPerThread(F.NumThreads, 0);
  for (uint32_t T = 0; T != F.NumThreads; ++T) {
    TotalAcquires += Stats.PerThreadAcquires[T];
    if (Stats.PerThreadAcquires[T] > InvalidId)
      return fail("critical section count overflow");
    CsPerThread[T] = static_cast<uint32_t>(Stats.PerThreadAcquires[T]);
  }
  if (TotalAcquires > InvalidId)
    return fail("critical section count overflow");

  // The directory's acquire counts were just verified against every
  // decoded stream, so the index installs in O(threads) instead of
  // buildCsIndex()'s O(events) rescan.
  Out.installCsIndex(std::move(CsPerThread));
  std::string Invalid = Out.validate();
  if (!Invalid.empty())
    return fail("parsed trace fails validation: " + Invalid);
  return true;
}

//===----------------------------------------------------------------------===//
// WindowedReader — out-of-core streaming
//===----------------------------------------------------------------------===//

WindowedReader::WindowedReader() = default;

WindowedReader::~WindowedReader() { close(); }

void WindowedReader::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  Tables = Trace();
  Directory.clear();
  DeltasAppliedBelow = 0;
  NextChunk = 0;
  FooterNumThreads = 0;
  FooterTotalEvents = 0;
  FooterMinor = 0;
  ChunkBuf.clear();
  ChunkBuf.shrink_to_fit();
  ReaderTables.reset();
}

namespace {
/// Reads exactly [Off, Off + Len) from \p F into \p Buf.
bool readRange(std::FILE *F, uint64_t Off, size_t Len,
               std::vector<uint8_t> &Buf) {
  Buf.resize(Len);
  if (std::fseek(F, static_cast<long>(Off), SEEK_SET) != 0)
    return false;
  return Len == 0 || std::fread(Buf.data(), 1, Len, F) == Len;
}
} // namespace

bool WindowedReader::open(const std::string &Path, std::string &Err) {
  close();
  auto fail = [&](std::string Msg) {
    Err = std::move(Msg);
    close();
    return false;
  };

  File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return fail("cannot open '" + Path + "' for reading");
  if (std::fseek(File, 0, SEEK_END) != 0)
    return fail("cannot seek '" + Path + "'");
  long End = std::ftell(File);
  if (End < 0)
    return fail("cannot seek '" + Path + "'");
  FileSize = static_cast<uint64_t>(End);
  if (FileSize < sizeof(V3Magic) + V3FooterSize)
    return fail("truncated v3 trace");

  std::vector<uint8_t> Buf;
  if (!readRange(File, 0, sizeof(V3Magic), Buf))
    return fail("cannot read '" + Path + "'");
  if (!hasTraceV3Magic(Buf.data(), Buf.size()))
    return fail("not a perfplay v3 trace (bad magic)");

  V3Footer F;
  if (!readRange(File, FileSize - V3FooterSize, V3FooterSize, Buf))
    return fail("cannot read v3 footer");
  if (!parseFooter(Buf.data(), FileSize, F, Err)) {
    std::string Msg = Err;
    return fail(Msg);
  }
  FooterNumThreads = F.NumThreads;
  FooterTotalEvents = F.TotalEvents;
  FooterMinor = F.Minor;

  std::vector<V3DirEntry> Dir;
  V3DirStats Stats;
  if (!readRange(File, F.DirOff,
                 static_cast<size_t>(F.NumChunks) * V3DirEntrySize, Buf))
    return fail("cannot read v3 directory");
  if (!parseDirectory(Buf.data(), F, Dir, Stats, Err)) {
    std::string Msg = Err;
    return fail(Msg);
  }
  Directory.reserve(Dir.size());
  for (const V3DirEntry &E : Dir)
    Directory.push_back(DirEntry{E.Offset, E.ByteSize, E.Thread,
                                 E.EventCount, E.AcquireCount, E.FirstTs,
                                 E.LastTs});

  ReaderTables = std::make_unique<detail::V3TableState>();
  ReaderTables->Tr = &Tables;
  Tables.Locks.resize(F.NumLocks);
  Tables.Sites.resize(F.NumSites);
  ReaderTables->LockDefined.assign(F.NumLocks, 0);
  ReaderTables->SiteDefined.assign(F.NumSites, 0);

  if (!readRange(File, F.SideOff,
                 static_cast<size_t>(F.DirOff - F.SideOff), Buf))
    return fail("cannot read v3 side tables");
  V3Cursor SideCursor(Buf.data(), Buf.size());
  if (!parseSideTables(SideCursor, *ReaderTables, Err)) {
    std::string Msg = Err;
    return fail(Msg);
  }
  // The streaming consumer trusts the schedule's references before it
  // has seen every thread's stream; the directory's per-thread acquire
  // totals make the check possible up front.
  for (const auto &Order : Tables.LockSchedule)
    for (const CsRef &Ref : Order) {
      if (Ref.Thread >= F.NumThreads ||
          Ref.Index >= Stats.PerThreadAcquires[Ref.Thread])
        return fail("lock schedule references unknown critical section");
    }
  if (!Tables.LockSchedule.empty() &&
      Tables.LockSchedule.size() != Tables.Locks.size())
    return fail("lock schedule size does not match lock table");

  return true;
}

bool WindowedReader::next(Chunk &Buf, std::string &Err) {
  Err.clear();
  if (!File) {
    Err = "windowed reader is not open";
    return false;
  }
  if (NextChunk == Directory.size())
    return false;

  const size_t I = NextChunk;
  const DirEntry &D = Directory[I];
  std::string Where = "chunk " + std::to_string(I) + ": ";
  if (!readRange(File, D.Offset, D.ByteSize, ChunkBuf)) {
    Err = Where + "cannot read chunk";
    return false;
  }
  V3Cursor C(ChunkBuf.data(), ChunkBuf.size());
  V3ChunkHeader H;
  if (!readChunkHeader(C, H, Err)) {
    Err = Where + Err;
    return false;
  }
  V3DirEntry DE{D.Offset, D.ByteSize, D.Thread, D.EventCount,
                D.AcquireCount, D.FirstTs, D.LastTs};
  if (!headerMatchesDirectory(H, DE)) {
    Err = Where + "chunk header disagrees with directory";
    return false;
  }
  const bool Apply = I >= DeltasAppliedBelow;
  if (!applyChunkDeltas(C, H, *ReaderTables, Apply, Err)) {
    Err = Where + Err;
    return false;
  }
  if (Apply)
    DeltasAppliedBelow = I + 1;
  if (C.remaining() != H.EventBytes) {
    Err = Where + "chunk event stream size mismatch";
    return false;
  }

  Buf.Thread = H.Thread;
  Buf.FirstTs = H.FirstTs;
  Buf.LastTs = H.LastTs;
  Buf.Events.resize(H.EventCount);
  if (!decodeEventStream(ChunkBuf.data() + C.pos(), H.EventBytes, H,
                         D.AcquireCount, FooterMinor, Buf.Events.data(),
                         Err)) {
    Err = Where + Err;
    return false;
  }
  ++NextChunk;
  return true;
}
