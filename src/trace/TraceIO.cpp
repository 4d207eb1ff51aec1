//===- trace/TraceIO.cpp - Trace (de)serialization -------------------------===//

#include "trace/TraceIO.h"

#include "support/MappedFile.h"
#include "trace/TraceV3.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace perfplay;

//===----------------------------------------------------------------------===//
// Text format
//===----------------------------------------------------------------------===//

static const char *TextMagic = "perfplay-trace-v1";

/// Escapes whitespace and '%' so names and paths stay single tokens.
static std::string escapeToken(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == ' ')
      Out += "%20";
    else if (C == '\t')
      Out += "%09";
    else if (C == '\n')
      Out += "%0A";
    else if (C == '%')
      Out += "%25";
    else
      Out += C;
  }
  if (Out.empty())
    Out = "%00"; // Empty-string sentinel keeps token counts stable.
  return Out;
}

static int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

static std::string unescapeToken(const std::string &S) {
  if (S == "%00")
    return "";
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] == '%' && I + 2 < S.size()) {
      int Hi = hexDigit(S[I + 1]), Lo = hexDigit(S[I + 2]);
      if (Hi >= 0 && Lo >= 0) {
        Out += static_cast<char>(Hi * 16 + Lo);
        I += 2;
        continue;
      }
    }
    Out += S[I];
  }
  return Out;
}

std::string perfplay::writeTraceText(const Trace &Tr) {
  std::ostringstream OS;
  OS << TextMagic << "\n";

  OS << "locks " << Tr.Locks.size() << "\n";
  for (const auto &L : Tr.Locks)
    OS << "lock " << (L.IsSpin ? 1 : 0) << " "
       << escapeToken(Tr.Names.str(L.Name)) << "\n";

  OS << "sites " << Tr.Sites.size() << "\n";
  for (const auto &S : Tr.Sites)
    OS << "site " << S.BeginLine << " " << S.EndLine << " "
       << escapeToken(Tr.Names.str(S.File)) << " "
       << escapeToken(Tr.Names.str(S.Function)) << "\n";

  OS << "locksets " << Tr.Locksets.size() << "\n";
  for (LocksetId I = 0; I != Tr.Locksets.size(); ++I) {
    Span<LocksetEntry> Entries = Tr.Locksets[I].Entries;
    OS << "lockset " << Entries.size();
    for (const LocksetEntry &E : Entries)
      OS << " " << E.Lock << ":"
         << (E.SourceCs == InvalidId ? -1
                                     : static_cast<int64_t>(E.SourceCs));
    OS << "\n";
  }

  OS << "constraints " << Tr.Constraints.size() << "\n";
  for (const auto &C : Tr.Constraints)
    OS << "constraint " << C.Before << " " << C.After << "\n";

  OS << "schedule " << Tr.LockSchedule.size() << "\n";
  for (size_t L = 0; L != Tr.LockSchedule.size(); ++L) {
    OS << "sched " << L << " " << Tr.LockSchedule[L].size();
    for (const CsRef &R : Tr.LockSchedule[L])
      OS << " " << R.Thread << ":" << R.Index;
    OS << "\n";
  }

  OS << "threads " << Tr.Threads.size() << "\n";
  for (const auto &T : Tr.Threads) {
    OS << "thread " << T.Events.size() << "\n";
    for (const Event &E : T.Events) {
      switch (E.Kind) {
      case EventKind::ThreadStart:
        OS << "ts\n";
        break;
      case EventKind::ThreadEnd:
        OS << "te\n";
        break;
      case EventKind::LockAcquire:
        OS << "acq " << E.lock() << " "
           << (E.site() == InvalidId ? -1 : static_cast<int64_t>(E.site()))
           << " "
           << (E.lockset() == InvalidId ? -1
                                      : static_cast<int64_t>(E.lockset()))
           << "\n";
        break;
      case EventKind::LockRelease:
        OS << "rel " << E.lock() << "\n";
        break;
      case EventKind::Read:
        OS << "rd " << E.addr() << " " << E.value() << "\n";
        break;
      case EventKind::Write:
        OS << "wr " << E.addr() << " " << E.value() << " "
           << static_cast<unsigned>(E.Op) << "\n";
        break;
      case EventKind::Compute:
        OS << "comp " << E.cost() << "\n";
        break;
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
        OS << (E.Kind == EventKind::RwAcquireRead ? "rwa " : "rww ")
           << E.lock() << " "
           << (E.site() == InvalidId ? -1 : static_cast<int64_t>(E.site()))
           << " "
           << (E.lockset() == InvalidId ? -1
                                      : static_cast<int64_t>(E.lockset()))
           << "\n";
        break;
      case EventKind::TryAcquire:
        OS << "try " << E.lock() << " "
           << (E.site() == InvalidId ? -1 : static_cast<int64_t>(E.site()))
           << " "
           << (E.lockset() == InvalidId ? -1
                                      : static_cast<int64_t>(E.lockset()))
           << " " << static_cast<unsigned>(E.Mode) << " "
           << (E.TrySucceeded ? 1 : 0) << "\n";
        break;
      case EventKind::CondWait:
        OS << "cwait " << E.lock() << " "
           << (E.site() == InvalidId ? -1 : static_cast<int64_t>(E.site()))
           << "\n";
        break;
      case EventKind::CondSignal:
        OS << "csig " << E.lock() << "\n";
        break;
      case EventKind::CondBroadcast:
        OS << "cbro " << E.lock() << "\n";
        break;
      }
    }
  }
  OS << "end\n";
  return OS.str();
}

namespace {

/// Minimal line/token cursor over the text format.
class TextCursor {
public:
  explicit TextCursor(const std::string &Text) : In(Text) {}

  /// Reads the next non-empty line into the token stream.
  bool nextLine(std::string &Err) {
    std::string Line;
    while (std::getline(In, Line)) {
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      ++LineNo;
      Tokens.str(Line);
      Tokens.clear();
      return true;
    }
    Err = "unexpected end of trace text";
    return false;
  }

  bool word(std::string &Out, std::string &Err) {
    if (Tokens >> Out)
      return true;
    Err = "line " + std::to_string(LineNo) + ": missing token";
    return false;
  }

  bool expect(const char *Keyword, std::string &Err) {
    std::string W;
    if (!word(W, Err))
      return false;
    if (W != Keyword) {
      Err = "line " + std::to_string(LineNo) + ": expected '" + Keyword +
            "', got '" + W + "'";
      return false;
    }
    return true;
  }

  bool integer(int64_t &Out, std::string &Err) {
    std::string W;
    if (!word(W, Err))
      return false;
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(W.c_str(), &End, 10);
    if (End == W.c_str() || *End != '\0' || errno == ERANGE) {
      Err = "line " + std::to_string(LineNo) + ": bad integer '" + W + "'";
      return false;
    }
    Out = V;
    return true;
  }

  bool unsignedInt(uint64_t &Out, std::string &Err) {
    int64_t V;
    if (!integer(V, Err))
      return false;
    if (V < 0) {
      Err = "line " + std::to_string(LineNo) + ": negative count";
      return false;
    }
    Out = static_cast<uint64_t>(V);
    return true;
  }

  /// Parses "a:b" pairs where a,b may be -1 meaning InvalidId.
  bool idPair(uint32_t &A, uint32_t &B, std::string &Err) {
    std::string W;
    if (!word(W, Err))
      return false;
    size_t Colon = W.find(':');
    if (Colon == std::string::npos) {
      Err = "line " + std::to_string(LineNo) + ": expected 'a:b' pair";
      return false;
    }
    auto parseOne = [&](const std::string &S, uint32_t &Out) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(S.c_str(), &End, 10);
      if (End == S.c_str() || *End != '\0' || errno == ERANGE)
        return false;
      Out = V < 0 ? InvalidId : static_cast<uint32_t>(V);
      return true;
    };
    if (!parseOne(W.substr(0, Colon), A) ||
        !parseOne(W.substr(Colon + 1), B)) {
      Err = "line " + std::to_string(LineNo) + ": bad pair '" + W + "'";
      return false;
    }
    return true;
  }

  unsigned line() const { return LineNo; }

private:
  std::istringstream In;
  std::istringstream Tokens;
  unsigned LineNo = 0;
};

} // namespace

bool perfplay::parseTraceText(const std::string &Text, Trace &Out,
                              std::string &Err) {
  Out = Trace();
  TextCursor C(Text);

  if (!C.nextLine(Err))
    return false;
  std::string Magic;
  if (!C.word(Magic, Err))
    return false;
  if (Magic != TextMagic) {
    Err = "not a perfplay trace (bad magic '" + Magic + "')";
    return false;
  }

  uint64_t N;
  // Locks.
  if (!C.nextLine(Err) || !C.expect("locks", Err) || !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("lock", Err))
      return false;
    uint64_t Spin;
    std::string Name;
    if (!C.unsignedInt(Spin, Err) || !C.word(Name, Err))
      return false;
    LockInfo Info;
    Info.IsSpin = Spin != 0;
    Info.Name = Out.Names.intern(unescapeToken(Name));
    Out.Locks.push_back(Info);
  }

  // Sites.
  if (!C.nextLine(Err) || !C.expect("sites", Err) || !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("site", Err))
      return false;
    uint64_t Begin, End;
    std::string File, Function;
    if (!C.unsignedInt(Begin, Err) || !C.unsignedInt(End, Err) ||
        !C.word(File, Err) || !C.word(Function, Err))
      return false;
    CodeSite S;
    S.BeginLine = static_cast<uint32_t>(Begin);
    S.EndLine = static_cast<uint32_t>(End);
    S.File = Out.Names.intern(unescapeToken(File));
    S.Function = Out.Names.intern(unescapeToken(Function));
    Out.Sites.push_back(S);
  }

  // Locksets.
  if (!C.nextLine(Err) || !C.expect("locksets", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("lockset", Err))
      return false;
    uint64_t K;
    if (!C.unsignedInt(K, Err))
      return false;
    for (uint64_t J = 0; J != K; ++J) {
      LocksetEntry E;
      if (!C.idPair(E.Lock, E.SourceCs, Err))
        return false;
      Out.Locksets.addEntry(E);
    }
    Out.Locksets.closeLockset();
  }

  // Constraints.
  if (!C.nextLine(Err) || !C.expect("constraints", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("constraint", Err))
      return false;
    uint64_t Before, After;
    if (!C.unsignedInt(Before, Err) || !C.unsignedInt(After, Err))
      return false;
    Out.Constraints.push_back(
        OrderConstraint{static_cast<uint32_t>(Before),
                        static_cast<uint32_t>(After)});
  }

  // Schedule.
  if (!C.nextLine(Err) || !C.expect("schedule", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  // Every per-lock order needs its own "sched" line of >= 9 chars, so
  // a count beyond input-length/9 is forged — reject it before the
  // resize allocates proportionally to it.
  if (N > Text.size() / 9) {
    Err = "schedule count exceeds input size";
    return false;
  }
  Out.LockSchedule.resize(N);
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("sched", Err))
      return false;
    uint64_t LockIdx, K;
    if (!C.unsignedInt(LockIdx, Err) || !C.unsignedInt(K, Err))
      return false;
    if (LockIdx >= Out.LockSchedule.size()) {
      Err = "line " + std::to_string(C.line()) + ": sched lock out of range";
      return false;
    }
    auto &Order = Out.LockSchedule[LockIdx];
    for (uint64_t J = 0; J != K; ++J) {
      CsRef R;
      if (!C.idPair(R.Thread, R.Index, Err))
        return false;
      Order.push_back(R);
    }
  }

  // Threads.
  if (!C.nextLine(Err) || !C.expect("threads", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  for (uint64_t T = 0; T != N; ++T) {
    if (!C.nextLine(Err) || !C.expect("thread", Err))
      return false;
    uint64_t NumEvents;
    if (!C.unsignedInt(NumEvents, Err))
      return false;
    // The shortest event line ("ts\n") is 3 chars; a count the input
    // cannot possibly hold must not size the reserve below — and the
    // reserve itself is clamped by the in-memory event size so even an
    // accepted count cannot allocate a multiple of the input.
    if (NumEvents > Text.size() / 3) {
      Err = "event count exceeds input size";
      return false;
    }
    ThreadTrace TT;
    TT.Events.reserve(std::min<size_t>(
        NumEvents, Text.size() / sizeof(Event) + 1));
    for (uint64_t I = 0; I != NumEvents; ++I) {
      if (!C.nextLine(Err))
        return false;
      std::string Kind;
      if (!C.word(Kind, Err))
        return false;
      if (Kind == "ts") {
        TT.Events.push_back(Event::threadStart());
      } else if (Kind == "te") {
        TT.Events.push_back(Event::threadEnd());
      } else if (Kind == "acq") {
        int64_t Lock, Site, LS;
        if (!C.integer(Lock, Err) || !C.integer(Site, Err) ||
            !C.integer(LS, Err))
          return false;
        TT.Events.push_back(Event::lockAcquire(
            static_cast<LockId>(Lock),
            Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site),
            LS < 0 ? InvalidId : static_cast<LocksetId>(LS)));
      } else if (Kind == "rel") {
        int64_t Lock;
        if (!C.integer(Lock, Err))
          return false;
        TT.Events.push_back(Event::lockRelease(static_cast<LockId>(Lock)));
      } else if (Kind == "rd") {
        uint64_t Addr, Value;
        if (!C.unsignedInt(Addr, Err) || !C.unsignedInt(Value, Err))
          return false;
        TT.Events.push_back(Event::read(Addr, Value));
      } else if (Kind == "wr") {
        uint64_t Addr, Value, Op;
        if (!C.unsignedInt(Addr, Err) || !C.unsignedInt(Value, Err) ||
            !C.unsignedInt(Op, Err))
          return false;
        if (Op > static_cast<uint64_t>(WriteOpKind::Xor)) {
          Err = "line " + std::to_string(C.line()) + ": bad write op";
          return false;
        }
        TT.Events.push_back(
            Event::write(Addr, Value, static_cast<WriteOpKind>(Op)));
      } else if (Kind == "comp") {
        uint64_t Cost;
        if (!C.unsignedInt(Cost, Err))
          return false;
        TT.Events.push_back(Event::compute(Cost));
      } else if (Kind == "rwa" || Kind == "rww") {
        int64_t Lock, Site, LS;
        if (!C.integer(Lock, Err) || !C.integer(Site, Err) ||
            !C.integer(LS, Err))
          return false;
        CodeSiteId S = Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site);
        LocksetId L = LS < 0 ? InvalidId : static_cast<LocksetId>(LS);
        TT.Events.push_back(
            Kind == "rwa"
                ? Event::rwAcquireRead(static_cast<LockId>(Lock), S, L)
                : Event::rwAcquireWrite(static_cast<LockId>(Lock), S, L));
      } else if (Kind == "try") {
        int64_t Lock, Site, LS;
        uint64_t Mode, Ok;
        if (!C.integer(Lock, Err) || !C.integer(Site, Err) ||
            !C.integer(LS, Err) || !C.unsignedInt(Mode, Err) ||
            !C.unsignedInt(Ok, Err))
          return false;
        if (Mode > static_cast<uint64_t>(AcquireMode::Shared)) {
          Err = "line " + std::to_string(C.line()) + ": bad acquire mode";
          return false;
        }
        if (Ok > 1) {
          Err = "line " + std::to_string(C.line()) + ": bad try flag";
          return false;
        }
        TT.Events.push_back(Event::tryAcquire(
            static_cast<LockId>(Lock),
            Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site), Ok != 0,
            static_cast<AcquireMode>(Mode),
            LS < 0 ? InvalidId : static_cast<LocksetId>(LS)));
      } else if (Kind == "cwait") {
        int64_t Cond, Site;
        if (!C.integer(Cond, Err) || !C.integer(Site, Err))
          return false;
        TT.Events.push_back(Event::condWait(
            static_cast<LockId>(Cond),
            Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site)));
      } else if (Kind == "csig") {
        int64_t Cond;
        if (!C.integer(Cond, Err))
          return false;
        TT.Events.push_back(Event::condSignal(static_cast<LockId>(Cond)));
      } else if (Kind == "cbro") {
        int64_t Cond;
        if (!C.integer(Cond, Err))
          return false;
        TT.Events.push_back(Event::condBroadcast(static_cast<LockId>(Cond)));
      } else {
        Err = "line " + std::to_string(C.line()) + ": unknown event '" +
              Kind + "'";
        return false;
      }
    }
    Out.Threads.push_back(std::move(TT));
  }

  if (!C.nextLine(Err) || !C.expect("end", Err))
    return false;

  Out.buildCsIndex();
  std::string Invalid = Out.validate();
  if (!Invalid.empty()) {
    Err = "parsed trace fails validation: " + Invalid;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Byte buffers and files
//===----------------------------------------------------------------------===//

/// The one format sniff: the v3 magic is not valid text-format prose,
/// so the first eight bytes decide unambiguously.
bool perfplay::parseTraceBuffer(const uint8_t *Data, size_t Size,
                                Trace &Out, std::string &Err) {
  if (hasTraceV3Magic(Data, Size))
    return parseTraceV3(Data, Size, Out, Err);
  // The line parser tokenizes out of a string; one copy, text only.
  std::string Text;
  if (Size != 0)
    Text.assign(reinterpret_cast<const char *>(Data), Size);
  return parseTraceText(Text, Out, Err);
}

bool perfplay::saveTrace(const Trace &Tr, const std::string &Path,
                         std::string &Err, TraceFormat Format) {
  if (Format == TraceFormat::V3)
    return saveTraceV3(Tr, Path, Err);
  const std::string Text = writeTraceText(Tr);
  return replaceFileAtomically(Path, Err, [&](std::FILE *F, std::string &) {
    return std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  });
}

/// Why \p Path cannot be served by the mmap path; empty when it can.
/// Pipes and FIFOs must not have their read end consumed by a doomed
/// map attempt, so this decides from stat() alone.
static std::string mmapDowngradeReason(const std::string &Path) {
  if (!MappedFile::supportsMapping())
    return "platform build has no mmap support";
  switch (MappedFile::classifyPath(Path)) {
  case MappedFile::PathKind::Regular:
    return std::string();
  case MappedFile::PathKind::Other:
    return "not a regular file (pipe, FIFO, or device)";
  case MappedFile::PathKind::Missing:
    break;
  }
  return "file cannot be stat'ed";
}

/// Reads all of \p Path through stdio — the path for anything the
/// mapping cannot serve.  A read error (e.g. \p Path is a directory)
/// fails here instead of reaching the parser as a short input.
static bool readStream(const std::string &Path, std::vector<uint8_t> &Out,
                       std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Out.insert(Out.end(), Buf, Buf + N);
  const int ReadErrno = std::ferror(F) ? errno : 0;
  std::fclose(F);
  if (ReadErrno != 0) {
    Err = "cannot read '" + Path + "': " + std::strerror(ReadErrno);
    return false;
  }
  return true;
}

Expected<Trace> perfplay::readTraceFile(const std::string &Path,
                                        TraceLoadInfo *Info) {
  std::string Err;
  // Scoped to this call: the parse copies every name into the Trace,
  // so the file is unmapped as soon as the parse returns.
  MappedFile Mapping;
  std::string Reason = mmapDowngradeReason(Path);
  if (Reason.empty()) {
    // Some network/FUSE mounts refuse mmap on regular files; those
    // keep working through the stream path.
    if (!Mapping.open(Path, Err))
      Reason = "mmap open failed: " + Err;
    else if (Mapping.size() == 0)
      Reason = "file is empty (nothing to map)";
  }

  std::vector<uint8_t> Streamed;
  const uint8_t *Data = Mapping.data();
  size_t Size = Mapping.size();
  if (!Reason.empty()) {
    Mapping.close();
    if (!readStream(Path, Streamed, Err))
      return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));
    Data = Streamed.data();
    Size = Streamed.size();
  }
  if (Info) {
    Info->Format = hasTraceV3Magic(Data, Size) ? TraceFormat::V3
                                               : TraceFormat::Text;
    Info->UsedMmap = Reason.empty();
    Info->MmapDowngradeReason = std::move(Reason);
  }

  Trace Tr;
  if (!parseTraceBuffer(Data, Size, Tr, Err))
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));
  return Tr;
}
