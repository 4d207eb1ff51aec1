//===- support/MappedFile.cpp - Read-only memory-mapped file ----------------===//

#include "support/MappedFile.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PERFPLAY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PERFPLAY_HAVE_MMAP 0
#endif

using namespace perfplay;

bool MappedFile::supportsMapping() { return PERFPLAY_HAVE_MMAP != 0; }

MappedFile::PathKind MappedFile::classifyPath(const std::string &Path) {
#if PERFPLAY_HAVE_MMAP
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return PathKind::Missing;
  return S_ISREG(St.st_mode) ? PathKind::Regular : PathKind::Other;
#else
  // No stat portability guarantee: report Other so the trace loader
  // takes the stream path, which this build's open() mimics anyway.
  (void)Path;
  return PathKind::Other;
#endif
}

MappedFile &MappedFile::operator=(MappedFile &&Other) noexcept {
  if (this == &Other)
    return *this;
  close();
  Fallback = std::move(Other.Fallback);
  Data = Other.Data;
  Size = Other.Size;
  Mapped = Other.Mapped;
  Other.Data = nullptr;
  Other.Size = 0;
  Other.Mapped = false;
  Other.Fallback.clear();
  return *this;
}

void MappedFile::close() {
#if PERFPLAY_HAVE_MMAP
  if (Mapped)
    ::munmap(const_cast<uint8_t *>(Data), Size);
#endif
  Data = nullptr;
  Size = 0;
  Mapped = false;
  Fallback.clear();
  Fallback.shrink_to_fit();
}

#if !PERFPLAY_HAVE_MMAP
/// Reads \p Path into \p Out in one pass (the no-mmap fallback).
static bool readWhole(const std::string &Path, std::vector<uint8_t> &Out,
                      std::string &Err) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  char Buf[1 << 16];
  for (;;) {
    size_t N = std::fread(Buf, 1, sizeof(Buf), F);
    Out.insert(Out.end(), Buf, Buf + N);
    if (N < sizeof(Buf))
      break;
  }
  bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadError) {
    Err = "read error on '" + Path + "'";
    Out.clear();
    return false;
  }
  return true;
}
#endif

bool MappedFile::open(const std::string &Path, std::string &Err) {
  close();
#if PERFPLAY_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    Err = "cannot stat '" + Path + "'";
    return false;
  }
  if (St.st_size == 0) {
    // mmap rejects zero-length mappings; an empty view needs no map.
    ::close(Fd);
    return true;
  }
  void *Map = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                     MAP_PRIVATE, Fd, 0);
  ::close(Fd); // The mapping holds its own reference to the file.
  if (Map == MAP_FAILED) {
    Err = "cannot mmap '" + Path + "'";
    return false;
  }
  Data = static_cast<const uint8_t *>(Map);
  Size = static_cast<size_t>(St.st_size);
  Mapped = true;
#if defined(MADV_SEQUENTIAL)
  // Parsers walk the file front to back; tell the kernel to read ahead.
  ::madvise(Map, Size, MADV_SEQUENTIAL);
#endif
  return true;
#else
  if (!readWhole(Path, Fallback, Err))
    return false;
  Data = Fallback.data();
  Size = Fallback.size();
  return true;
#endif
}

bool perfplay::replaceFileAtomically(
    const std::string &Path, std::string &Err,
    const std::function<bool(std::FILE *F, std::string &Err)> &Write) {
  const std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Err = "cannot open '" + Tmp + "' for writing";
    return false;
  }
  std::string WriteErr;
  bool Ok = Write(F, WriteErr);
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    Err = WriteErr.empty() ? "short write to '" + Tmp + "'" : WriteErr;
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "cannot rename '" + Tmp + "' to '" + Path +
          "': " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
