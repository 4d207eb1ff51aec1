//===- support/Span.h - Read-only view of a contiguous run ------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only view of a contiguous run of elements owned elsewhere —
/// one run of a flat pool (a section's read set in its CsIndex, a node's
/// successors in a TopologyGraph).  Valid while the owner lives and its
/// pool is not resized.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_SPAN_H
#define PERFPLAY_SUPPORT_SPAN_H

#include <cassert>
#include <cstddef>

namespace perfplay {

template <typename T> class Span {
public:
  Span(const T *Begin, const T *End) : First(Begin), Last(End) {}
  Span(const T *Begin, size_t Size) : First(Begin), Last(Begin + Size) {}

  const T *begin() const { return First; }
  const T *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }

  const T &operator[](size_t I) const {
    assert(I < size() && "span index out of range");
    return First[I];
  }
  const T &front() const { return (*this)[0]; }
  const T &back() const { return (*this)[size() - 1]; }

private:
  const T *First;
  const T *Last;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_SPAN_H
