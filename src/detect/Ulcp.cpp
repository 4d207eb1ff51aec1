//===- detect/Ulcp.cpp - ULCP pair model -----------------------------------===//

#include "detect/Ulcp.h"

using namespace perfplay;

const char *perfplay::ulcpKindName(UlcpKind Kind) {
  switch (Kind) {
  case UlcpKind::NullLock:
    return "NL";
  case UlcpKind::ReadRead:
    return "RR";
  case UlcpKind::DisjointWrite:
    return "DW";
  case UlcpKind::Benign:
    return "Benign";
  case UlcpKind::TrueContention:
    return "TLCP";
  }
  return "?";
}
