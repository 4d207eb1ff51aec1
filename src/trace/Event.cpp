//===- trace/Event.cpp - Trace event model --------------------------------===//

#include "trace/Event.h"

using namespace perfplay;

// Exhaustive on purpose (no default): adding an EventKind without a
// mnemonic must fail the -Werror build, not silently print "?".
const char *perfplay::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::ThreadStart:
    return "start";
  case EventKind::ThreadEnd:
    return "end";
  case EventKind::LockAcquire:
    return "acq";
  case EventKind::LockRelease:
    return "rel";
  case EventKind::Read:
    return "rd";
  case EventKind::Write:
    return "wr";
  case EventKind::Compute:
    return "comp";
  case EventKind::RwAcquireRead:
    return "rwa";
  case EventKind::RwAcquireWrite:
    return "rww";
  case EventKind::TryAcquire:
    return "try";
  case EventKind::CondWait:
    return "cwait";
  case EventKind::CondSignal:
    return "csig";
  case EventKind::CondBroadcast:
    return "cbro";
  }
  return "?";
}

const char *perfplay::acquireModeName(AcquireMode Mode) {
  switch (Mode) {
  case AcquireMode::Exclusive:
    return "exclusive";
  case AcquireMode::Shared:
    return "shared";
  }
  return "?";
}

const char *perfplay::writeOpName(WriteOpKind Op) {
  switch (Op) {
  case WriteOpKind::Store:
    return "store";
  case WriteOpKind::Add:
    return "add";
  case WriteOpKind::Or:
    return "or";
  case WriteOpKind::And:
    return "and";
  case WriteOpKind::Xor:
    return "xor";
  }
  return "?";
}
