//===- tests/PaperCasesTest.cpp - the paper's appendix cases -----------------===//
//
// "Appendix A: Cases in the Real World" as executable traces: each of
// the paper's manifestation patterns is rebuilt from its code listing
// and pushed through detection (and, where meaningful, the pipeline),
// asserting the classification the paper assigns it.
//
//===----------------------------------------------------------------------===//

#include "core/PerfPlay.h"
#include "detect/Classify.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace perfplay;

namespace {

UlcpKind firstPairKind(const Trace &Tr) {
  CsIndex Index = CsIndex::build(Tr);
  return classifyPair(Index, Index.byGlobalId(0), Index.byGlobalId(1));
}

} // namespace

// Case 2: lock_print_info_all_transactions traverses the transaction
// list read-only under lock_sys + trx_sys mutexes; concurrent callers
// produce read-read ULCPs.
TEST(PaperCasesTest, Case2TrxListTraversalIsReadRead) {
  TraceBuilder B;
  LockId LockMutex = B.addLock("lock_sys->mutex");
  LockId TrxMutex = B.addLock("trx_sys->mutex");
  CodeSiteId Site = B.addSite("lock0lock.cc",
                              "lock_print_info_all_transactions", 5203,
                              5356);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    B.compute(T, 100 + T);
    B.beginCs(T, LockMutex, Site);
    B.beginCs(T, TrxMutex, Site);
    for (AddrId Trx = 100; Trx != 104; ++Trx)
      B.read(T, Trx, 7); // Print-only traversal.
    B.compute(T, 400);
    B.endCs(T);
    B.endCs(T);
  }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  UlcpCounts C = detectUlcps(Tr, Index, Opts).Counts;
  // Outer and inner sections pair read-read across the two callers.
  EXPECT_EQ(C.ReadRead, 2u);
  EXPECT_EQ(C.TrueContention, 0u);
}

// Case 3: srv_release_threads writes slot->suspended while
// srv_threads_has_released_slot reads slot->in_use and slot->type —
// the same object, disjoint fields.
TEST(PaperCasesTest, Case3DisjointFieldsOfSlot) {
  enum : AddrId { Suspended = 1, InUse = 2, Type = 3 };
  TraceBuilder B;
  LockId Mu = B.addLock("srv_sys->mutex");
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  B.beginCs(T1, Mu, B.addSite("srv0srv.cc", "srv_release_threads", 1, 9));
  B.write(T1, Suspended, 0);
  B.endCs(T1);
  B.beginCs(T2, Mu,
            B.addSite("srv0srv.cc", "srv_threads_has_released_slot", 20,
                      29));
  B.read(T2, InUse, 1);
  B.read(T2, Type, 4);
  B.endCs(T2);
  Trace Tr = B.finish();
  EXPECT_EQ(firstPairKind(Tr), UlcpKind::DisjointWrite);
}

// Case 5: THD::set_query_id and THD::set_mysys_var assign different
// members under the same LOCK_thd_data — disjoint writes the paper
// suggests replacing with atomics.
TEST(PaperCasesTest, Case5DifferentMembersUnderThdLock) {
  enum : AddrId { QueryId = 10, MysysVar = 11 };
  TraceBuilder B;
  LockId Mu = B.addLock("LOCK_thd_data");
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  B.beginCs(T1, Mu, B.addSite("sql_class.cc", "THD::set_query_id", 4526,
                              4528));
  B.write(T1, QueryId, 777);
  B.endCs(T1);
  B.beginCs(T2, Mu, B.addSite("sql_class.cc", "THD::set_mysys_var", 4534,
                              4536));
  B.write(T2, MysysVar, 888);
  B.endCs(T2);
  Trace Tr = B.finish();
  EXPECT_EQ(firstPairKind(Tr), UlcpKind::DisjointWrite);
}

// Case 4 (#73168): close_connections pokes tmp->mysys_var->abort while
// fill_schema_processlist reads tmp->query() under the same lock: a
// disjoint-write pair blocking the query manipulation.
TEST(PaperCasesTest, Case4CloseConnectionsVsProcesslist) {
  enum : AddrId { MysysAbort = 20, Query = 21 };
  TraceBuilder B;
  LockId Mu = B.addLock("tmp->Lock_thd_data");
  ThreadId Closer = B.addThread();
  ThreadId Lister = B.addThread();
  B.beginCs(Closer, Mu,
            B.addSite("mysqld.cc", "close_connections", 1391, 1404));
  B.write(Closer, MysysAbort, 1);
  B.compute(Closer, 300);
  B.endCs(Closer);
  B.beginCs(Lister, Mu,
            B.addSite("sql_show.cc", "fill_schema_processlist", 2232,
                      2240));
  B.read(Lister, Query, 5);
  B.compute(Lister, 300);
  B.endCs(Lister);
  Trace Tr = B.finish();
  EXPECT_EQ(firstPairKind(Tr), UlcpKind::DisjointWrite);
}

// Case 8 (#69276): every block read does fil_space_get_by_id hash
// lookups at least four times under fil_system->mutex; read-only
// transactions serialize all of them (a 4x slowdown the paper cites).
TEST(PaperCasesTest, Case8HashLookupSerialization) {
  TraceBuilder B;
  LockId Mu = B.addLock("fil_system->mutex");
  CodeSiteId Sites[4] = {
      B.addSite("fil0fil.cc", "fil_space_get_version", 1, 9),
      B.addSite("fil0fil.cc", "fil_inc_pending_ops", 20, 29),
      B.addSite("fil0fil.cc", "fil_decr_pending_ops", 40, 49),
      B.addSite("fil0fil.cc", "fil_space_get_size", 60, 69),
  };
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1})
    for (CodeSiteId Site : Sites) {
      B.compute(T, 50 + T);
      B.beginCs(T, Mu, Site);
      B.read(T, /*hash bucket*/ 5, 9);
      B.compute(T, 200); // The lookup itself.
      B.endCs(T);
    }
  Trace Tr = B.finish();
  PipelineOptions Opts;
  Opts.Detect.PairMode = PairModeKind::AllCrossThread;
  PipelineResult R = runPerfPlay(Tr, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  // All sixteen cross-thread lookup pairs are read-read ULCPs...
  EXPECT_EQ(R.Detection.Counts.ReadRead, 16u);
  // ...and removing them parallelizes the lookups.
  EXPECT_GT(R.Report.Tpd, 0);
}

// Case 10 (#60951): wait_if_global_read_lock serializes UPDATE and
// DELETE even when they manipulate different fields; modeled as the
// global-read-lock check (read) plus disjoint per-statement updates.
TEST(PaperCasesTest, Case10UpdateDeleteSerialization) {
  enum : AddrId { GlobalReadLock = 30, UpdateRows = 31, DeleteRows = 32 };
  TraceBuilder B;
  LockId Mu = B.addLock("LOCK_global_read_lock");
  ThreadId Updater = B.addThread();
  ThreadId Deleter = B.addThread();
  B.compute(Updater, 100);
  B.beginCs(Updater, Mu,
            B.addSite("lock.cc", "wait_if_global_read_lock", 1231, 1268));
  B.read(Updater, GlobalReadLock, 0);
  B.write(Updater, UpdateRows, 3);
  B.compute(Updater, 500);
  B.endCs(Updater);
  B.compute(Deleter, 120);
  B.beginCs(Deleter, Mu,
            B.addSite("lock.cc", "wait_if_global_read_lock", 1231, 1268));
  B.read(Deleter, GlobalReadLock, 0);
  B.write(Deleter, DeleteRows, 4);
  B.compute(Deleter, 500);
  B.endCs(Deleter);
  Trace Tr = B.finish();
  EXPECT_EQ(firstPairKind(Tr), UlcpKind::DisjointWrite);
  PipelineResult R = runPerfPlay(Tr);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.Report.Tpd, 0) << "the statements must parallelize";
}

// Case 7 (#37844): the query-cache trylock spin loop burns CPU while
// only one thread can search the cache; modeled as spin-lock polling.
TEST(PaperCasesTest, Case7SpinLoopWastesCpu) {
  TraceBuilder B;
  LockId Guard = B.addLock("structure_guard_mutex", /*IsSpin=*/true);
  CodeSiteId Site = B.addSite("sql_cache.cc",
                              "Query_cache::send_result_to_client", 1155,
                              1163);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  // T0 searches the cache (long hold); T1 spins on the trylock.
  B.beginCs(T0, Guard, Site);
  B.read(T0, /*cache*/ 40, 1);
  B.compute(T0, 5000);
  B.endCs(T0);
  B.compute(T1, 100);
  B.beginCs(T1, Guard, Site);
  B.read(T1, 40, 1);
  B.compute(T1, 5000);
  B.endCs(T1);
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 3);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.SpinWaitNs, 4000u) << "the spin loop burns the hold time";
  // The pair itself is read-read: PERFPLAY recommends parallelizing.
  EXPECT_EQ(firstPairKind(Tr), UlcpKind::ReadRead);
}

// Figure 3's generic null-lock model: if local_variable is false for
// every thread, the shared variable is never touched.
TEST(PaperCasesTest, Figure3NullLockModel) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  CodeSiteId Site = B.addSite("model.cc", "figure3", 1, 5);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1})
    for (int I = 0; I != 3; ++I) {
      B.compute(T, 50);
      B.beginCs(T, L, Site);
      // local_variable == false: no shared access at all.
      B.endCs(T);
    }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  UlcpCounts C = detectUlcps(Tr, Index, Opts).Counts;
  EXPECT_EQ(C.NullLock, 9u);
  EXPECT_EQ(C.total(), 9u);
}

// Figure 1 (the motivating mysql example): already covered end-to-end
// in PipelineTest; here we pin the pairwise classification.
TEST(PaperCasesTest, Figure1PairIsReadRead) {
  TraceBuilder B;
  LockId Mu = B.addLock("fil_system->mutex");
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  B.beginCs(T1, Mu, B.addSite("fil0fil.cc", "fil_flush_file_spaces",
                              5609, 5614));
  B.read(T1, /*unflushed_spaces*/ 1, 3);
  B.endCs(T1);
  B.beginCs(T2, Mu, B.addSite("fil0fil.cc", "fil_flush", 5473, 5503));
  B.read(T2, /*space hash*/ 2, 9); // Buffering disabled: no update.
  B.endCs(T2);
  Trace Tr = B.finish();
  EXPECT_EQ(firstPairKind(Tr), UlcpKind::ReadRead);
}
