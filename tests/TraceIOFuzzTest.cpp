//===- tests/TraceIOFuzzTest.cpp - serialization robustness ------------------===//
//
// Deterministic fuzzing of the trace parsers: mutated inputs must never
// crash — they either parse into a valid trace or fail with a
// diagnostic.  Also checks print/parse/print fixpoints over generated
// workloads.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"
#include "trace/TraceV3.h"

#include "sim/Replayer.h"
#include "support/Rng.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

using namespace perfplay;

namespace {

std::string baseText() {
  Trace Tr = generateWorkload(makeTransmissionBT(2, 1.0));
  recordGrantSchedule(Tr, 7);
  return writeTraceText(Tr);
}

std::vector<uint8_t> baseV3() {
  Trace Tr = generateWorkload(makeTransmissionBT(2, 1.0));
  recordGrantSchedule(Tr, 7);
  return writeTraceV3(Tr);
}

class TextFuzzTest : public testing::TestWithParam<uint64_t> {};
class BinaryFuzzTest : public testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(TextFuzzTest, MutatedInputNeverCrashes) {
  static const std::string Base = baseText();
  Rng R(GetParam());
  std::string Mutated = Base;
  unsigned NumMutations = static_cast<unsigned>(R.nextInRange(1, 12));
  for (unsigned I = 0; I != NumMutations; ++I) {
    size_t Pos = R.nextBelow(Mutated.size());
    switch (R.nextBelow(4)) {
    case 0: // Flip a character.
      Mutated[Pos] = static_cast<char>(R.nextInRange(32, 126));
      break;
    case 1: // Delete a span.
      Mutated.erase(Pos, R.nextInRange(1, 20));
      break;
    case 2: // Duplicate a span.
      Mutated.insert(Pos, Mutated.substr(
                              Pos, std::min<size_t>(
                                       R.nextInRange(1, 20),
                                       Mutated.size() - Pos)));
      break;
    case 3: // Truncate.
      Mutated.resize(Pos);
      break;
    }
    if (Mutated.empty())
      Mutated = "x";
  }
  Trace Out;
  std::string Err;
  bool Ok = parseTraceText(Mutated, Out, Err);
  if (Ok)
    EXPECT_EQ(Out.validate(), "") << "parser accepted an invalid trace";
  else
    EXPECT_FALSE(Err.empty()) << "failure without a diagnostic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFuzzTest,
                         testing::Range<uint64_t>(1, 33));

TEST_P(BinaryFuzzTest, MutatedBytesNeverCrash) {
  static const std::vector<uint8_t> Base = baseV3();
  Rng R(GetParam() * 7919);
  std::vector<uint8_t> Mutated = Base;
  unsigned NumMutations = static_cast<unsigned>(R.nextInRange(1, 12));
  for (unsigned I = 0; I != NumMutations; ++I) {
    size_t Pos = R.nextBelow(Mutated.size());
    switch (R.nextBelow(3)) {
    case 0:
      Mutated[Pos] = static_cast<uint8_t>(R.nextBelow(256));
      break;
    case 1:
      Mutated.erase(Mutated.begin() + static_cast<ptrdiff_t>(Pos));
      break;
    case 2:
      Mutated.resize(Pos + 1);
      break;
    }
    if (Mutated.empty())
      Mutated.push_back(0);
  }
  Trace Out;
  std::string Err;
  bool Ok = parseTraceV3(Mutated.data(), Mutated.size(), Out, Err);
  if (Ok)
    EXPECT_EQ(Out.validate(), "");
  else
    EXPECT_FALSE(Err.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryFuzzTest,
                         testing::Range<uint64_t>(1, 33));

namespace {

class RoundTripTest : public testing::TestWithParam<size_t> {};

} // namespace

TEST_P(RoundTripTest, PrintParsePrintIsAFixpoint) {
  const AppModel &App = allApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(2, 0.25));
  recordGrantSchedule(Tr, 11);

  std::string First = writeTraceText(Tr);
  Trace Back;
  std::string Err;
  ASSERT_TRUE(parseTraceText(First, Back, Err)) << App.Name << ": " << Err;
  EXPECT_EQ(writeTraceText(Back), First) << App.Name;

  std::vector<uint8_t> V3 = writeTraceV3(Tr);
  Trace V3Back;
  ASSERT_TRUE(parseTraceV3(V3.data(), V3.size(), V3Back, Err))
      << App.Name << ": " << Err;
  EXPECT_EQ(writeTraceV3(V3Back), V3) << App.Name;
  // Cross-format: text of the v3 round-trip equals the original.
  EXPECT_EQ(writeTraceText(V3Back), First) << App.Name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, RoundTripTest,
                         testing::Range<size_t>(0, 16));
