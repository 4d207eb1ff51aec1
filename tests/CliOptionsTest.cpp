//===- tests/CliOptionsTest.cpp - perfplay option parsing ---------------===//
//
// Drives the built perfplay binary: every subcommand must reject an
// option it does not know, or a malformed option value, with exit code
// 2 and say so on stderr, instead of silently ignoring it (or, worse,
// reading its value as a trace path or running with a default).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

struct CliRun {
  int Status = -1;
  std::string Stderr;
};

/// Runs `perfplay <Args>` through the shell, capturing stderr.
CliRun runCli(const std::string &Args) {
  CliRun R;
  std::string Cmd =
      std::string(PERFPLAY_CLI) + " " + Args + " 2>&1 >/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[256];
  while (std::fgets(Buf, sizeof(Buf), P))
    R.Stderr += Buf;
  int Raw = pclose(P);
  if (WIFEXITED(Raw))
    R.Status = WEXITSTATUS(Raw);
  return R;
}

std::string tracePath() {
  static const std::string Path = [] {
    std::string P = testing::TempDir() + "/perfplay_cli_options.trace";
    CliRun Gen = runCli("generate mysql --threads 2 --scale 0.1 --out " + P);
    EXPECT_EQ(Gen.Status, 0) << Gen.Stderr;
    return P;
  }();
  return Path;
}

void expectUnknown(const std::string &Args, const std::string &Flag) {
  CliRun R = runCli(Args);
  EXPECT_EQ(R.Status, 2) << Args;
  EXPECT_NE(R.Stderr.find("unknown option '" + Flag + "'"),
            std::string::npos)
      << Args << " -> " << R.Stderr;
}

void expectMalformed(const std::string &Args, const std::string &Message) {
  CliRun R = runCli(Args);
  EXPECT_EQ(R.Status, 2) << Args;
  EXPECT_NE(R.Stderr.find(Message), std::string::npos)
      << Args << " -> " << R.Stderr;
}

void expectInapplicable(const std::string &Args, const std::string &Flag,
                        const std::string &Scheme) {
  CliRun R = runCli(Args);
  EXPECT_EQ(R.Status, 2) << Args;
  EXPECT_NE(R.Stderr.find("option '" + Flag +
                          "' does not apply to scheme '" + Scheme + "'"),
            std::string::npos)
      << Args << " -> " << R.Stderr;
}

} // namespace

TEST(CliOptionsTest, RemovedDetectOptionsAreRejected) {
  expectUnknown("analyze " + tracePath() + " --detect-threads 2",
                "--detect-threads");
  expectUnknown("analyze " + tracePath() + " --set-repr=bitset",
                "--set-repr");
  expectUnknown("analyze " + tracePath() + " --no-dedup", "--no-dedup");
}

TEST(CliOptionsTest, MisspelledOptionsAreRejected) {
  expectUnknown("replay " + tracePath() + " --replay 3", "--replay");
  expectUnknown("stats " + tracePath() + " --verbos", "--verbos");
  expectUnknown("convert " + tracePath() + " --output x", "--output");
  expectUnknown("generate mysql --thread 2", "--thread");
  expectUnknown("casestudy bug1 --scales 0.1", "--scales");
  expectUnknown("list-apps --all", "--all");
  expectUnknown("serve --socket /nonexistent/s --worker 2", "--worker");
  expectUnknown("client --socket /nonexistent/s stats --json", "--json");
}

TEST(CliOptionsTest, MissingValueIsAnError) {
  CliRun R = runCli("generate mysql --out");
  EXPECT_EQ(R.Status, 2);
  EXPECT_NE(R.Stderr.find("'--out' expects a value"), std::string::npos)
      << R.Stderr;
}

TEST(CliOptionsTest, KnownOptionsStillWork) {
  CliRun R = runCli("replay " + tracePath() + " --replays 2 --seed 3");
  EXPECT_EQ(R.Status, 0) << R.Stderr;
  R = runCli("analyze " + tracePath() + " --pairs=all");
  EXPECT_EQ(R.Status, 0) << R.Stderr;
  R = runCli("analyze " + tracePath() + " --pairs adjacent");
  EXPECT_EQ(R.Status, 0) << R.Stderr;
  const std::string Out = testing::TempDir() + "/perfplay_cli_small.trace";
  R = runCli("generate x264 --threads 1 --scale 0.05 --out " + Out);
  EXPECT_EQ(R.Status, 0) << R.Stderr;
  std::remove(Out.c_str());
}

TEST(CliOptionsTest, MalformedValuesAreRejected) {
  const char *Pairs = "--pairs expects adjacent|all, got 'bogus'";
  expectMalformed("analyze " + tracePath() + " --pairs bogus", Pairs);
  expectMalformed("client --socket /nonexistent/s analyze " + tracePath() +
                      " --pairs=bogus",
                  Pairs);

  // A generator must not write a trace from a value it cannot read.
  const std::string Out = testing::TempDir() + "/perfplay_cli_bad.trace";
  std::remove(Out.c_str());
  for (const char *Threads : {"abc", "0", "-2", "3x"})
    expectMalformed("generate x264 --threads " + std::string(Threads) +
                        " --out " + Out,
                    "--threads expects a thread count of at least 1");
  for (const char *Scale : {"abc", "0", "-1", "inf", "nan", "0.5x"})
    expectMalformed("generate x264 --scale=" + std::string(Scale) +
                        " --out " + Out,
                    "--scale expects a positive number");
  EXPECT_FALSE(std::ifstream(Out).good()) << Out;

  // The case studies need a critical thread or producer plus a worker.
  for (const char *Threads : {"abc", "0", "1"})
    expectMalformed("casestudy bug2 --threads=" + std::string(Threads),
                    "--threads expects a thread count of at least 2");
  expectMalformed("casestudy bug1 --scale abc",
                  "--scale expects a positive number");

  // `--replays -1` used to wrap to ~4e9 replays and never return.
  const std::string Replay = "replay " + tracePath();
  for (const char *Replays : {"-1", "0", "abc", "2x"})
    expectMalformed(Replay + " --replays " + Replays,
                    "--replays expects an integer of at least 1");
  expectMalformed(Replay + " --scheme=bogus", "unknown scheme 'bogus'");
  for (const char *Seed : {"xyz", "-1", "1.5"}) {
    expectMalformed(Replay + " --seed " + Seed,
                    "--seed expects a non-negative integer");
    expectMalformed("generate x264 --seed " + std::string(Seed) +
                        " --out " + Out,
                    "--seed expects a non-negative integer");
  }
  EXPECT_FALSE(std::ifstream(Out).good()) << Out;
  // A speculation knob must not read garbage as 0 (every transaction
  // capacity-aborting) or accept a probability outside [0, 1].
  for (const char *Knob : {"--htm-capacity", "--htm-retries",
                           "--abort-penalty"})
    for (const char *Value : {"abc", "-1", "2.5"})
      expectMalformed(Replay + " --scheme htm " + Knob + " " + Value,
                      std::string(Knob) + " expects a non-negative integer");
  for (const char *Rate : {"7", "-0.1", "abc", "nan"})
    for (const char *Scheme : {"sle", "htm"})
      expectMalformed(Replay + " --scheme " + Scheme + " --abort-rate " +
                          Rate,
                      "--abort-rate expects a number in [0, 1]");
  expectMalformed("analyze " + tracePath() + " --window-events -1",
                  "--window-events expects a non-negative event count");
  expectMalformed("serve --socket /nonexistent/s --cache-budget abc",
                  "--cache-budget expects a non-negative integer");
  expectMalformed("serve --socket /nonexistent/s --idle-timeout -5",
                  "--idle-timeout expects a non-negative integer");
}

TEST(CliOptionsTest, SpeculationOptionsNeedASchemeThatModelsThem) {
  const std::string Replay = "replay " + tracePath();
  // SLE has no transactional capacity.
  expectInapplicable(Replay + " --scheme sle --htm-capacity 8",
                     "--htm-capacity", "sle");
  // The lock replays model no speculation at all; elsc is the default.
  const char *Knobs[] = {"--htm-capacity=8", "--htm-retries=1",
                         "--abort-penalty=50", "--abort-rate=0.1"};
  for (const char *Scheme : {"orig", "elsc", "sync", "mem"})
    for (const std::string Knob : Knobs)
      expectInapplicable(Replay + " --scheme " + Scheme + " " + Knob,
                         Knob.substr(0, Knob.find('=')), Scheme);
  expectInapplicable(Replay + " --abort-rate 0.1", "--abort-rate", "elsc");

  CliRun R = runCli(Replay + " --scheme htm --htm-capacity 8 "
                             "--htm-retries 1 --abort-penalty 50 "
                             "--abort-rate 0.1");
  EXPECT_EQ(R.Status, 0) << R.Stderr;
  R = runCli(Replay + " --scheme sle --htm-retries 1 --abort-penalty 50 "
                      "--abort-rate 0.1");
  EXPECT_EQ(R.Status, 0) << R.Stderr;
}
