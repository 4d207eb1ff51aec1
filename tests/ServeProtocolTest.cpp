//===- tests/ServeProtocolTest.cpp - hostile wire-protocol corpus -----------===//
//
// The serve daemon's analogue of TraceIOCorruptTest: the codec is
// fuzzed with truncations and bad embedded lengths, and a live daemon
// is attacked with the full hostile corpus — truncated frames,
// oversized length prefixes (which must never drive an allocation past
// the frame budget), unknown request types, and mid-stream
// disconnects.  After every attack the daemon must still be serving.
// Runs under the plain, ASan, and TSan lanes.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

using namespace perfplay;
using namespace perfplay::serve;

namespace {

std::string socketPath(const char *Name) {
  return testing::TempDir() + "pp_proto_" + Name + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A valid little analysis target for "daemon still works" probes.
std::string probeTracePath() {
  TraceBuilder B;
  LockId L = B.addLock("l");
  ThreadId A = B.addThread();
  ThreadId C = B.addThread();
  for (ThreadId Id : {A, C}) {
    B.compute(Id, 2);
    B.beginCs(Id, L);
    B.write(Id, 1, 7);
    B.endCs(Id);
  }
  Trace Tr = B.finish();
  std::string Path = testing::TempDir() + "pp_proto_probe_" +
                     std::to_string(::getpid()) + ".v3trace";
  std::string Err;
  EXPECT_TRUE(saveTrace(Tr, Path, Err, TraceFormat::V3)) << Err;
  return Path;
}

/// Asserts the daemon still answers a well-formed request — the "kept
/// serving" invariant every hostile case must leave intact.
void expectStillServing(const std::string &Socket,
                        const std::string &TracePath) {
  ServeClient Client;
  ASSERT_TRUE(Client.connect(Socket).ok()) << "daemon stopped accepting";
  AnalyzeRequest Req;
  Req.Path = TracePath;
  Expected<ResultSummary> Sum = Client.analyze(Req);
  EXPECT_TRUE(Sum.ok()) << Sum.message();
  Expected<ServeStats> Stats = Client.stats();
  EXPECT_TRUE(Stats.ok()) << Stats.message();
}

/// Raw frame bytes: u32 LE length + u8 type + payload.
std::vector<uint8_t> rawFrame(uint32_t Len, uint8_t Type,
                              const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Out;
  for (unsigned I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(Len >> (8 * I)));
  Out.push_back(Type);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Codec round-trips and decoder hostility (no daemon needed)
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, AnalyzeRequestRoundTrip) {
  AnalyzeRequest In;
  In.PairMode = 1;
  In.NoCache = 1;
  In.Path = "/some/path with spaces/trace.btrace";
  std::vector<uint8_t> Bytes = encodeAnalyzeRequest(In);
  AnalyzeRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeAnalyzeRequest(Bytes.data(), Bytes.size(), Out, Err))
      << Err;
  EXPECT_EQ(Out.PairMode, In.PairMode);
  EXPECT_EQ(Out.NoCache, In.NoCache);
  EXPECT_EQ(Out.Path, In.Path);
}

TEST(ServeProtocolTest, ResultSummaryRoundTrip) {
  ResultSummary In;
  In.NullLock = 1;
  In.ReadRead = 2;
  In.DisjointWrite = 3;
  In.Benign = 4;
  In.TrueContention = 5;
  In.TryFailEdges = 6;
  In.TopologyEdges = 7;
  In.NumAuxLocks = 8;
  In.NumStandalone = 9;
  In.OriginalTotalTime = ~0ull;
  In.UlcpFreeTotalTime = 11;
  In.FromResultCache = 1;
  std::vector<uint8_t> Bytes = encodeResultSummary(In);
  ResultSummary Out;
  std::string Err;
  ASSERT_TRUE(decodeResultSummary(Bytes.data(), Bytes.size(), Out, Err))
      << Err;
  EXPECT_TRUE(Out.sameVerdicts(In));
  EXPECT_EQ(Out.FromResultCache, 1);
  EXPECT_EQ(Out.FromTraceCache, 0);
}

TEST(ServeProtocolTest, ServeStatsRoundTrip) {
  ServeStats In;
  In.RequestsServed = 100;
  In.TraceCacheHits = 42;
  In.CacheBytes = 1 << 20;
  In.P99Micros = 12345;
  std::vector<uint8_t> Bytes = encodeServeStats(In);
  ServeStats Out;
  std::string Err;
  ASSERT_TRUE(decodeServeStats(Bytes.data(), Bytes.size(), Out, Err))
      << Err;
  EXPECT_EQ(Out.RequestsServed, 100u);
  EXPECT_EQ(Out.TraceCacheHits, 42u);
  EXPECT_EQ(Out.CacheBytes, 1u << 20);
  EXPECT_EQ(Out.P99Micros, 12345u);
}

TEST(ServeProtocolTest, ErrorRoundTrip) {
  std::vector<uint8_t> Bytes =
      encodeError(ErrorCode::ServerOverloaded, "queue full");
  ErrorCode Code;
  std::string Msg, Err;
  ASSERT_TRUE(decodeError(Bytes.data(), Bytes.size(), Code, Msg, Err));
  EXPECT_EQ(Code, ErrorCode::ServerOverloaded);
  EXPECT_EQ(Msg, "queue full");
}

// Every strict prefix of a valid payload must fail to decode — no
// partial reads, no over-reads past the buffer (ASan proves the
// latter).
TEST(ServeProtocolTest, TruncationSweep) {
  AnalyzeRequest Req;
  Req.Path = "trace.btrace";
  std::vector<uint8_t> A = encodeAnalyzeRequest(Req);
  for (size_t Len = 0; Len != A.size(); ++Len) {
    AnalyzeRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeAnalyzeRequest(A.data(), Len, Out, Err)) << Len;
  }
  ResultSummary Sum;
  std::vector<uint8_t> S = encodeResultSummary(Sum);
  for (size_t Len = 0; Len != S.size(); ++Len) {
    ResultSummary Out;
    std::string Err;
    EXPECT_FALSE(decodeResultSummary(S.data(), Len, Out, Err)) << Len;
  }
  std::vector<uint8_t> E = encodeError(ErrorCode::ProtocolError, "boom");
  for (size_t Len = 0; Len != E.size(); ++Len) {
    ErrorCode Code;
    std::string Msg, Err;
    EXPECT_FALSE(decodeError(E.data(), Len, Code, Msg, Err)) << Len;
  }
}

// A hostile embedded path length must be rejected against the bytes
// actually present — never trusted as an allocation size.
TEST(ServeProtocolTest, EmbeddedLengthExceedsPayload) {
  AnalyzeRequest Req;
  Req.Path = "x";
  std::vector<uint8_t> Bytes = encodeAnalyzeRequest(Req);
  // Patch the u32 path length (offset 2) to a huge value.
  Bytes[2] = 0xFF;
  Bytes[3] = 0xFF;
  Bytes[4] = 0xFF;
  Bytes[5] = 0x7F;
  AnalyzeRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeAnalyzeRequest(Bytes.data(), Bytes.size(), Out, Err));
  EXPECT_NE(Err.find("exceeds payload"), std::string::npos) << Err;
}

// Trailing bytes after a well-formed payload are a protocol error, not
// silently ignored (they would mask framing bugs).
TEST(ServeProtocolTest, TrailingBytesRejected) {
  AnalyzeRequest Req;
  Req.Path = "t";
  std::vector<uint8_t> Bytes = encodeAnalyzeRequest(Req);
  Bytes.push_back(0);
  AnalyzeRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeAnalyzeRequest(Bytes.data(), Bytes.size(), Out, Err));
}

//===----------------------------------------------------------------------===//
// Live-daemon hostile corpus
//===----------------------------------------------------------------------===//

class ServeHostileTest : public ::testing::Test {
protected:
  void SetUp() override {
    Socket = socketPath("hostile");
    Probe = probeTracePath();
    ServerOptions Opts;
    Opts.SocketPath = Socket;
    Opts.NumWorkers = 2;
    Opts.MaxFrameBytes = 4096; // Tight budget: easy to overflow on purpose.
    Daemon = std::make_unique<Server>(Opts);
    Expected<void> Ok = Daemon->start();
    ASSERT_TRUE(Ok.ok()) << Ok.message();
  }

  void TearDown() override {
    Daemon->stop();
    std::remove(Probe.c_str());
  }

  std::string Socket;
  std::string Probe;
  std::unique_ptr<Server> Daemon;
};

// An oversized length prefix must be rejected before any payload
// allocation (the daemon drops the connection) and must not take the
// daemon down.
TEST_F(ServeHostileTest, OversizedLengthPrefix) {
  for (uint32_t Len : {uint32_t(4097), uint32_t(1) << 24, ~uint32_t(0)}) {
    ServeClient Client;
    ASSERT_TRUE(Client.connect(Socket).ok());
    ASSERT_TRUE(Client.sendRaw(rawFrame(Len, 1, {})));
    Frame Response;
    std::string Err;
    // The daemon drops the connection without an answer — readRaw sees
    // EOF (0) or a reset (-1), never a frame.
    EXPECT_NE(Client.readRaw(Response, Err, 5000), 1) << "len " << Len;
  }
  expectStillServing(Socket, Probe);
  Expected<ServeStats> Stats = [&] {
    ServeClient C;
    EXPECT_TRUE(C.connect(Socket).ok());
    return C.stats();
  }();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->ProtocolErrors, 3u);
}

// A frame whose header promises more payload than the client ever
// sends: the daemon must not hang on the missing bytes forever once
// the client disconnects.
TEST_F(ServeHostileTest, TruncatedFrameThenDisconnect) {
  {
    ServeClient Client;
    ASSERT_TRUE(Client.connect(Socket).ok());
    std::vector<uint8_t> Partial = rawFrame(100, 1, {1, 2, 3});
    ASSERT_TRUE(Client.sendRaw(Partial));
    Client.close(); // Mid-frame disconnect.
  }
  {
    // Mid-header disconnect: fewer bytes than the 5-byte header.
    ServeClient Client;
    ASSERT_TRUE(Client.connect(Socket).ok());
    ASSERT_TRUE(Client.sendRaw({0x01, 0x02}));
    Client.close();
  }
  expectStillServing(Socket, Probe);
}

// Unknown request types get a typed error and the connection stays
// usable — the stream is still framable.
TEST_F(ServeHostileTest, UnknownRequestType) {
  ServeClient Client;
  ASSERT_TRUE(Client.connect(Socket).ok());
  for (uint8_t Type : {uint8_t(0), uint8_t(99), uint8_t(255)}) {
    ASSERT_TRUE(Client.sendRaw(rawFrame(0, Type, {})));
    Frame Response;
    std::string Err;
    ASSERT_EQ(Client.readRaw(Response, Err, 5000), 1) << Err;
    EXPECT_EQ(Response.Type, FrameType::ErrorResponse);
    ErrorCode Code;
    std::string Msg;
    ASSERT_TRUE(decodeError(Response.Payload.data(),
                            Response.Payload.size(), Code, Msg, Err));
    EXPECT_EQ(Code, ErrorCode::ProtocolError);
  }
  // Same connection still serves a real request afterwards.
  AnalyzeRequest Req;
  Req.Path = Probe;
  Expected<ResultSummary> Sum = Client.analyze(Req);
  EXPECT_TRUE(Sum.ok()) << Sum.message();
}

// A well-framed AnalyzeRequest with a malformed payload: typed error,
// connection survives.
TEST_F(ServeHostileTest, MalformedAnalyzePayload) {
  ServeClient Client;
  ASSERT_TRUE(Client.connect(Socket).ok());
  const std::vector<std::vector<uint8_t>> Bad = {
      {},                          // empty
      {0},                         // truncated after PairMode
      {0, 0, 0xFF, 0xFF, 0xFF, 0x7F}, // path length >> payload
      {7, 0, 1, 0, 0, 0, 'x'},     // bad pair mode
  };
  for (const std::vector<uint8_t> &Payload : Bad) {
    ASSERT_TRUE(Client.sendRaw(
        rawFrame(static_cast<uint32_t>(Payload.size()), 1, Payload)));
    Frame Response;
    std::string Err;
    ASSERT_EQ(Client.readRaw(Response, Err, 5000), 1) << Err;
    EXPECT_EQ(Response.Type, FrameType::ErrorResponse);
  }
  expectStillServing(Socket, Probe);
}

// Random-garbage flood: bytes that never form a valid header.  The
// daemon sheds the connections and keeps serving.
TEST_F(ServeHostileTest, GarbageFlood) {
  uint32_t State = 0x2545F491;
  for (int Round = 0; Round != 8; ++Round) {
    ServeClient Client;
    ASSERT_TRUE(Client.connect(Socket).ok());
    std::vector<uint8_t> Garbage(64 + Round * 17);
    for (uint8_t &B : Garbage) {
      State ^= State << 13;
      State ^= State >> 17;
      State ^= State << 5;
      B = static_cast<uint8_t>(State);
    }
    Client.sendRaw(Garbage);
    Client.close();
  }
  expectStillServing(Socket, Probe);
}

// A client that connects and immediately disappears — the cheapest
// denial attempt — must cost the daemon nothing but an accept.
TEST_F(ServeHostileTest, ConnectAndVanish) {
  for (int I = 0; I != 16; ++I) {
    ServeClient Client;
    ASSERT_TRUE(Client.connect(Socket).ok());
    Client.close();
  }
  expectStillServing(Socket, Probe);
}
