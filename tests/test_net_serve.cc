// End-to-end tests of the network serving front-end: byte-parity with
// in-process Ask over Unix and TCP sockets, deadline propagation through
// the socket queue, admission-control shedding visible on the wire,
// malformed-payload / oversized-frame / over-long-question /
// mid-response-disconnect failure containment, and the /statsz telemetry
// dump.
#include "serve/net/net_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/socket_io.h"
#include "core/ask_types.h"
#include "eval/experiments.h"
#include "serve/net/net_client.h"

namespace cqads::serve::net {
namespace {

class NetServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 31337;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars", "jewellery"};
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();

    auto generated = eval::GenerateSurveyQuestions(*world_, 25, 25, 555);
    for (const auto& [domain, qs] : generated) {
      for (const auto& q : qs) questions_->push_back(q.text);
    }
    ASSERT_GE(questions_->size(), 50u);
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    questions_->clear();
  }

  void TearDown() override { FailPoints::DisarmAll(); }

  /// A per-test unix socket path (kept short: sockaddr_un caps ~100 bytes).
  static std::string SocketPath() {
    static std::atomic<int> counter{0};
    return "/tmp/cqads_net_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
  }

  static Result<std::unique_ptr<NetServer>> StartServer(
      NetServer::Options options) {
    return NetServer::Start(&world_->engine(), std::move(options));
  }

  static Request MakeAsk(std::uint64_t id, const std::string& question,
                         double budget_ms = 0.0) {
    Request request;
    request.id = id;
    request.method = "ask";
    request.question = question;
    request.budget_ms = budget_ms;
    return request;
  }

  /// Asserts one networked ask matches the in-process engine byte for byte
  /// (canonical string on success, status code on failure).
  static void ExpectParity(NetClient& client, std::uint64_t id,
                           const std::string& question) {
    auto response = client.Call(MakeAsk(id, question));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response.value().id, id);
    auto expected = world_->engine().Ask(question);
    if (expected.ok()) {
      EXPECT_EQ(response.value().status, "ok") << response.value().error;
      EXPECT_EQ(response.value().canonical,
                core::CanonicalAskResultString(expected.value()))
          << "question: " << question;
    } else {
      EXPECT_EQ(response.value().status,
                WireStatusName(expected.status().code()))
          << "question: " << question;
    }
  }

  static datagen::World* world_;
  static std::vector<std::string>* questions_;
};

datagen::World* NetServeTest::world_ = nullptr;
std::vector<std::string>* NetServeTest::questions_ =
    new std::vector<std::string>;

TEST_F(NetServeTest, UnixSocketParityWithInProcessAsk) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();
  std::uint64_t id = 1;
  for (const auto& q : *questions_) {
    ExpectParity(client.value(), id++, q);
  }

  const auto net = server.value()->net_stats();
  EXPECT_EQ(net.accepted, 1u);
  EXPECT_EQ(net.frames_in, questions_->size());
  EXPECT_EQ(net.frames_out, questions_->size());
  EXPECT_EQ(net.protocol_errors, 0u);
  EXPECT_EQ(net.bad_requests, 0u);
}

TEST_F(NetServeTest, TcpParityAndEphemeralPortResolution) {
  NetServer::Options options;
  options.tcp_port = 0;  // kernel-assigned
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_GT(server.value()->tcp_port(), 0);

  auto client = NetClient::ConnectTcp("127.0.0.1", server.value()->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status();
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < questions_->size() && i < 12; ++i) {
    ExpectParity(client.value(), id++, (*questions_)[i]);
  }
}

TEST_F(NetServeTest, AskInDomainMatchesInProcess) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();

  for (const std::string domain : {"cars", "jewellery"}) {
    for (std::size_t i = 0; i < 6; ++i) {
      Request request;
      request.id = i + 1;
      request.method = "ask_in_domain";
      request.domain = domain;
      request.question = (*questions_)[i];
      auto response = client.value().Call(request);
      ASSERT_TRUE(response.ok()) << response.status();
      auto expected = world_->engine().AskInDomain(domain, (*questions_)[i]);
      if (expected.ok()) {
        EXPECT_EQ(response.value().status, "ok") << response.value().error;
        EXPECT_EQ(response.value().domain, domain);
        EXPECT_EQ(response.value().canonical,
                  core::CanonicalAskResultString(expected.value()));
      } else {
        EXPECT_EQ(response.value().status,
                  WireStatusName(expected.status().code()));
      }
    }
  }
}

TEST_F(NetServeTest, PingAndStatszServeTelemetry) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();

  Request ping;
  ping.id = 7;
  ping.method = "ping";
  auto pong = client.value().Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong.value().id, 7u);
  EXPECT_EQ(pong.value().status, "ok");

  // Answer a couple of questions so the counters move.
  for (std::size_t i = 0; i < 4; ++i) {
    auto r = client.value().Call(MakeAsk(100 + i, (*questions_)[i]));
    ASSERT_TRUE(r.ok()) << r.status();
  }

  Request statsz;
  statsz.id = 8;
  statsz.method = "statsz";
  auto response = client.value().Call(statsz);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response.value().status, "ok");
  auto doc = JsonValue::Parse(response.value().stats_json);
  ASSERT_TRUE(doc.ok()) << doc.status() << " from "
                        << response.value().stats_json;
  const JsonValue& stats = doc.value();
  // Serving outcomes + queue-age telemetry from the ConcurrentServer...
  EXPECT_GE(stats.GetNumber("answered", -1.0), 4.0);
  for (const char* key :
       {"degraded", "deadline_exceeded", "shed", "expired_in_queue", "errors",
        "dequeued", "queue_depth", "max_queue_age_micros",
        "mean_queue_age_micros", "cache_hits", "cache_misses", "num_workers",
        "max_queue"}) {
    ASSERT_NE(stats.Find(key), nullptr) << "missing field: " << key;
    EXPECT_GE(stats.GetNumber(key, -1.0), 0.0) << key;
  }
  // ...plus the wire-level counters nested under "net".
  const JsonValue* net = stats.Find("net");
  ASSERT_NE(net, nullptr);
  EXPECT_GE(net->GetNumber("frames_in", -1.0), 5.0);
  EXPECT_EQ(net->GetNumber("active_connections", -1.0), 1.0);
}

TEST_F(NetServeTest, NegativeBudgetExpiresDeterministicallyInQueue) {
  // budget_ms < 0 means "deadline already passed when the frame arrived":
  // the expired-in-queue drop in AskAsyncInDomain must fire with certainty,
  // no sleeps or clock races involved.
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();

  for (int i = 0; i < 3; ++i) {
    auto response =
        client.value().Call(MakeAsk(i + 1, (*questions_)[0], /*budget=*/-1.0));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response.value().status, "deadline_exceeded");
  }
  // The same question without a budget still answers — the expiry above was
  // the request's deadline, not server state.
  auto response = client.value().Call(MakeAsk(9, (*questions_)[0]));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().status, "ok");
  EXPECT_GE(server.value()->stats().expired_in_queue, 3u);
}

TEST_F(NetServeTest, MalformedJsonAnswersErrorAndKeepsConnectionOpen) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  // Drive the socket by hand: NetClient only emits well-formed requests.
  auto fd = cqads::net::UnixConnect(server.value()->unix_path());
  ASSERT_TRUE(fd.ok()) << fd.status();
  std::string wire;
  AppendFrame("this is not json", &wire);
  AppendFrame("{\"id\":3}", &wire);  // valid JSON, missing method
  ASSERT_TRUE(cqads::net::WriteFull(fd.value().get(), wire.data(), wire.size())
                  .ok());

  FrameDecoder decoder;
  std::vector<Response> responses;
  while (responses.size() < 2) {
    char buf[512];
    auto got = cqads::net::ReadFull(fd.value().get(), buf, 1);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got.value()) << "server closed on malformed payload";
    decoder.Feed(buf, 1);
    std::string payload;
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      auto response = DecodeResponse(payload);
      ASSERT_TRUE(response.ok()) << response.status();
      responses.push_back(std::move(response).value());
    }
  }
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, "invalid_argument");
    EXPECT_FALSE(response.error.empty());
  }

  // The framing stayed intact, so the connection still serves real asks.
  std::string ask_wire;
  AppendFrame(EncodeRequest(MakeAsk(4, (*questions_)[0])), &ask_wire);
  ASSERT_TRUE(cqads::net::WriteFull(fd.value().get(), ask_wire.data(),
                                    ask_wire.size())
                  .ok());
  char header[4];
  auto got = cqads::net::ReadFull(fd.value().get(), header, 4);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(server.value()->net_stats().bad_requests, 2u);
  EXPECT_EQ(server.value()->net_stats().protocol_errors, 0u);
}

TEST_F(NetServeTest, OutOfRangeIdAndBudgetOverTheSocket) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto fd = cqads::net::UnixConnect(server.value()->unix_path());
  ASSERT_TRUE(fd.ok()) << fd.status();

  // An id past 2^53 (here one no double-to-uint64_t cast may take) is
  // refused with id 0; the largest id, asked with a budget past the
  // clock's range, gets the in-process answer: no deadline.
  const std::uint64_t max_id = std::uint64_t{1} << 53;
  std::string wire;
  AppendFrame(R"({"id":1e300,"method":"ask","question":"q","budget_ms":1e300})",
              &wire);
  AppendFrame(EncodeRequest(MakeAsk(max_id, (*questions_)[0], 1e300)), &wire);
  ASSERT_TRUE(cqads::net::WriteFull(fd.value().get(), wire.data(), wire.size())
                  .ok());

  FrameDecoder decoder;
  std::vector<Response> responses;
  while (responses.size() < 2) {
    char byte = 0;
    auto got = cqads::net::ReadFull(fd.value().get(), &byte, 1);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got.value()) << "server closed the connection";
    decoder.Feed(&byte, 1);
    std::string payload;
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      auto response = DecodeResponse(payload);
      ASSERT_TRUE(response.ok()) << response.status();
      responses.push_back(std::move(response).value());
    }
  }
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  EXPECT_EQ(responses[0].id, 0u);
  EXPECT_EQ(responses[0].status, "invalid_argument");
  EXPECT_EQ(responses[1].id, max_id);
  ASSERT_EQ(responses[1].status, "ok") << responses[1].error;
  auto expected = world_->engine().Ask((*questions_)[0]);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(responses[1].canonical,
            core::CanonicalAskResultString(expected.value()));
  EXPECT_EQ(server.value()->net_stats().bad_requests, 1u);
}

TEST_F(NetServeTest, OversizedFrameClosesConnectionButServerSurvives) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  options.max_frame_bytes = 1024;
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto fd = cqads::net::UnixConnect(server.value()->unix_path());
  ASSERT_TRUE(fd.ok()) << fd.status();
  std::string wire;
  AppendFrame(std::string(2000, 'x'), &wire);
  ASSERT_TRUE(cqads::net::WriteFull(fd.value().get(), wire.data(), wire.size())
                  .ok());
  // An unresynchronizable violation: the server closes; we observe EOF.
  char buf[16];
  auto got = cqads::net::ReadFull(fd.value().get(), buf, sizeof(buf));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got.value()) << "expected EOF after oversized frame";

  // A fresh connection (with legal frames) still works.
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();
  auto response = client.value().Call(MakeAsk(1, (*questions_)[0]));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().status, "ok");
  EXPECT_GE(server.value()->net_stats().protocol_errors, 1u);
}

TEST_F(NetServeTest, ClientDisconnectMidResponseIsContained) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  {
    // Pipeline a burst of asks and vanish before reading any response:
    // completions land on a closed (or closing) connection and must be
    // dropped, not crash or block the pool.
    auto client = NetClient::ConnectUnix(server.value()->unix_path());
    ASSERT_TRUE(client.ok()) << client.status();
    for (std::size_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.value().Send(MakeAsk(i + 1, (*questions_)[i])).ok());
    }
    client.value().Close();
  }

  // The server keeps serving new connections with full parity.
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();
  for (std::size_t i = 0; i < 8; ++i) {
    ExpectParity(client.value(), 100 + i, (*questions_)[i]);
  }
}

TEST_F(NetServeTest, UnknownMethodAnswersInvalidArgument) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();

  Request request;
  request.id = 5;
  request.method = "drop_all_tables";
  auto response = client.value().Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().id, 5u);
  EXPECT_EQ(response.value().status, "invalid_argument");

  // An ask with no question is rejected before touching the engine.
  Request empty;
  empty.id = 6;
  empty.method = "ask";
  auto rejected = client.value().Call(empty);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected.value().status, "invalid_argument");
}

// Questions are bounded at the wire: one at kMaxQuestionBytes is answered,
// one byte more is refused with its own id, and the connection keeps
// serving.
TEST_F(NetServeTest, QuestionLengthIsBoundedOnTheWire) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();

  std::string longest;
  for (std::size_t i = 0; longest.size() < kMaxQuestionBytes; ++i) {
    longest += (*questions_)[i % questions_->size()] + " ";
  }
  longest.resize(kMaxQuestionBytes);
  ASSERT_TRUE(world_->engine().Ask(longest).ok());
  ExpectParity(client.value(), 41, longest);

  auto refused = client.value().Call(MakeAsk(42, longest + "s"));
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused.value().id, 42u);
  EXPECT_EQ(refused.value().status, "invalid_argument");
  EXPECT_FALSE(refused.value().error.empty());

  ExpectParity(client.value(), 43, (*questions_)[0]);
}

TEST_F(NetServeTest, ConcurrentClientsKeepByteParity) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  options.serve.num_workers = 4;
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  // Precompute expectations once (the engine is const-shared underneath).
  std::vector<std::string> expected;
  for (const auto& q : *questions_) {
    auto r = world_->engine().Ask(q);
    expected.push_back(r.ok() ? core::CanonicalAskResultString(r.value())
                              : std::string("status:") +
                                    WireStatusName(r.status().code()));
  }

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = NetClient::ConnectUnix(server.value()->unix_path());
      if (!client.ok()) {
        mismatches.fetch_add(1000);
        return;
      }
      // Each client walks the questions at a different phase so the cache
      // and pool see genuinely interleaved traffic.
      for (std::size_t i = 0; i < questions_->size(); ++i) {
        const std::size_t at = (i + t * 13) % questions_->size();
        auto response = client.value().Call(MakeAsk(i + 1, (*questions_)[at]));
        if (!response.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::string got =
            response.value().ok()
                ? response.value().canonical
                : std::string("status:") + response.value().status;
        if (got != expected[at]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(NetServeTest, AdmissionControlShedsOnTheWire) {
  // One worker, tiny queue, and a failpoint-injected 20ms stall per task:
  // a pipelined burst must overrun the queue and come back "overloaded"
  // through the socket, exercising the whole shed path end to end.
  NetServer::Options options;
  options.unix_path = SocketPath();
  options.serve.num_workers = 1;
  options.serve.max_queue = 2;
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  FailPoints::Config config;
  config.delay = std::chrono::milliseconds(20);
  FailPoints::Arm("worker_pool.task", config);

  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();
  constexpr std::size_t kBurst = 24;
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(
        client.value().Send(MakeAsk(i + 1, (*questions_)[i % 8])).ok());
  }
  std::size_t answered = 0, shed = 0, other = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto response = client.value().Receive();
    ASSERT_TRUE(response.ok()) << response.status();
    if (response.value().status == "ok") {
      ++answered;
    } else if (response.value().status == "overloaded") {
      ++shed;
    } else {
      ++other;
    }
  }
  FailPoints::DisarmAll();
  EXPECT_GT(shed, 0u) << "answered=" << answered << " other=" << other;
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(other, 0u);
  EXPECT_EQ(server.value()->stats().shed, shed);

  // After the burst drains and the failpoint is gone, service is normal.
  auto response = client.value().Call(MakeAsk(999, (*questions_)[0]));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().status, "ok");
}

TEST_F(NetServeTest, StopWithInFlightRequestsDoesNotHang) {
  NetServer::Options options;
  options.unix_path = SocketPath();
  options.serve.num_workers = 2;
  auto server = StartServer(options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto client = NetClient::ConnectUnix(server.value()->unix_path());
  ASSERT_TRUE(client.ok()) << client.status();
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(client.value().Send(MakeAsk(i + 1, (*questions_)[i])).ok());
  }
  // Stop while responses are still being computed: must drain and return.
  server.value()->Stop();
}

}  // namespace
}  // namespace cqads::serve::net
