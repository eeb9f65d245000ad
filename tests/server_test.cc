// In-process end-to-end tests for the serving daemon: a real Server on an
// ephemeral port, real Client connections over loopback, the full framed-
// JSON protocol in between. Covers the collection lifecycle, batched
// extraction, response pipelining order, per-tenant rate limiting,
// hostile frames, and graceful drain.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/io/snapshot.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace aeetes {
namespace server {
namespace {

constexpr char kCreateInst[] =
    R"({"verb":"create","collection":"inst","entities":[)"
    R"("university of california berkeley",)"
    R"("massachusetts institute of technology"],)"
    R"("rules":["uc <=> university of california",)"
    R"("mit <=> massachusetts institute of technology"]})";

class ServerTest : public testing::Test {
 protected:
  void StartServer(Server::Options options = {}) {
    auto server = Server::Start(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  /// One round trip that must produce a parseable response object.
  JsonValue Call(Client& client, std::string_view request) {
    auto response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? std::move(*response) : JsonValue();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, CollectionLifecycleOverTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  JsonValue health = Call(*client, R"({"verb":"healthz"})");
  EXPECT_TRUE(health.Find("ok")->AsBool());
  EXPECT_EQ(health.Find("status")->AsString(), "serving");
  EXPECT_DOUBLE_EQ(health.Find("collections")->AsDouble(), 0);

  EXPECT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());

  // Creating the same name again is a 409-style conflict.
  JsonValue conflict = Call(*client, kCreateInst);
  EXPECT_FALSE(conflict.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(conflict.Find("code")->AsDouble(), kConflict);

  JsonValue list = Call(*client, R"({"verb":"list"})");
  ASSERT_EQ(list.Find("collections")->size(), 1u);
  EXPECT_EQ(list.Find("collections")->at(0).Find("name")->AsString(), "inst");
  EXPECT_DOUBLE_EQ(
      list.Find("collections")->at(0).Find("version")->AsDouble(), 1);

  JsonValue extraction = Call(
      *client,
      R"({"verb":"extract","collection":"inst",)"
      R"("docs":["she studied at uc berkeley and later mit"]})");
  ASSERT_TRUE(extraction.Find("ok")->AsBool());
  ASSERT_EQ(extraction.Find("results")->size(), 1u);
  const JsonValue& doc = extraction.Find("results")->at(0);
  ASSERT_GE(doc.Find("matches")->size(), 2u);
  bool saw_berkeley = false;
  bool saw_mit = false;
  for (size_t m = 0; m < doc.Find("matches")->size(); ++m) {
    const std::string entity =
        doc.Find("matches")->at(m).Find("entity_text")->AsString();
    saw_berkeley |= entity == "university of california berkeley";
    saw_mit |= entity == "massachusetts institute of technology";
  }
  EXPECT_TRUE(saw_berkeley);
  EXPECT_TRUE(saw_mit);

  EXPECT_TRUE(
      Call(*client, R"({"verb":"delete","collection":"inst"})")
          .Find("ok")
          ->AsBool());
  JsonValue gone = Call(
      *client, R"({"verb":"extract","collection":"inst","docs":["x"]})");
  EXPECT_FALSE(gone.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(gone.Find("code")->AsDouble(), kNotFound);
}

TEST_F(ServerTest, LoadAndSwapFromSnapshot) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());

  const std::string snap =
      (std::filesystem::temp_directory_path() /
       ("aeetes_server_test_" + std::to_string(::getpid()) + ".snap"))
          .string();
  auto engine = server_->collections().Acquire("inst");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(SaveSnapshot(*(*engine)->aeetes, snap).ok());

  JsonValue loaded = Call(*client, R"({"verb":"load","collection":"mapped",)"
                                   R"("path":")" + snap + "\"}");
  EXPECT_TRUE(loaded.Find("ok")->AsBool());
  JsonValue swapped = Call(*client, R"({"verb":"swap","collection":"inst",)"
                                    R"("path":")" + snap + "\"}");
  EXPECT_TRUE(swapped.Find("ok")->AsBool());

  JsonValue list = Call(*client, R"({"verb":"list"})");
  ASSERT_EQ(list.Find("collections")->size(), 2u);
  // Sorted by name: inst (swapped to v2), mapped (v1).
  EXPECT_DOUBLE_EQ(
      list.Find("collections")->at(0).Find("version")->AsDouble(), 2);
  EXPECT_EQ(list.Find("collections")->at(1).Find("name")->AsString(),
            "mapped");

  // The mmap-loaded collection serves extractions.
  JsonValue extraction = Call(
      *client, R"({"verb":"extract","collection":"mapped",)"
               R"("docs":["visiting uc berkeley"],"tau":0.8})");
  ASSERT_TRUE(extraction.Find("ok")->AsBool());
  EXPECT_GE(extraction.Find("results")->at(0).Find("matches")->size(), 1u);

  std::error_code ec;
  std::filesystem::remove(snap, ec);
}

TEST_F(ServerTest, PipelinedResponsesComeBackInRequestOrder) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());

  // Three pipelined requests: extract (async via batcher), healthz
  // (answered inline on the loop thread), extract. The inline response
  // must still come back second.
  ASSERT_TRUE(client
                  ->Send(R"({"verb":"extract","collection":"inst",)"
                         R"("docs":["first doc about uc berkeley"]})")
                  .ok());
  ASSERT_TRUE(client->Send(R"({"verb":"healthz"})").ok());
  ASSERT_TRUE(client
                  ->Send(R"({"verb":"extract","collection":"inst",)"
                         R"("docs":["second doc about mit"]})")
                  .ok());

  auto first = client->Receive();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_NE(first->find("\"results\""), std::string::npos);
  EXPECT_NE(first->find("university of california berkeley"),
            std::string::npos);

  auto second = client->Receive();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(second->find("\"status\""), std::string::npos);

  auto third = client->Receive();
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_NE(third->find("massachusetts institute of technology"),
            std::string::npos);
}

TEST_F(ServerTest, PerTenantRateLimitIsolatesTenants) {
  Server::Options options;
  // Two-token burst, effectively no refill within the test's runtime.
  options.rate_limit.tokens_per_second = 0.001;
  options.rate_limit.burst = 2.0;
  StartServer(std::move(options));
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());

  const std::string noisy =
      R"({"verb":"extract","collection":"inst","tenant":"noisy",)"
      R"("docs":["uc berkeley"]})";
  EXPECT_TRUE(Call(*client, noisy).Find("ok")->AsBool());
  EXPECT_TRUE(Call(*client, noisy).Find("ok")->AsBool());
  JsonValue limited = Call(*client, noisy);
  EXPECT_FALSE(limited.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(limited.Find("code")->AsDouble(), kRateLimited);

  // A different tenant on the same connection is unaffected.
  EXPECT_TRUE(Call(*client,
                   R"({"verb":"extract","collection":"inst",)"
                   R"("tenant":"quiet","docs":["mit"]})")
                  .Find("ok")
                  ->AsBool());

  // Admin verbs are not rate limited.
  EXPECT_TRUE(Call(*client, R"({"verb":"healthz"})").Find("ok")->AsBool());

  const Counter* rejected =
      server_->metrics().FindCounter("server.rate_limited");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value(), 1u);
}

TEST_F(ServerTest, MalformedRequestsGetTypedErrors) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  JsonValue bad_json = Call(*client, "this is not json");
  EXPECT_FALSE(bad_json.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(bad_json.Find("code")->AsDouble(), kBadRequest);

  JsonValue bad_verb = Call(*client, R"({"verb":"frobnicate"})");
  EXPECT_DOUBLE_EQ(bad_verb.Find("code")->AsDouble(), kBadRequest);

  JsonValue bad_tau = Call(
      *client,
      R"({"verb":"extract","collection":"c","tau":7,"docs":["x"]})");
  EXPECT_DOUBLE_EQ(bad_tau.Find("code")->AsDouble(), kBadRequest);

  // The filter strategy is the engine's: a request naming one, even for a
  // live collection, is rejected with an error that names the field.
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());
  JsonValue with_strategy = Call(
      *client,
      R"({"verb":"extract","collection":"inst","strategy":"lazy",)"
      R"("docs":["mit"]})");
  ASSERT_FALSE(with_strategy.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(with_strategy.Find("code")->AsDouble(), kBadRequest);
  ASSERT_NE(with_strategy.Find("error"), nullptr);
  EXPECT_NE(with_strategy.Find("error")->AsString().find("strategy"),
            std::string::npos);

  // The connection survives malformed payloads (only framing kills it).
  EXPECT_TRUE(Call(*client, R"({"verb":"healthz"})").Find("ok")->AsBool());
}

TEST_F(ServerTest, OversizedFrameClosesTheConnection) {
  Server::Options options;
  options.max_frame_bytes = 1024;
  StartServer(std::move(options));
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  // A frame header promising 2 MiB poisons the stream; the server must
  // drop the connection rather than try to resync. The server may close
  // while the client is still writing the body, so the close shows at
  // Send (EPIPE / ECONNRESET) or at Receive, depending on timing.
  const std::string huge(2u << 20, 'x');
  if (client->Send(huge).ok()) {
    auto response = client->Receive();
    EXPECT_FALSE(response.ok());
  }

  // The server itself is unharmed: new connections work.
  auto fresh = Connect();
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(Call(*fresh, R"({"verb":"healthz"})").Find("ok")->AsBool());
  const Counter* bad = server_->metrics().FindCounter("server.bad_frames");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->value(), 1u);
}

TEST_F(ServerTest, AcceptedSocketsSetTcpNodelay) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  // One round trip guarantees the loop has accepted the connection.
  ASSERT_TRUE(Call(*client, R"({"verb":"healthz"})").Find("ok")->AsBool());

  // The server runs in this process, so its accepted socket is one of our
  // fds: the socket bound to the server port that is not listening.
  int accepted = -1;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const std::string name = entry.path().filename().string();
    int fd = -1;
    if (std::from_chars(name.data(), name.data() + name.size(), fd).ec !=
        std::errc()) {
      continue;
    }
    sockaddr_in addr = {};
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
            0 ||
        addr.sin_family != AF_INET || ntohs(addr.sin_port) != server_->port()) {
      continue;
    }
    int listening = 1;
    socklen_t len = sizeof(listening);
    if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &len) == 0 &&
        listening == 0) {
      accepted = fd;
    }
  }
  ASSERT_GE(accepted, 0) << "no accepted socket on port " << server_->port();

  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0)
      << std::strerror(errno);
  EXPECT_EQ(nodelay, 1);
}

TEST_F(ServerTest, StageHistogramsAccountForRequestLatency) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());

  // One request at a time, so every batch holds one job and each
  // request's latency is exactly its three stages plus the small gaps
  // between them (rate limiter, engine lookup, result hand-off).
  constexpr uint64_t kRequests = 20;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(Call(*client, R"({"verb":"extract","collection":"inst",)"
                              R"("docs":["went to uc berkeley","and mit"]})")
                    .Find("ok")
                    ->AsBool());
  }

  const MetricsRegistry& registry = server_->metrics();
  const Histogram* latency =
      registry.FindHistogram("server.request_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), kRequests);
  uint64_t stage_sum = 0;
  for (const char* name :
       {"server.stage.queue_wait_us", "server.stage.fanout_us",
        "server.stage.serialize_us"}) {
    const Histogram* stage = registry.FindHistogram(name);
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->count(), kRequests) << name;
    stage_sum += stage->sum();
  }

  // The stages are disjoint intervals inside each request's latency, so
  // their sum can exceed the latency sum only by truncation to whole
  // microseconds (1 us per stage per request). Tolerance for what they
  // leave out: 10% of the latency sum plus 500 us per request, wide
  // enough for sanitizer builds and a loaded host.
  const uint64_t latency_sum = latency->sum();
  EXPECT_LE(stage_sum, latency_sum + 3 * kRequests);
  EXPECT_GE(stage_sum + latency_sum / 10 + 500 * kRequests, latency_sum)
      << "stages " << stage_sum << " us of " << latency_sum << " us";
}

TEST_F(ServerTest, MetricsVerbExposesServerFamilies) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());
  ASSERT_TRUE(
      Call(*client, R"({"verb":"extract","collection":"inst",)"
                    R"("docs":["uc berkeley"]})")
          .Find("ok")
          ->AsBool());

  JsonValue metrics = Call(*client, R"({"verb":"metrics"})");
  ASSERT_TRUE(metrics.Find("ok")->AsBool());
  const std::string text = metrics.Find("text")->AsString();
  EXPECT_NE(text.find("aeetes_server_requests_total"), std::string::npos);
  EXPECT_NE(text.find("aeetes_server_batch_size"), std::string::npos);
  EXPECT_NE(text.find("aeetes_server_rate_limited_total"), std::string::npos);
  EXPECT_NE(text.find("aeetes_server_active_collections 1"),
            std::string::npos);

  JsonValue stats = Call(*client, R"({"verb":"stats"})");
  ASSERT_TRUE(stats.Find("ok")->AsBool());
  EXPECT_NE(stats.Find("stats"), nullptr);
}

TEST_F(ServerTest, LiveUpdateVerbsOverTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());

  // Upserting into a missing collection is a 404.
  JsonValue missing = Call(
      *client,
      R"({"verb":"upsert_entities","collection":"ghost","entities":["x"]})");
  EXPECT_FALSE(missing.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(missing.Find("code")->AsDouble(), kNotFound);

  JsonValue upserted = Call(
      *client, R"({"verb":"upsert_entities","collection":"inst",)"
               R"("entities":["stanford university"]})");
  ASSERT_TRUE(upserted.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(upserted.Find("upserted")->AsDouble(), 1);

  JsonValue removed = Call(
      *client, R"({"verb":"remove_entities","collection":"inst",)"
               R"("entities":["massachusetts institute of technology"]})");
  ASSERT_TRUE(removed.Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(removed.Find("removed")->AsDouble(), 1);

  // The overlay is live immediately: the upsert matches, the tombstoned
  // frozen entity does not.
  const std::string extract =
      R"({"verb":"extract","collection":"inst",)"
      R"("docs":["stanford university beats mit"],"tau":0.9})";
  auto texts_of = [](const JsonValue& extraction) {
    std::vector<std::string> texts;
    const JsonValue* matches =
        extraction.Find("results")->at(0).Find("matches");
    for (size_t m = 0; m < matches->size(); ++m) {
      texts.push_back(matches->at(m).Find("entity_text")->AsString());
    }
    return texts;
  };
  JsonValue before = Call(*client, extract);
  ASSERT_TRUE(before.Find("ok")->AsBool());
  std::vector<std::string> before_texts = texts_of(before);
  EXPECT_NE(std::find(before_texts.begin(), before_texts.end(),
                      "stanford university"),
            before_texts.end());
  EXPECT_EQ(std::find(before_texts.begin(), before_texts.end(),
                      "massachusetts institute of technology"),
            before_texts.end());

  JsonValue list = Call(*client, R"({"verb":"list"})");
  EXPECT_DOUBLE_EQ(
      list.Find("collections")->at(0).Find("delta_entities")->AsDouble(), 1);
  EXPECT_DOUBLE_EQ(
      list.Find("collections")->at(0).Find("tombstones")->AsDouble(), 1);

  JsonValue compact =
      Call(*client, R"({"verb":"compact","collection":"inst"})");
  ASSERT_TRUE(compact.Find("ok")->AsBool());
  EXPECT_TRUE(compact.Find("scheduled")->AsBool());
  EXPECT_DOUBLE_EQ(compact.Find("target_version")->AsDouble(), 2);

  // Compaction is async: poll list until the new image is published.
  bool compacted = false;
  for (int i = 0; i < 500 && !compacted; ++i) {
    JsonValue poll = Call(*client, R"({"verb":"list"})");
    compacted =
        poll.Find("collections")->at(0).Find("version")->AsDouble() >= 2;
    if (!compacted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(compacted) << "compaction never published version 2";

  // Identical results from the compacted image, empty successor overlay.
  JsonValue after = Call(*client, extract);
  ASSERT_TRUE(after.Find("ok")->AsBool());
  EXPECT_EQ(texts_of(after), before_texts);
  JsonValue final_list = Call(*client, R"({"verb":"list"})");
  EXPECT_DOUBLE_EQ(
      final_list.Find("collections")->at(0).Find("delta_entities")
          ->AsDouble(),
      0);
  EXPECT_DOUBLE_EQ(
      final_list.Find("collections")->at(0).Find("tombstones")->AsDouble(),
      0);

  JsonValue metrics = Call(*client, R"({"verb":"metrics"})");
  const std::string text = metrics.Find("text")->AsString();
  EXPECT_NE(text.find("aeetes_collection_compactions_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("aeetes_collection_delta_entities 0"),
            std::string::npos);
}

// Regression: a slow client used to make WriteReady spin the poll loop
// (EAGAIN retried in a tight loop) and let the outbox grow without bound
// while POLLIN kept accepting more work. Now the backlog gates POLLIN and
// the responses flush incrementally on POLLOUT, in request order, while
// other connections stay live.
TEST_F(ServerTest, SlowClientBackpressureKeepsOrderAndServerLiveness) {
  Server::Options options;
  options.outbox_high_watermark = 16u << 10;  // back up after ~16 KiB
  StartServer(std::move(options));
  auto admin = Connect();
  ASSERT_NE(admin, nullptr);
  ASSERT_TRUE(Call(*admin, kCreateInst).Find("ok")->AsBool());

  // A raw socket whose receive buffer is as small as the kernel allows:
  // the server's writes hit EAGAIN almost immediately.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 2048;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Pipeline many extracts without reading a byte. Request i carries
  // (i % 7) + 1 docs, so the response ordering is observable from the
  // results array size alone. Every doc yields several matches, so the
  // response bytes dwarf the watermark plus both socket buffers.
  constexpr size_t kRequests = 120;
  std::string wire;
  for (size_t i = 0; i < kRequests; ++i) {
    std::string request =
        R"({"verb":"extract","collection":"inst","docs":[)";
    const size_t docs = i % 7 + 1;
    for (size_t d = 0; d < docs; ++d) {
      if (d > 0) request += ',';
      request +=
          R"("uc berkeley and mit and uc berkeley and mit and uc berkeley")";
    }
    request += "]}";
    EncodeFrame(request, &wire);
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    ASSERT_GT(n, 0) << "short request write: " << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }

  // While the slow connection's outbox is clogged, the loop must keep
  // serving everyone else.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(Call(*admin, R"({"verb":"healthz"})").Find("ok")->AsBool());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Now drain: every response arrives intact and in request order.
  FrameReader reader;
  std::string payload;
  size_t received = 0;
  char buffer[4096];
  while (received < kRequests) {
    FrameReader::Next next = reader.Poll(&payload);
    if (next == FrameReader::Next::kNeedMore) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      ASSERT_GT(n, 0) << "connection died after " << received
                      << " responses";
      reader.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    ASSERT_EQ(next, FrameReader::Next::kFrame);
    auto response = ParseJson(payload);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->Find("ok")->AsBool()) << payload;
    EXPECT_EQ(response->Find("results")->size(), received % 7 + 1)
        << "response " << received << " out of order";
    ++received;
  }
  ::close(fd);
}

TEST_F(ServerTest, GracefulDrainFinishesInFlightWork) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(Call(*client, kCreateInst).Find("ok")->AsBool());
  ASSERT_TRUE(
      Call(*client, R"({"verb":"extract","collection":"inst",)"
                    R"("docs":["uc berkeley"]})")
          .Find("ok")
          ->AsBool());

  // Drain with a live, idle connection: the loop must close it, drain the
  // batcher, and exit — Wait() returning IS the assertion (a hang here
  // fails via the test timeout).
  server_->RequestDrain();
  server_->Wait();

  // The drained server refuses nothing — it is simply gone.
  auto late = Client::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(late.ok());
}

}  // namespace
}  // namespace server
}  // namespace aeetes
