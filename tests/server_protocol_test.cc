// Frame codec, JSON parser, and request validation for the serving
// protocol (DESIGN.md §14). The framing/parsing surface is also fuzzed
// (fuzz/fuzz_server_frame.cc); these are the deterministic contracts.
#include <gtest/gtest.h>

#include <string>

#include "src/server/json.h"
#include "src/server/protocol.h"

namespace aeetes {
namespace server {
namespace {

std::string Frame(std::string_view payload) {
  std::string out;
  EncodeFrame(payload, &out);
  return out;
}

TEST(FrameReaderTest, RoundTripsOneFrame) {
  FrameReader reader;
  const std::string wire = Frame("{\"verb\":\"healthz\"}");
  reader.Feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_EQ(reader.Poll(&payload), FrameReader::Next::kFrame);
  EXPECT_EQ(payload, "{\"verb\":\"healthz\"}");
  EXPECT_EQ(reader.Poll(&payload), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, HeaderIsLittleEndianLengthPrefix) {
  const std::string wire = Frame("abc");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(wire[0], 3);
  EXPECT_EQ(wire[1], 0);
  EXPECT_EQ(wire[2], 0);
  EXPECT_EQ(wire[3], 0);
  EXPECT_EQ(wire.substr(4), "abc");
}

TEST(FrameReaderTest, ReassemblesAcrossByteAtATimeFeeds) {
  FrameReader reader;
  const std::string wire = Frame("hello") + Frame("") + Frame("world");
  std::vector<std::string> got;
  for (const char c : wire) {
    reader.Feed(&c, 1);
    std::string payload;
    while (reader.Poll(&payload) == FrameReader::Next::kFrame) {
      got.push_back(payload);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "world");
}

TEST(FrameReaderTest, HostileLengthPoisonsTheStream) {
  FrameReader reader(/*max_frame_bytes=*/1024);
  const char hostile[kFrameHeaderBytes] = {'\xff', '\xff', '\xff', '\x7f'};
  reader.Feed(hostile, sizeof(hostile));
  std::string payload;
  EXPECT_EQ(reader.Poll(&payload), FrameReader::Next::kBad);
  EXPECT_TRUE(reader.bad());
  // Stays bad even if more (valid-looking) bytes arrive.
  const std::string wire = Frame("x");
  reader.Feed(wire.data(), wire.size());
  EXPECT_EQ(reader.Poll(&payload), FrameReader::Next::kBad);
}

TEST(FrameReaderTest, LengthAtLimitIsAccepted) {
  FrameReader reader(/*max_frame_bytes=*/4);
  const std::string wire = Frame("abcd");
  reader.Feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Poll(&payload), FrameReader::Next::kFrame);
  EXPECT_EQ(payload, "abcd");
}

TEST(JsonTest, ParsesScalarsAndContainers) {
  auto v = ParseJson(R"({"a":1.5,"b":[true,false,null],"c":"x\n\"y\""})");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->Find("a")->AsDouble(), 1.5);
  ASSERT_TRUE(v->Find("b")->is_array());
  EXPECT_EQ(v->Find("b")->size(), 3u);
  EXPECT_TRUE(v->Find("b")->at(0).AsBool());
  EXPECT_TRUE(v->Find("b")->at(2).is_null());
  EXPECT_EQ(v->Find("c")->AsString(), "x\n\"y\"");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  auto v = ParseJson(R"(["é", "😀"])");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->at(0).AsString(), "\xc3\xa9");          // é
  EXPECT_EQ(v->at(1).AsString(), "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("01x").ok());
  EXPECT_FALSE(ParseJson("true garbage").ok());
  EXPECT_FALSE(ParseJson(R"("\ud800")").ok());  // lone high surrogate
  EXPECT_FALSE(ParseJson("\"ctrl \x01\"").ok());
}

TEST(JsonTest, EnforcesDepthAndValueLimits) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());

  JsonLimits tight;
  tight.max_values = 3;
  EXPECT_FALSE(ParseJson("[1,2,3,4]", tight).ok());
  EXPECT_TRUE(ParseJson("[1,2]", tight).ok());
}

TEST(ParseRequestTest, ParsesExtractWithAllKnobs)  {
  auto req = ParseRequest(
      R"({"verb":"extract","collection":"inst","tenant":"acme",)"
      R"("tau":0.7,"docs":["a","b"]})");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->verb, Verb::kExtract);
  EXPECT_EQ(req->collection, "inst");
  EXPECT_EQ(req->tenant, "acme");
  EXPECT_DOUBLE_EQ(req->tau, 0.7);
  ASSERT_EQ(req->docs.size(), 2u);
}

TEST(ParseRequestTest, DefaultsTenantAndTau) {
  auto req = ParseRequest(
      R"({"verb":"extract","collection":"c","docs":[]})");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->tenant, "default");
  EXPECT_DOUBLE_EQ(req->tau, 0.8);
}

TEST(ParseRequestTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[]").ok());                       // not object
  EXPECT_FALSE(ParseRequest(R"({"collection":"c"})").ok());    // no verb
  EXPECT_FALSE(ParseRequest(R"({"verb":"frobnicate"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"verb":"extract"})").ok());    // no coll
  EXPECT_FALSE(
      ParseRequest(R"({"verb":"extract","collection":"c"})").ok());  // docs
  EXPECT_FALSE(ParseRequest(
      R"({"verb":"extract","collection":"c","docs":[1]})").ok());
  EXPECT_FALSE(ParseRequest(
      R"({"verb":"extract","collection":"c","tau":0,"docs":[]})").ok());
  EXPECT_FALSE(ParseRequest(
      R"({"verb":"extract","collection":"c","tau":1.5,"docs":[]})").ok());
  // The filter strategy belongs to the engine; naming one in a request,
  // even a valid one, is a typed error that names the field.
  auto with_strategy = ParseRequest(
      R"({"verb":"extract","collection":"c","strategy":"lazy","docs":[]})");
  ASSERT_FALSE(with_strategy.ok());
  EXPECT_EQ(with_strategy.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(with_strategy.status().message().find("strategy"),
            std::string::npos);
  EXPECT_FALSE(ParseRequest(R"({"verb":"load","collection":"c"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"verb":"create","collection":"c"})").ok());
}

TEST(ParseRequestTest, RejectsHostileIdentifiers) {
  // Path traversal in a collection name must never reach the filesystem.
  EXPECT_FALSE(ParseRequest(
      R"({"verb":"delete","collection":"../etc/passwd"})").ok());
  EXPECT_FALSE(ParseRequest(
      R"({"verb":"delete","collection":""})").ok());
  const std::string overlong(kMaxTenantBytes + 1, 'a');
  EXPECT_FALSE(ParseRequest(R"({"verb":"extract","collection":"c","tenant":")" +
                            overlong + R"(","docs":[]})")
                   .ok());
  // At the limit is fine.
  const std::string at_limit(kMaxTenantBytes, 'a');
  EXPECT_TRUE(ParseRequest(R"({"verb":"extract","collection":"c","tenant":")" +
                           at_limit + R"(","docs":[]})")
                  .ok());
}

TEST(ErrorResponseTest, MapsStatusCodesToProtocolCodes) {
  EXPECT_EQ(StatusToErrorCode(Status::InvalidArgument("x")), kBadRequest);
  EXPECT_EQ(StatusToErrorCode(Status::NotFound("x")), kNotFound);
  EXPECT_EQ(StatusToErrorCode(Status::AlreadyExists("x")), kConflict);
  EXPECT_EQ(StatusToErrorCode(Status::ResourceExhausted("x")), kRateLimited);
  EXPECT_EQ(StatusToErrorCode(Status::FailedPrecondition("x")), kDraining);
  EXPECT_EQ(StatusToErrorCode(Status::Internal("x")), kInternalError);
  EXPECT_EQ(StatusToErrorCode(Status::IOError("x")), kInternalError);

  const std::string body = ErrorResponse(Status::NotFound("no such thing"));
  auto parsed = ParseJson(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(parsed->Find("code")->AsDouble(), 404);
  EXPECT_NE(parsed->Find("error")->AsString().find("no such thing"),
            std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace aeetes
