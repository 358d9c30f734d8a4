#include "src/server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace s3fifo {
namespace {

ParseResult Parse(std::string_view data, ParseOutput& out) {
  return ParseCommand(data, out);
}

TEST(ProtocolTest, SingleGet) {
  ParseOutput out;
  const ParseResult r = Parse("get foo\r\n", out);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(r.consumed, 9u);
  ASSERT_EQ(out.ops.size(), 1u);
  EXPECT_EQ(out.ops[0].type, CmdType::kGet);
  EXPECT_EQ(out.ops[0].key_count, 1u);
  EXPECT_EQ(out.keys[0], "foo");
}

TEST(ProtocolTest, MultiKeyGetVariants) {
  for (const char* verb : {"get", "gets", "mget"}) {
    ParseOutput out;
    const std::string line = std::string(verb) + " a bb ccc\r\n";
    const ParseResult r = Parse(line, out);
    ASSERT_EQ(r.status, ParseStatus::kOk) << verb;
    ASSERT_EQ(out.ops[0].key_count, 3u) << verb;
    EXPECT_EQ(out.keys[0], "a");
    EXPECT_EQ(out.keys[1], "bb");
    EXPECT_EQ(out.keys[2], "ccc");
  }
}

TEST(ProtocolTest, SetWithBodyAndNoreply) {
  ParseOutput out;
  const ParseResult r = Parse("set k 7 0 5 noreply\r\nhello\r\nget k\r\n", out);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(r.consumed, 28u);  // header + 5-byte body + crlf
  ASSERT_EQ(out.ops.size(), 1u);
  EXPECT_EQ(out.ops[0].type, CmdType::kSet);
  EXPECT_EQ(out.ops[0].set_flags, 7u);
  EXPECT_TRUE(out.ops[0].noreply);
  EXPECT_EQ(out.ops[0].value, "hello");
}

TEST(ProtocolTest, SetBodyMayContainNewlines) {
  // Body bytes are length-framed, so \r\n inside the body is data.
  ParseOutput out;
  const ParseResult r = Parse("set k 0 0 6\r\na\r\nb!!\r\n", out);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(out.ops[0].value, std::string_view("a\r\nb!!"));
}

TEST(ProtocolTest, TornFramesAtEveryBoundaryNeedMore) {
  const std::string frame = "set key1 0 0 4\r\nbody\r\nget key1 other\r\n";
  // Every strict prefix that does not contain the full first command must
  // return kNeedMore and consume nothing.
  const size_t first_cmd_end = 22;  // set header + body + crlf
  for (size_t cut = 0; cut < first_cmd_end; ++cut) {
    ParseOutput out;
    const ParseResult r = Parse(std::string_view(frame).substr(0, cut), out);
    EXPECT_EQ(r.status, ParseStatus::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(r.consumed, 0u) << "cut=" << cut;
    EXPECT_TRUE(out.ops.empty()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, PipelinedBufferParsesSequentially) {
  const std::string buf =
      "get a\r\nset b 0 0 2\r\nxy\r\ndelete c\r\nstats\r\nversion\r\nquit\r\n";
  ParseOutput out;
  std::string_view rest = buf;
  std::vector<CmdType> types;
  while (!rest.empty()) {
    const ParseResult r = ParseCommand(rest, out);
    ASSERT_EQ(r.status, ParseStatus::kOk);
    types.push_back(out.ops.back().type);
    rest.remove_prefix(r.consumed);
  }
  ASSERT_EQ(types.size(), 6u);
  EXPECT_EQ(types[0], CmdType::kGet);
  EXPECT_EQ(types[1], CmdType::kSet);
  EXPECT_EQ(types[2], CmdType::kDelete);
  EXPECT_EQ(types[3], CmdType::kStats);
  EXPECT_EQ(types[4], CmdType::kVersion);
  EXPECT_EQ(types[5], CmdType::kQuit);
}

TEST(ProtocolTest, MalformedCommandsConsumeTheLine) {
  const struct {
    const char* input;
    const char* error_prefix;
  } cases[] = {
      {"bogus\r\n", "ERROR"},
      {"get\r\n", "CLIENT_ERROR"},                  // no keys
      {"set k 0 0\r\n", "CLIENT_ERROR"},            // missing bytes
      {"set k 0 0 nan\r\n", "CLIENT_ERROR"},        // non-numeric bytes
      {"delete\r\n", "CLIENT_ERROR"},               // no key
      {"stats now\r\n", "CLIENT_ERROR"},            // stats takes no args
      {"get k\n", "CLIENT_ERROR"},                  // bare LF
      {"set k 0 0 2\r\nxyz\r\n", "CLIENT_ERROR"},   // body not \r\n-terminated
  };
  for (const auto& c : cases) {
    ParseOutput out;
    const ParseResult r = Parse(c.input, out);
    ASSERT_EQ(r.status, ParseStatus::kError) << c.input;
    EXPECT_GT(r.consumed, 0u) << c.input;
    EXPECT_EQ(std::string(r.error).rfind(c.error_prefix, 0), 0u) << c.input;
    EXPECT_TRUE(out.ops.empty()) << c.input;
  }
}

TEST(ProtocolTest, OversizedKeyRejected) {
  ParseOutput out;
  const std::string key(kMaxKeyLen + 1, 'k');
  const ParseResult r = Parse("get " + key + "\r\n", out);
  ASSERT_EQ(r.status, ParseStatus::kError);
  // A key at exactly the limit is fine.
  const std::string max_key(kMaxKeyLen, 'k');
  ParseOutput out2;
  EXPECT_EQ(Parse("get " + max_key + "\r\n", out2).status, ParseStatus::kOk);
}

TEST(ProtocolTest, KeyWithControlBytesRejected) {
  ParseOutput out;
  EXPECT_EQ(Parse("get a\tb\r\n", out).status, ParseStatus::kError);
  EXPECT_EQ(Parse(std::string_view("get a\x7f\r\n", 9), out).status,
            ParseStatus::kError);
}

TEST(ProtocolTest, FatalFrames) {
  // Over-long command line: the stream cannot be re-synchronized.
  ParseOutput out;
  const std::string long_line(kMaxLineLen + 10, 'x');
  const ParseResult r1 = Parse(long_line, out);
  EXPECT_EQ(r1.status, ParseStatus::kFatal);
  // Oversized set body: refused before buffering.
  ParseOutput out2;
  const ParseResult r2 = Parse("set k 0 0 99999999\r\n", out2);
  EXPECT_EQ(r2.status, ParseStatus::kFatal);
  EXPECT_EQ(std::string(r2.error).rfind("SERVER_ERROR", 0), 0u);
}

TEST(ProtocolTest, TooManyKeysIsAnErrorNotTruncation) {
  std::string line = "get";
  for (int i = 0; i < 100; ++i) {
    line += " k" + std::to_string(i);
  }
  line += "\r\n";
  ParseOutput out;
  const ParseResult r = Parse(line, out);
  ASSERT_EQ(r.status, ParseStatus::kError);
  EXPECT_TRUE(out.ops.empty());  // never a silently-shortened get
}

TEST(ProtocolTest, TokenOverflowOutranksABadKey) {
  // 66 keys is one token past the limit: the line is refused as malformed
  // before any key is looked at, even though one of them is invalid.
  std::string line = "get";
  for (int i = 0; i < 66; ++i) {
    line += i == 40 ? " bad\x7f" : " k" + std::to_string(i);
  }
  line += "\r\n";
  ParseOutput out;
  const ParseResult r = Parse(line, out);
  ASSERT_EQ(r.status, ParseStatus::kError);
  EXPECT_STREQ(r.error, "CLIENT_ERROR bad command line format\r\n");
  EXPECT_EQ(r.consumed, line.size());
  EXPECT_TRUE(out.keys.empty());
}

TEST(ProtocolTest, RepeatedAndTrailingSpacesSeparateNothing) {
  ParseOutput out;
  const ParseResult r = Parse("get  a  b \r\n", out);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  ASSERT_EQ(out.ops.size(), 1u);
  ASSERT_EQ(out.ops[0].key_count, 2u);
  EXPECT_EQ(out.keys, (std::vector<std::string_view>{"a", "b"}));
}

TEST(ProtocolTest, GetWithoutKeysIsBadArgs) {
  for (const char* line : {"get\r\n", "get \r\n"}) {
    ParseOutput out;
    const ParseResult r = Parse(line, out);
    ASSERT_EQ(r.status, ParseStatus::kError) << line;
    EXPECT_STREQ(r.error, "CLIENT_ERROR bad command line format\r\n") << line;
    EXPECT_TRUE(out.ops.empty()) << line;
  }
}

TEST(ProtocolTest, TabDoesNotSeparateTheVerb) {
  // Only spaces separate tokens, so "get\ta" is one unknown verb.
  ParseOutput out;
  const ParseResult r = Parse("get\ta\r\n", out);
  ASSERT_EQ(r.status, ParseStatus::kError);
  EXPECT_STREQ(r.error, "ERROR\r\n");
  EXPECT_EQ(r.consumed, 7u);
}

TEST(ProtocolTest, KeyToIdDecimalRoundTrip) {
  EXPECT_EQ(KeyToId("0"), 0u);
  EXPECT_EQ(KeyToId("42"), 42u);
  EXPECT_EQ(KeyToId("18446744073709551615"), ~uint64_t{0});
  // Non-decimal and overflowing keys hash; distinct keys should (with these
  // specific values) get distinct ids.
  EXPECT_NE(KeyToId("foo"), KeyToId("bar"));
  EXPECT_NE(KeyToId("18446744073709551616"), 0u);  // overflow -> hashed
  // Hash is deterministic.
  EXPECT_EQ(KeyToId("foo"), KeyToId("foo"));
}

}  // namespace
}  // namespace s3fifo
