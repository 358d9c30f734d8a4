#include "src/server/protocol.h"

#include <algorithm>

namespace s3fifo {

namespace {

constexpr const char* kErrUnknownCommand = "ERROR\r\n";
constexpr const char* kErrBadLineEnding = "CLIENT_ERROR bad line ending\r\n";
constexpr const char* kErrBadKey = "CLIENT_ERROR bad key\r\n";
constexpr const char* kErrBadArgs = "CLIENT_ERROR bad command line format\r\n";
constexpr const char* kErrBadChunk = "CLIENT_ERROR bad data chunk\r\n";
constexpr const char* kErrLineTooLong = "CLIENT_ERROR line too long\r\n";
constexpr const char* kErrTooLarge = "SERVER_ERROR object too large for cache\r\n";

bool ValidKey(std::string_view key) {
  if (key.empty() || key.size() > kMaxKeyLen) {
    return false;
  }
  for (char c : key) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7F) {
      return false;
    }
  }
  return true;
}

// Strict decimal u64; false on empty/overflow/non-digit.
bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (~uint64_t{0} - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

// Splits `line` into at most kMaxTokens space-separated tokens.
// Returns -1 (malformed, never silently truncates keys) on overflow.
constexpr int kMaxTokens = 66;  // verb + 64 keys + noreply

// One token: line[begin, begin + size). Trivially typed, so the slot array
// a command tokenizes into costs nothing until a slot is written.
struct Token {
  uint16_t begin;
  uint16_t size;
};
static_assert(kMaxLineLen < (1u << 16), "token offsets are 16-bit");

int Tokenize(std::string_view line, Token* tokens) {
  int n = 0;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    const size_t start = i;
    while (i < line.size() && line[i] != ' ') {
      ++i;
    }
    if (i > start) {
      if (n == kMaxTokens) {
        return -1;
      }
      tokens[n++] = {static_cast<uint16_t>(start), static_cast<uint16_t>(i - start)};
    }
  }
  return n;
}

ParseResult Error(const char* msg, size_t consumed) {
  return {ParseStatus::kError, consumed, msg};
}

ParseResult Fatal(const char* msg, size_t consumed) {
  return {ParseStatus::kFatal, consumed, msg};
}

}  // namespace

ParseResult ParseCommand(std::string_view data, ParseOutput& out) {
  if (data.empty()) {
    return {ParseStatus::kNeedMore, 0, nullptr};
  }
  const size_t scan_limit = std::min(data.size(), kMaxLineLen + 2);
  const size_t nl = data.substr(0, scan_limit).find('\n');
  if (nl == std::string_view::npos) {
    if (data.size() > kMaxLineLen) {
      // The rest of the stream cannot be re-synchronized once one frame is
      // unboundedly long; drain what we have and close.
      return Fatal(kErrLineTooLong, data.size());
    }
    return {ParseStatus::kNeedMore, 0, nullptr};
  }
  const size_t line_end = nl + 1;  // bytes including '\n'
  if (nl == 0 || data[nl - 1] != '\r') {
    return Error(kErrBadLineEnding, line_end);
  }
  const std::string_view line = data.substr(0, nl - 1);

  Token slots[kMaxTokens];  // deliberately uninitialised; see Token
  const int ntok = Tokenize(line, slots);
  if (ntok < 0) {
    return Error(kErrBadArgs, line_end);
  }
  if (ntok == 0) {
    return Error(kErrUnknownCommand, line_end);
  }
  const auto token = [&](int i) {
    return std::string_view(line.data() + slots[i].begin, slots[i].size);
  };
  const std::string_view verb = token(0);

  if (verb == "get" || verb == "gets" || verb == "mget") {
    if (ntok < 2) {
      return Error(kErrBadArgs, line_end);
    }
    for (int i = 1; i < ntok; ++i) {
      if (!ValidKey(token(i))) {
        return Error(kErrBadKey, line_end);
      }
    }
    ParsedOp op;
    op.type = CmdType::kGet;
    op.key_begin = static_cast<uint32_t>(out.keys.size());
    op.key_count = static_cast<uint32_t>(ntok - 1);
    for (int i = 1; i < ntok; ++i) {
      out.keys.push_back(token(i));
    }
    out.ops.push_back(op);
    return {ParseStatus::kOk, line_end, nullptr};
  }

  if (verb == "set") {
    const bool noreply = ntok == 6 && token(5) == "noreply";
    if (ntok != 5 && !noreply) {
      return Error(kErrBadArgs, line_end);
    }
    if (!ValidKey(token(1))) {
      return Error(kErrBadKey, line_end);
    }
    uint64_t flags = 0, exptime = 0, bytes = 0;
    if (!ParseU64(token(2), &flags) || !ParseU64(token(3), &exptime) ||
        !ParseU64(token(4), &bytes)) {
      return Error(kErrBadArgs, line_end);
    }
    if (bytes > kMaxValueBytes) {
      // The body length is trusted for framing; a body we refuse to buffer
      // means we can no longer delimit the stream. Respond and close.
      return Fatal(kErrTooLarge, line_end);
    }
    const size_t frame = line_end + static_cast<size_t>(bytes) + 2;
    if (data.size() < frame) {
      return {ParseStatus::kNeedMore, 0, nullptr};
    }
    if (data[frame - 2] != '\r' || data[frame - 1] != '\n') {
      return Error(kErrBadChunk, frame);
    }
    ParsedOp op;
    op.type = CmdType::kSet;
    op.key_begin = static_cast<uint32_t>(out.keys.size());
    op.key_count = 1;
    op.set_flags = static_cast<uint32_t>(flags);
    op.value = data.substr(line_end, bytes);
    op.noreply = noreply;
    out.keys.push_back(token(1));
    out.ops.push_back(op);
    return {ParseStatus::kOk, frame, nullptr};
  }

  if (verb == "delete") {
    const bool noreply = ntok == 3 && token(2) == "noreply";
    if (ntok != 2 && !noreply) {
      return Error(kErrBadArgs, line_end);
    }
    if (!ValidKey(token(1))) {
      return Error(kErrBadKey, line_end);
    }
    ParsedOp op;
    op.type = CmdType::kDelete;
    op.key_begin = static_cast<uint32_t>(out.keys.size());
    op.key_count = 1;
    op.noreply = noreply;
    out.keys.push_back(token(1));
    out.ops.push_back(op);
    return {ParseStatus::kOk, line_end, nullptr};
  }

  if (verb == "stats" || verb == "version" || verb == "quit") {
    if (ntok != 1) {
      return Error(kErrBadArgs, line_end);
    }
    ParsedOp op;
    op.type = verb == "stats" ? CmdType::kStats
                              : (verb == "version" ? CmdType::kVersion : CmdType::kQuit);
    out.ops.push_back(op);
    return {ParseStatus::kOk, line_end, nullptr};
  }

  return Error(kErrUnknownCommand, line_end);
}

uint64_t KeyToId(std::string_view key) {
  uint64_t decimal = 0;
  if (ParseU64(key, &decimal)) {
    return decimal;
  }
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace s3fifo
