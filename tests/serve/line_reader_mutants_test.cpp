// Trust-boundary test of `serve::LineReader`: seeded byte-level mutants of
// a stream of request lines, delivered over a real socket in seeded chunk
// sizes, must each read back as exactly the frames an independent split
// of the same bytes gives — every '\n'-terminated frame with one trailing
// '\r' stripped, then EOF with any unterminated tail dropped.  A read
// returns a line, returns EOF or throws a typed exception, and never
// crashes or hangs: the reading socket has a receive timeout, so a read
// that would block fails the test instead of wedging it.  The one typed
// error the reader raises, a frame over kMaxLineBytes, cannot occur on
// these short streams (Framing.OversizedLineKillsTheConnectionInsteadOfGrowing
// covers it), so here any exception is a failure.

#include <gtest/gtest.h>

#ifndef _WIN32

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/framing.h"
#include "serve/socket.h"

namespace mhla::serve {
namespace {

/// Mutants checked; the seed and count are fixed so every run checks the
/// same corpus.
constexpr int kMutants = 3000;
constexpr std::uint64_t kSeed = 0x6c696e65;  // "line"

const std::vector<std::string> kBaseLines = {
    R"({"cmd": "submit", "app": "conv_filter", "config": {"strategy": "bnb"}})",
    R"({"cmd": "explore", "app": "qsdpcm", "budget": 8})",
    R"({"cmd": "metrics", "stream": true})",
    R"({"cmd": "status"})",
    R"({"cmd": "cancel", "job": 17})",
    "",
    R"({"cmd": "shutdown"})",
};

/// A base stream of 4-12 frames, some CRLF-terminated.
std::string base_stream(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> pick_line(0, kBaseLines.size() - 1);
  std::uniform_int_distribution<int> count(4, 12);
  std::string out;
  for (int i = count(rng); i > 0; --i) {
    out += kBaseLines[pick_line(rng)];
    out += (rng() % 3 == 0) ? "\r\n" : "\n";
  }
  return out;
}

constexpr const char* kTerminators[] = {"\n", "\r\n", "\r\r", "\n\n"};

std::string mutate(std::string text, std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  // Framing bytes are what the reader looks at, so they are favoured.
  auto byte = [&]() -> char {
    switch (pick(6)) {
      case 0: return '\n';
      case 1: return '\r';
      case 2: return '\0';
      case 3: return static_cast<char>(0x80 + pick(128));
      default: return static_cast<char>(pick(256));
    }
  };
  int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    std::size_t at = text.empty() ? 0 : pick(text.size() + 1);
    switch (pick(7)) {
      case 0:  // overwrite one byte
        if (at < text.size()) text[at] = byte();
        break;
      case 1:  // insert one byte
        text.insert(at, 1, byte());
        break;
      case 2:  // insert a bare or CRLF terminator, or a stray CR pair
        text.insert(at, kTerminators[pick(std::size(kTerminators))]);
        break;
      case 3:  // delete a short span
        if (at < text.size()) text.erase(at, 1 + pick(8));
        break;
      case 4:  // duplicate a span
        if (at < text.size()) text.insert(at, text.substr(at, 1 + pick(64)));
        break;
      case 5:  // a long run without a terminator: frames straddle read chunks
        text.insert(at, std::string(1 + pick(9000), static_cast<char>('a' + pick(26))));
        break;
      case 6:  // cut the tail, often mid-frame
        text.resize(at);
        break;
    }
  }
  return text;
}

/// What the reader must return for `bytes`: every '\n'-terminated frame,
/// one trailing '\r' stripped; an unterminated tail is not a frame.
std::vector<std::string> expected_frames(const std::string& bytes) {
  std::vector<std::string> frames;
  std::size_t start = 0;
  for (std::size_t newline = bytes.find('\n'); newline != std::string::npos;
       newline = bytes.find('\n', start)) {
    std::string frame = bytes.substr(start, newline - start);
    if (!frame.empty() && frame.back() == '\r') frame.pop_back();
    frames.push_back(std::move(frame));
    start = newline + 1;
  }
  return frames;
}

struct SocketPair {
  Socket writer, reader;
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    writer = Socket(fds[0]);
    reader = Socket(fds[1]);
    timeval timeout{5, 0};  // a read that would block becomes a recv error
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
};

/// One read through the reader, classified: a line, EOF, or an exception
/// (typed or not) — the only outcomes the contract allows besides a
/// crash, which the test would not survive.
struct Read {
  enum Kind { Line, Eof, Typed, Untyped } kind;
  std::string line;
  std::string error;
};

Read read_one(LineReader& reader) {
  Read out{Read::Eof, {}, {}};
  try {
    out.kind = reader.read_line(out.line) ? Read::Line : Read::Eof;
  } catch (const std::runtime_error& error) {
    out.kind = Read::Typed;
    out.error = error.what();
  } catch (...) {
    out.kind = Read::Untyped;
  }
  return out;
}

TEST(LineReaderMutants, EveryMutantReadsBackAsItsFramesThenEof) {
  std::mt19937_64 rng(kSeed);
  int frames_checked = 0;
  int mutants_with_tail = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string bytes = mutate(base_stream(rng), rng);
    const std::vector<std::string> frames = expected_frames(bytes);
    SCOPED_TRACE("mutant " + std::to_string(m) + " (" + std::to_string(bytes.size()) + " bytes)");
    SocketPair pair;
    LineReader reader(pair.reader);

    // Deliver the bytes in seeded chunks; after each chunk, read exactly
    // the frames it completed, so no read ever waits for bytes not sent.
    std::size_t sent = 0;
    std::size_t frames_read = 0;
    while (sent < bytes.size()) {
      std::size_t chunk = std::min(bytes.size() - sent,
                                   std::uniform_int_distribution<std::size_t>(1, 5000)(rng));
      ASSERT_TRUE(pair.writer.write_all(bytes.data() + sent, chunk));
      sent += chunk;
      const std::size_t complete = expected_frames(bytes.substr(0, sent)).size();
      for (; frames_read < complete; ++frames_read) {
        Read read = read_one(reader);
        ASSERT_EQ(read.kind, Read::Line) << "frame " << frames_read << ": " << read.error;
        ASSERT_EQ(read.line, frames[frames_read]) << "frame " << frames_read;
        ++frames_checked;
      }
    }
    ASSERT_EQ(frames_read, frames.size());
    if (!bytes.empty() && bytes.back() != '\n') ++mutants_with_tail;

    pair.writer.close();
    Read end = read_one(reader);
    ASSERT_EQ(end.kind, Read::Eof) << end.error;
    ASSERT_EQ(read_one(reader).kind, Read::Eof) << "EOF must be sticky";
  }
  // The mutator is not vacuous: it leaves frames to compare and cuts
  // streams mid-frame.
  EXPECT_GT(frames_checked, kMutants * 3);
  EXPECT_GT(mutants_with_tail, kMutants / 10);
}

}  // namespace
}  // namespace mhla::serve

#endif  // _WIN32
