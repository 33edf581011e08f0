#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

#include "serve/socket.h"

namespace mhla::serve {

/// Hard cap on one frame.  A line that exceeds it is a protocol violation
/// (or garbage traffic) and kills the connection instead of growing the
/// buffer without bound.
constexpr std::size_t kMaxLineBytes = 16u * 1024 * 1024;

/// Newline-delimited framing over a Socket: every message is one complete
/// JSON document on one line, terminated by '\n' (a trailing '\r' is
/// stripped, so telnet/CRLF clients work).  This is the whole wire format
/// of mhla_serve — trivially inspectable with nc/telnet, trivially
/// parseable from any language, and self-resynchronizing: a reader that
/// joins mid-stream is aligned again at the next newline.
class LineReader {
 public:
  explicit LineReader(Socket& socket) : socket_(socket) {}

  /// Next complete line (without its terminator) into `line`.  Returns
  /// false on EOF — including an EOF that truncates a partial trailing
  /// line, which is dropped: a frame without its newline was never
  /// committed by the sender.  Throws std::runtime_error when a line
  /// exceeds kMaxLineBytes.
  bool read_line(std::string& line);

 private:
  Socket& socket_;
  std::string buffer_;
};

/// Write `line` plus the '\n' terminator; false when the peer is gone.
bool write_line(Socket& socket, const std::string& line);

/// Write `lines`, each plus its terminator, as one frame in one write (so a
/// reader never sees the first without the rest having been sent); false
/// when the peer is gone.
bool write_lines(Socket& socket, std::initializer_list<std::string_view> lines);

}  // namespace mhla::serve
