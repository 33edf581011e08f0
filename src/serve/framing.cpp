#include "serve/framing.h"

#include <stdexcept>

namespace mhla::serve {

bool LineReader::read_line(std::string& line) {
  for (;;) {
    std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (buffer_.size() > kMaxLineBytes) {
      throw std::runtime_error("protocol violation: line exceeds " +
                               std::to_string(kMaxLineBytes) + " bytes");
    }
    char chunk[4096];
    std::size_t n = socket_.read_some(chunk, sizeof(chunk));
    if (n == 0) return false;  // EOF; any partial trailing line was never committed
    buffer_.append(chunk, n);
  }
}

bool write_line(Socket& socket, const std::string& line) { return write_lines(socket, {line}); }

bool write_lines(Socket& socket, std::initializer_list<std::string_view> lines) {
  std::size_t size = 0;
  for (std::string_view line : lines) size += line.size() + 1;
  std::string frame;
  frame.reserve(size);
  for (std::string_view line : lines) {
    frame.append(line);
    frame.push_back('\n');
  }
  return socket.write_all(frame.data(), frame.size());
}

}  // namespace mhla::serve
