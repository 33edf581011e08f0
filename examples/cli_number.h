#pragma once

// Strict numeric flag values for the command-line tools (mhla_tool,
// mhla_serve, mhla_client): the whole token must be a number, so a
// mistyped value such as "2x" is a validation error naming the flag rather
// than a silently truncated "2".  A leading '+' is not a number here, and
// neither are "inf" and "nan".

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace mhla::cli {

/// Parse all of `token` as a T (an integer, or a floating-point value in
/// `std::from_chars`' general format) for command-line flag `flag`.
/// Throws std::invalid_argument naming the flag when the token is empty,
/// has anything after the number, is out of T's range or is not finite.
template <typename T>
T parse_number(const std::string& flag, const std::string& token) {
  T value{};
  const char* last = token.data() + token.size();
  auto [end, ec] = std::from_chars(token.data(), last, value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (token.empty() || ec != std::errc() || end != last || !finite) {
    throw std::invalid_argument(flag + " needs a number, got '" + token + "'");
  }
  return value;
}

}  // namespace mhla::cli
