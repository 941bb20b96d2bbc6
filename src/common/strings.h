// String and lightweight formatting utilities shared across the library.
// libstdc++ 12 lacks <format>, so `strf` provides stream-based formatting.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace lce {

/// Concatenate all arguments via operator<< into one string.
template <typename... Args>
std::string strf(Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return {};
  } else {
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
  }
}

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split `s` on any whitespace run, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Strip leading and trailing whitespace.
std::string trim(std::string_view s);

/// Join `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

std::string to_lower(std::string_view s);
std::string to_upper(std::string_view s);

/// "MapPublicIpOnLaunch" -> "map_public_ip_on_launch"
std::string camel_to_snake(std::string_view s);
/// "map_public_ip_on_launch" -> "MapPublicIpOnLaunch"
std::string snake_to_camel(std::string_view s);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// Parse a decimal signed integer; returns false on any non-numeric input
/// and on values outside int64, leaving `out` unchanged.
bool parse_int(std::string_view s, std::int64_t& out);

/// Render `n` with `digits` fractional digits (no locale).
std::string fixed(double n, int digits);

}  // namespace lce
