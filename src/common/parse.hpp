// parse.hpp — the one text codec: strict scalar parsing shared by CSV
// readers and CLI flags, bit-exact double formatting, and the percent
// escapes that pack arbitrary text into one whitespace-free token.
//
// std::stoull quietly wraps negative input ("-1" → 2^64-1) and std::stod
// accepts trailing garbage; every serialized-integer consumer here (sweep
// plans, journals, sweep_worker flags) wants the same rule instead: digits
// only, full consumption, ConfigError naming the field otherwise.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace liquid3d {

/// Strict base-10 unsigned parse: digits only (no sign, no whitespace, no
/// trailing characters).  `what` names the field/flag in the error.
[[nodiscard]] inline std::uint64_t parse_u64(const std::string& text,
                                             const std::string& what) {
  std::uint64_t v = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v, 10);
  LIQUID3D_REQUIRE(ec == std::errc() && ptr == end && !text.empty(),
                   what + ": not an unsigned integer: '" + text + "'");
  return v;
}

/// Strict double parse: full consumption required ("60x" is an error, not
/// 60).  Accepts everything strtod does otherwise (sign, exponent); built
/// on strtod rather than std::stod so subnormals round to the nearest
/// representable value instead of throwing out_of_range.
[[nodiscard]] inline double parse_double(const std::string& text,
                                         const std::string& what) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  LIQUID3D_REQUIRE(end == begin + text.size() && !text.empty(),
                   what + ": not a number: '" + text + "'");
  return v;
}

/// %.17g: the shortest printf form that round-trips every double through
/// parse_double bit-exactly.
[[nodiscard]] inline std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Escape '%', whitespace and control bytes as %XX, so the token survives
/// any line or space tokenizer unsplit.
[[nodiscard]] inline std::string percent_encode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '%' || c <= 0x20 || c == 0x7f) {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    } else {
      out += ch;
    }
  }
  return out;
}

/// Inverse of percent_encode (either hex case); a truncated or malformed
/// escape is a ConfigError naming `what`.
[[nodiscard]] inline std::string percent_decode(const std::string& token,
                                                const std::string& what) {
  const auto hex_digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string raw;
  raw.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      raw += token[i];
      continue;
    }
    LIQUID3D_REQUIRE(i + 2 < token.size(),
                     what + ": truncated %XX escape in '" + token + "'");
    const int hi = hex_digit(token[i + 1]);
    const int lo = hex_digit(token[i + 2]);
    LIQUID3D_REQUIRE(hi >= 0 && lo >= 0,
                     what + ": malformed %XX escape in '" + token + "'");
    raw += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return raw;
}

}  // namespace liquid3d
