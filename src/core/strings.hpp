#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mfc {

/// String helpers shared by the toolchain parsers (modules registry, YAML
/// reader, golden files, template engine).

/// The C locale's isspace set (' ', \t, \n, \v, \f, \r), without a
/// locale lookup per character.
[[nodiscard]] constexpr bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

[[nodiscard]] std::string trim(std::string_view s);
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
/// Split on runs of whitespace; no empty tokens.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
/// Replace every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string s, std::string_view from,
                                      std::string_view to);

/// Format a double the way MFC's serial output formatter does: full
/// round-trip precision, fixed-width scientific notation so golden files
/// diff cleanly across systems. Byte for byte printf's "%.16E".
[[nodiscard]] std::string format_sci(double v);

/// Longest format_sci text: "-1.2345678901234567E+308".
inline constexpr std::size_t kMaxSciChars = 24;

/// format_sci into out[0, kMaxSciChars) without allocating; returns one
/// past the last character written.
char* format_sci(char* out, double v);

/// Parse helpers that raise mfc::Error with context on malformed input.
/// Surrounding whitespace is ignored; the rest must be one whole
/// std::from_chars number (no leading '+', no hex, no trailing junk, no
/// out-of-range magnitude).
[[nodiscard]] long long parse_int(std::string_view s);
[[nodiscard]] double parse_double(std::string_view s);

/// Write `text` to `path`; throws mfc::Error naming the file when it cannot
/// be opened (a directory) or the write does not reach it whole (a full
/// device). The one text writer of YAML, case and golden files.
void write_text_file(const std::string& path, const std::string& text);

} // namespace mfc
