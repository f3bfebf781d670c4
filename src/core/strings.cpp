#include "core/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>

#include "core/error.hpp"

namespace mfc {

namespace {

std::string_view trim_view(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && is_space(s[b])) ++b;
    while (e > b && is_space(s[e - 1])) --e;
    return s.substr(b, e - b);
}

} // namespace

std::string trim(std::string_view s) { return std::string(trim_view(s)); }

std::vector<std::string> split(std::string_view s, char sep) {
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (true) {
        const std::size_t pos = s.find(sep, begin);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(begin));
            return out;
        }
        out.emplace_back(s.substr(begin, pos - begin));
        begin = pos + 1;
    }
}

std::vector<std::string> split_ws(std::string_view s) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && is_space(s[i])) ++i;
        std::size_t b = i;
        while (i < s.size() && !is_space(s[i])) ++i;
        if (i > b) out.emplace_back(s.substr(b, i - b));
    }
    return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string replace_all(std::string s, std::string_view from, std::string_view to) {
    if (from.empty()) return s;
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

char* format_sci(char* out, double v) {
    // to_chars is correctly rounded (ties to even) like glibc's printf in
    // the default rounding mode, so upper-casing its "e"/"inf"/"nan"
    // reproduces "%.16E" exactly, signs of zero and NaN included.
    const std::to_chars_result r = std::to_chars(
        out, out + kMaxSciChars, v, std::chars_format::scientific, 16);
    MFC_DBG_ASSERT(r.ec == std::errc{});
    for (char* p = out; p != r.ptr; ++p) {
        if (*p >= 'a' && *p <= 'z') *p = static_cast<char>(*p - 'a' + 'A');
    }
    return r.ptr;
}

std::string format_sci(double v) {
    char buf[kMaxSciChars];
    return std::string(buf, format_sci(buf, v));
}

long long parse_int(std::string_view s) {
    const std::string_view t = trim_view(s);
    long long value = 0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc{} || ptr != t.data() + t.size()) {
        fail("parse_int: not an integer: '" + std::string(t) + "'");
    }
    return value;
}

double parse_double(std::string_view s) {
    const std::string_view t = trim_view(s);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc{} || ptr != t.data() + t.size()) {
        fail("parse_double: not a number: '" + std::string(t) + "'");
    }
    return value;
}

void write_text_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    MFC_REQUIRE(out.good(), "cannot write " + path);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close(); // flushes: a full disk fails here, not silently later
    MFC_REQUIRE(!out.fail(), "short write to " + path);
}

} // namespace mfc
