#include "toolchain/golden.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace mfc::toolchain {

namespace fs = std::filesystem;

bool GoldenFile::has(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.first == name) return true;
    }
    return false;
}

const std::vector<double>& GoldenFile::values(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.first == name) return e.second;
    }
    fail("GoldenFile: no entry named '" + name + "'");
}

void GoldenFile::add(std::string name, std::vector<double> values) {
    MFC_REQUIRE(!has(name), "GoldenFile: duplicate entry '" + name + "'");
    MFC_REQUIRE(name.find_first_of(" \t\n") == std::string::npos,
                "GoldenFile: entry name must not contain whitespace");
    entries_.emplace_back(std::move(name), std::move(values));
}

std::string GoldenFile::serialize() const {
    // One buffer sized for the widest value text, filled in place and cut
    // to length once: no temporary string per value.
    std::size_t bound = 0;
    for (const Entry& e : entries_) {
        bound += e.first.size() + 1 + e.second.size() * (1 + kMaxSciChars);
    }
    std::string out(bound, '\0');
    char* p = out.data();
    for (const Entry& e : entries_) {
        p = std::copy(e.first.begin(), e.first.end(), p);
        for (const double v : e.second) {
            *p++ = ' ';
            p = format_sci(p, v);
        }
        *p++ = '\n';
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
    return out;
}

GoldenFile GoldenFile::parse(const std::string& text) {
    // Shortest finite " value" serialize() writes (" 1.2345678901234567E+00"),
    // so the per-line reservation covers every finite row it wrote;
    // push_back still grows for INF/NAN and hand-written short tokens.
    constexpr std::ptrdiff_t kMinValueChars = 23;
    GoldenFile g;
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p < end) {
        const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
        const char* eol = nl != nullptr ? static_cast<const char*>(nl) : end;
        // Tokens are maximal runs of non-whitespace; the first names the
        // entry, the rest are its values. Blank lines carry no entry.
        const auto skip_space = [&] {
            while (p < eol && is_space(*p)) ++p;
        };
        const auto token_end = [&] {
            const char* t = p;
            while (t < eol && !is_space(*t)) ++t;
            return t;
        };
        skip_space();
        if (p < eol) {
            const char* name_end = token_end();
            std::string name(p, name_end);
            p = name_end;
            std::vector<double> values;
            values.reserve(static_cast<std::size_t>((eol - p) / kMinValueChars));
            for (skip_space(); p < eol; skip_space()) {
                // from_chars stops at the whitespace after a number, so a
                // whole-token parse needs no separate scan for its end. A
                // token it does not consume whole is handed to
                // parse_double, which rejects it by name.
                double v = 0.0;
                std::from_chars_result r = std::from_chars(p, eol, v);
                if (r.ec != std::errc{} || (r.ptr != eol && !is_space(*r.ptr))) {
                    r.ptr = token_end();
                    v = parse_double(std::string_view(p, static_cast<std::size_t>(r.ptr - p)));
                }
                values.push_back(v);
                p = r.ptr;
            }
            g.add(std::move(name), std::move(values));
        }
        p = eol == end ? end : eol + 1;
    }
    return g;
}

void GoldenFile::save(const std::string& path) const {
    write_text_file(path, serialize());
}

GoldenFile GoldenFile::load(const std::string& path) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec); // fails unless regular
    std::ifstream in(path, std::ios::binary);
    MFC_REQUIRE(!ec && in.good(),
                "GoldenFile: cannot read " + path + " (not a readable regular file)");
    std::string text(static_cast<std::size_t>(size), '\0');
    in.read(text.data(), static_cast<std::streamsize>(size));
    MFC_REQUIRE(static_cast<std::uintmax_t>(in.gcount()) == size,
                "GoldenFile: short read of " + path);
    GoldenFile g;
    try {
        g = parse(text);
    } catch (const Error& e) {
        fail("GoldenFile: cannot parse " + path + ": " + e.what());
    }
    MFC_REQUIRE(!g.entries().empty(), "GoldenFile: " + path + " holds no entries");
    return g;
}

CompareResult compare_golden(const GoldenFile& reference,
                             const GoldenFile& current, double abs_tol,
                             double rel_tol) {
    CompareResult r;
    if (reference.entries().empty()) {
        // Nothing to compare is not a pass: an empty or truncated golden
        // must never vouch for a run.
        r.ok = false;
        r.message = "reference golden has no entries";
        return r;
    }
    for (const auto& [name, ref] : reference.entries()) {
        if (!current.has(name)) {
            r.ok = false;
            ++r.mismatched_values;
            if (r.message.empty()) r.message = "missing output '" + name + "'";
            continue;
        }
        const std::vector<double>& cur = current.values(name);
        if (cur.size() != ref.size()) {
            r.ok = false;
            ++r.mismatched_values;
            if (r.message.empty()) {
                r.message = "size mismatch for '" + name + "': " +
                            std::to_string(ref.size()) + " vs " +
                            std::to_string(cur.size());
            }
            continue;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const double abs_err = std::abs(cur[i] - ref[i]);
            const double denom = std::abs(ref[i]);
            const double rel_err = denom > 0.0 ? abs_err / denom
                                               : (abs_err > 0.0 ? 1.0 : 0.0);
            r.max_abs_err = std::max(r.max_abs_err, abs_err);
            r.max_rel_err = std::max(r.max_rel_err, rel_err);
            if (abs_err > abs_tol && rel_err > rel_tol) {
                r.ok = false;
                ++r.mismatched_values;
                if (r.message.empty()) {
                    r.message = "'" + name + "'[" + std::to_string(i) +
                                "]: " + format_sci(ref[i]) + " vs " +
                                format_sci(cur[i]);
                }
            }
        }
    }
    return r;
}

GoldenFile add_new_variables(const GoldenFile& existing, const GoldenFile& fresh) {
    GoldenFile merged = existing;
    for (const auto& [name, values] : fresh.entries()) {
        if (!merged.has(name)) merged.add(name, values);
    }
    return merged;
}

std::string golden_metadata(const std::string& uuid, const std::string& trace,
                            const std::string& canonical_params) {
    std::string out;
    out += "uuid: " + uuid + "\n";
    out += "trace: " + trace + "\n";
    out += "generator: mfcpp (C++ reproduction of the MFC toolchain)\n";
    out += "precision: double\n";
    out += "tolerance: " + format_sci(kDefaultTolerance) + "\n";
    out += "parameters:\n";
    out += canonical_params;
    return out;
}

} // namespace mfc::toolchain
