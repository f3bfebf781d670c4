#include "toolchain/case_io.hpp"

#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace mfc::toolchain {

CaseDict parse_case_text(const std::string& text) {
    CaseDict dict;
    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        // Strip trailing comments, then whitespace.
        const std::size_t hash = raw.find('#');
        const std::string line = trim(hash == std::string::npos
                                          ? raw
                                          : raw.substr(0, hash));
        if (line.empty()) continue;

        std::string key, value;
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos) {
            key = trim(line.substr(0, eq));
            value = trim(line.substr(eq + 1));
        } else {
            const std::vector<std::string> tokens = split_ws(line);
            MFC_REQUIRE(tokens.size() == 2,
                        "case file: expected 'key = value' at line " +
                            std::to_string(lineno) + ": '" + line + "'");
            key = tokens[0];
            value = tokens[1];
        }
        MFC_REQUIRE(!key.empty() && !value.empty(),
                    "case file: empty key or value at line " +
                        std::to_string(lineno));
        MFC_REQUIRE(dict.count(key) == 0,
                    "case file: duplicate parameter '" + key + "' at line " +
                        std::to_string(lineno));
        dict[key] = Value::parse(value);
    }
    return dict;
}

CaseDict load_case_file(const std::string& path) {
    std::ifstream in(path);
    MFC_REQUIRE(in.good(), "case file: cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse_case_text(ss.str());
}

std::string dump_case_text(const CaseDict& dict) {
    std::size_t width = 0;
    for (const auto& [k, v] : dict) width = std::max(width, k.size());
    std::string out;
    for (const auto& [k, v] : dict) {
        out += k;
        out.append(width - k.size() + 1, ' ');
        out += "= ";
        out += v.to_string();
        out += '\n';
    }
    return out;
}

void save_case_file(const CaseDict& dict, const std::string& path) {
    write_text_file(path, dump_case_text(dict));
}

} // namespace mfc::toolchain
