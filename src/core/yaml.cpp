#include "core/yaml.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace mfc {

Yaml& Yaml::operator[](const std::string& key) {
    MFC_REQUIRE(kind_ == Kind::Map, "Yaml: operator[] on non-map node");
    auto it = map_.find(key);
    if (it == map_.end()) {
        order_.push_back(key);
        it = map_.emplace(key, Yaml{}).first;
    }
    return it->second;
}

const Yaml& Yaml::at(const std::string& key) const {
    MFC_REQUIRE(kind_ == Kind::Map, "Yaml: at() on non-map node");
    const auto it = map_.find(key);
    MFC_REQUIRE(it != map_.end(), "Yaml: missing key '" + key + "'");
    return it->second;
}

bool Yaml::contains(const std::string& key) const {
    return kind_ == Kind::Map && map_.count(key) > 0;
}

void Yaml::push_back(Yaml node) {
    MFC_REQUIRE(kind_ == Kind::Map || kind_ == Kind::List,
                "Yaml: push_back on scalar node");
    MFC_REQUIRE(map_.empty(), "Yaml: push_back on non-empty map");
    kind_ = Kind::List;
    list_.push_back(std::move(node));
}

void Yaml::set(Value v) {
    MFC_REQUIRE(map_.empty() && list_.empty(),
                "Yaml: set() on non-empty container node");
    kind_ = Kind::Scalar;
    scalar_ = std::move(v);
}

const Value& Yaml::value() const {
    MFC_REQUIRE(kind_ == Kind::Scalar, "Yaml: value() on non-scalar node");
    return scalar_;
}

void Yaml::sort_keys() {
    if (kind_ == Kind::Map) {
        std::sort(order_.begin(), order_.end());
        for (auto& [key, child] : map_) child.sort_keys();
    } else if (kind_ == Kind::List) {
        for (Yaml& item : list_) item.sort_keys();
    }
}

void Yaml::dump_into(std::string& out, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    switch (kind_) {
    case Kind::Scalar:
        out += scalar_.to_string();
        out += '\n';
        break;
    case Kind::Map:
        for (const auto& key : order_) {
            const Yaml& child = map_.at(key);
            out += pad;
            out += key;
            out += ':';
            if (child.is_scalar()) {
                out += ' ';
                child.dump_into(out, 0);
            } else {
                out += '\n';
                child.dump_into(out, indent + 1);
            }
        }
        break;
    case Kind::List:
        for (const Yaml& item : list_) {
            MFC_REQUIRE(item.is_scalar(), "Yaml: only scalar list items supported");
            out += pad;
            out += "- ";
            item.dump_into(out, 0);
        }
        break;
    }
}

std::string Yaml::dump() const {
    std::string out;
    dump_into(out, 0);
    return out;
}

namespace {

struct Line {
    int indent = 0;
    std::string text; // trimmed content
};

std::vector<Line> scan_lines(const std::string& text) {
    std::vector<Line> lines;
    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        std::size_t i = 0;
        while (i < raw.size() && raw[i] == ' ') ++i;
        const std::string body = trim(raw.substr(i));
        if (body.empty() || body[0] == '#') continue;
        MFC_REQUIRE(i % 2 == 0, "Yaml: odd indentation: '" + raw + "'");
        lines.push_back({static_cast<int>(i / 2), body});
    }
    return lines;
}

Yaml parse_block(const std::vector<Line>& lines, std::size_t& pos, int indent) {
    Yaml node;
    bool as_list = !lines.empty() && pos < lines.size() &&
                   starts_with(lines[pos].text, "- ");
    while (pos < lines.size() && lines[pos].indent >= indent) {
        const Line& line = lines[pos];
        MFC_REQUIRE(line.indent == indent, "Yaml: unexpected indentation jump");
        if (as_list) {
            MFC_REQUIRE(starts_with(line.text, "- "),
                        "Yaml: mixed list and map entries");
            node.push_back(Yaml(Value::parse(line.text.substr(2))));
            ++pos;
            continue;
        }
        const std::size_t colon = line.text.find(':');
        MFC_REQUIRE(colon != std::string::npos,
                    "Yaml: expected 'key: value': '" + line.text + "'");
        const std::string key = trim(line.text.substr(0, colon));
        const std::string rest = trim(line.text.substr(colon + 1));
        if (!rest.empty()) {
            node[key].set(Value::parse(rest));
            ++pos;
        } else {
            ++pos;
            node[key] = parse_block(lines, pos, indent + 1);
        }
    }
    return node;
}

} // namespace

Yaml Yaml::parse(const std::string& text) {
    const std::vector<Line> lines = scan_lines(text);
    std::size_t pos = 0;
    Yaml root = parse_block(lines, pos, 0);
    MFC_REQUIRE(pos == lines.size(), "Yaml: trailing unparsed content");
    return root;
}

void Yaml::save(const std::string& path) const { write_text_file(path, dump()); }

Yaml Yaml::load(const std::string& path) {
    std::ifstream in(path);
    MFC_REQUIRE(in.good(), "Yaml: cannot open for read: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

} // namespace mfc
