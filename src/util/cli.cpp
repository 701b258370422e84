#include "util/cli.hpp"

#include <charconv>
#include <sstream>

#include "util/error.hpp"

namespace graphct {

std::int64_t parse_int_in_range(const std::string& what,
                                const std::string& text, std::int64_t lo,
                                std::int64_t hi) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  GCT_CHECK(!text.empty() && stop == end,
            what + " expects an integer, got '" + text + "'");
  // An integer past int64 parses whole but reports out of range.
  GCT_CHECK(ec == std::errc() && v >= lo && v <= hi,
            what + " must be in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got " + text);
  return v;
}

Cli::Cli(int argc, const char* const* argv,
         std::map<std::string, std::string> spec)
    : spec_(std::move(spec)) {
  auto is_bool = [&](const std::string& name) {
    auto it = spec_.find(name);
    return it != spec_.end() && !it->second.empty() &&
           it->second.back() == '!';
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name = arg, value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    GCT_CHECK(spec_.count(name), "unknown flag --" + name);
    if (!has_value && !is_bool(name)) {
      GCT_CHECK(i + 1 < argc, "flag --" + name + " expects a value");
      value = argv[++i];
      has_value = true;
    }
    values_[name] = has_value ? value : "true";
  }
}

bool Cli::has(const std::string& name) const {
  GCT_CHECK(spec_.count(name), "querying undeclared flag --" + name);
  return values_.count(name) != 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  GCT_CHECK(spec_.count(name), "querying undeclared flag --" + name);
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get(const std::string& name, std::int64_t def) const {
  auto s = get(name, std::string());
  if (s.empty()) return def;
  try {
    return std::stoll(s);
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects an integer, got '" + s + "'");
  }
}

std::int64_t Cli::get_in_range(const std::string& name, std::int64_t def,
                               std::int64_t lo, std::int64_t hi) const {
  const std::string s = get(name, std::string());
  return s.empty() ? def : parse_int_in_range("flag --" + name, s, lo, hi);
}

double Cli::get(const std::string& name, double def) const {
  auto s = get(name, std::string());
  if (s.empty()) return def;
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects a number, got '" + s + "'");
  }
}

std::string Cli::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, desc] : spec_) {
    std::string d = desc;
    bool boolean = !d.empty() && d.back() == '!';
    if (boolean) d.pop_back();
    os << "  --" << name << (boolean ? "" : " <value>") << "  " << d << '\n';
  }
  return os.str();
}

}  // namespace graphct
