#include "graph/io_edgelist.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace graphct {

EdgeList parse_edge_list(std::string_view text) {
  EdgeList el;
  std::size_t pos = 0;
  std::int64_t lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    // Strip trailing CR and leading spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.empty() || line[0] == '#' || line[0] == '%' || line[0] == 'c') {
      continue;
    }
    std::int64_t vals[2] = {};
    std::size_t q = 0;
    for (int k = 0; k < 2; ++k) {
      while (q < line.size() && (line[q] == ' ' || line[q] == '\t')) ++q;
      GCT_CHECK(q < line.size() &&
                    std::isdigit(static_cast<unsigned char>(line[q])),
                "edge list line " + std::to_string(lineno) +
                    ": expected two vertex ids");
      const auto [end, ec] =
          std::from_chars(line.data() + q, line.data() + line.size(), vals[k]);
      GCT_CHECK(ec != std::errc::result_out_of_range,
                "edge list line " + std::to_string(lineno) +
                    ": vertex id out of range");
      q = static_cast<std::size_t>(end - line.data());
    }
    el.add(vals[0], vals[1]);
  }
  return el;
}

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GCT_CHECK(in.good(), "cannot open edge list file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_edge_list(ss.str());
}

std::string to_edge_list(const CsrGraph& g) {
  std::ostringstream os;
  os << "# GraphCT edge list: " << g.num_vertices() << " vertices, "
     << g.num_edges() << " edges\n";
  const vid n = g.num_vertices();
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.neighbors(u)) {
      if (!g.directed() && u > v) continue;
      os << u << ' ' << v << '\n';
    }
  }
  return os.str();
}

void write_edge_list(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GCT_CHECK(out.good(), "cannot open file for writing: " + path);
  out << to_edge_list(g);
  GCT_CHECK(out.good(), "write failed: " + path);
}

}  // namespace graphct
