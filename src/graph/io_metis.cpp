#include "graph/io_metis.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "util/error.hpp"

namespace graphct {

namespace {

// Split text into non-comment lines (views into `text`).
std::vector<std::string_view> content_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty() && line.front() == '%') continue;
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::int64_t> parse_ints(std::string_view line, int lineno) {
  std::vector<std::int64_t> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    GCT_CHECK(std::isdigit(static_cast<unsigned char>(line[i])),
              "METIS line " + std::to_string(lineno) +
                  ": expected an unsigned integer");
    std::int64_t v = 0;
    const auto [end, ec] =
        std::from_chars(line.data() + i, line.data() + line.size(), v);
    GCT_CHECK(ec != std::errc::result_out_of_range,
              "METIS line " + std::to_string(lineno) +
                  ": integer out of range");
    i = static_cast<std::size_t>(end - line.data());
    out.push_back(v);
  }
  return out;
}

}  // namespace

CsrGraph parse_metis(std::string_view text) {
  const auto lines = content_lines(text);
  GCT_CHECK(!lines.empty(), "METIS: empty input");

  const auto header = parse_ints(lines[0], 1);
  GCT_CHECK(header.size() >= 2 && header.size() <= 4,
            "METIS: header must be '<n> <m> [fmt [ncon]]'");
  const std::int64_t n = header[0];
  const std::int64_t m = header[1];
  GCT_CHECK(header.size() < 3 || header[2] == 0,
            "METIS: weighted formats (fmt != 0) are not supported");
  GCT_CHECK(static_cast<std::int64_t>(lines.size()) >= n + 1,
            "METIS: fewer vertex lines than the declared vertex count");

  EdgeList el(n);
  el.reserve(static_cast<std::size_t>(m));
  for (std::int64_t v = 0; v < n; ++v) {
    const auto nbrs = parse_ints(lines[static_cast<std::size_t>(v) + 1],
                                 static_cast<int>(v + 2));
    for (std::int64_t u : nbrs) {
      GCT_CHECK(u >= 1 && u <= n,
                "METIS: neighbor id out of range on vertex line " +
                    std::to_string(v + 1));
      if (u - 1 >= v) el.add(v, u - 1);  // each undirected edge appears twice
    }
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.dedup = true;
  const CsrGraph g = build_csr(el, opts);
  GCT_CHECK(g.num_edges() == m,
            "METIS: declared edge count " + std::to_string(m) +
                " does not match adjacency (" + std::to_string(g.num_edges()) +
                ")");
  return g;
}

CsrGraph read_metis(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GCT_CHECK(in.good(), "cannot open METIS file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_metis(ss.str());
}

std::string to_metis(const CsrGraph& g) {
  GCT_CHECK(!g.directed(), "to_metis: graph must be undirected");
  std::ostringstream os;
  os << "% GraphCT METIS export\n";
  const vid n = g.num_vertices();
  os << n << ' ' << (g.num_edges() - g.num_self_loops()) << '\n';
  for (vid v = 0; v < n; ++v) {
    bool first = true;
    for (vid u : g.neighbors(v)) {
      if (u == v) continue;  // METIS cannot express self-loops
      if (!first) os << ' ';
      os << (u + 1);
      first = false;
    }
    os << '\n';
  }
  return os.str();
}

void write_metis(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GCT_CHECK(out.good(), "cannot open file for writing: " + path);
  out << to_metis(g);
  GCT_CHECK(out.good(), "write failed: " + path);
}

}  // namespace graphct
