#include "graph/io_dimacs.hpp"

#include <omp.h>

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

namespace {

struct ProblemLine {
  vid n = kNoVertex;
  eid m = kNoVertex;
};

// Parse one nonnegative integer starting at text[pos]; advances pos.
// Returns -1 when no digits are present; throws when the value exceeds int64.
std::int64_t parse_int(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
    return -1;
  }
  std::int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data() + pos, text.data() + text.size(), v);
  GCT_CHECK(ec != std::errc::result_out_of_range,
            "DIMACS: integer out of range: " + std::string(text));
  pos = static_cast<std::size_t>(end - text.data());
  return v;
}

// Parse the lines fully contained in text[lo, hi) into `out`.
// `lo` must point at a line start. Handles 'a' and 'e' edge lines; returns
// the problem line if one is seen; throws on malformed edge lines.
void parse_chunk(std::string_view text, std::size_t lo, std::size_t hi,
                 std::vector<Edge>& out, ProblemLine& prob) {
  std::size_t pos = lo;
  while (pos < hi) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const char tag = line[0];
    if (tag == 'c' || tag == '%' || tag == '#' || tag == '\r') continue;
    if (tag == 'p') {
      // p <type> <n> <m>
      std::size_t q = 1;
      while (q < line.size() && line[q] == ' ') ++q;
      while (q < line.size() && line[q] != ' ') ++q;  // skip type token
      std::int64_t n = parse_int(line, q);
      std::int64_t m = parse_int(line, q);
      GCT_CHECK(n >= 0 && m >= 0, "DIMACS: malformed problem line");
      prob.n = n;
      prob.m = m;
      continue;
    }
    if (tag == 'a' || tag == 'e') {
      std::size_t q = 1;
      const std::int64_t u = parse_int(line, q);
      const std::int64_t v = parse_int(line, q);
      GCT_CHECK(u >= 1 && v >= 1,
                "DIMACS: malformed edge line: " + std::string(line));
      out.push_back({u - 1, v - 1});  // weight, if any, is ignored
      continue;
    }
    throw Error("DIMACS: unrecognized line tag '" + std::string(1, tag) +
                "'");
  }
}

}  // namespace

EdgeList parse_dimacs(std::string_view text) {
  const int nt = num_threads();
  // Chunk boundaries snapped forward to line starts. Offset 0 already is
  // one (a text shorter than the thread count puts boundaries there), so
  // the snap never reads before the text.
  std::vector<std::size_t> starts(static_cast<std::size_t>(nt) + 1, 0);
  for (int t = 1; t < nt; ++t) {
    std::size_t p = text.size() * static_cast<std::size_t>(t) /
                    static_cast<std::size_t>(nt);
    while (p > 0 && p < text.size() && text[p - 1] != '\n') ++p;
    starts[static_cast<std::size_t>(t)] = p;
  }
  starts[static_cast<std::size_t>(nt)] = text.size();

  std::vector<std::vector<Edge>> local(static_cast<std::size_t>(nt));
  std::vector<ProblemLine> probs(static_cast<std::size_t>(nt));
  std::string first_error;
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    try {
      parse_chunk(text, starts[static_cast<std::size_t>(t)],
                  starts[static_cast<std::size_t>(t) + 1],
                  local[static_cast<std::size_t>(t)],
                  probs[static_cast<std::size_t>(t)]);
    } catch (const Error& e) {
#pragma omp critical
      if (first_error.empty()) first_error = e.what();
    }
  }
  if (!first_error.empty()) throw Error(first_error);

  ProblemLine prob;
  for (const auto& p : probs) {
    if (p.n != kNoVertex) prob = p;
  }
  std::size_t total = 0;
  for (const auto& b : local) total += b.size();

  EdgeList el(prob.n);  // kNoVertex hint if no problem line was present
  el.reserve(total);
  for (const auto& b : local) {
    for (const Edge& e : b) el.add(e);
  }
  if (prob.n != kNoVertex) {
    GCT_CHECK(el.inferred_num_vertices() <= prob.n,
              "DIMACS: edge endpoint exceeds declared vertex count");
  }
  return el;
}

EdgeList read_dimacs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GCT_CHECK(in.good(), "cannot open DIMACS file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_dimacs(ss.str());
}

std::string to_dimacs(const CsrGraph& g) {
  std::ostringstream os;
  os << "c GraphCT DIMACS export\n";
  os << "p sp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  const vid n = g.num_vertices();
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.neighbors(u)) {
      if (!g.directed() && u > v) continue;
      os << "a " << (u + 1) << ' ' << (v + 1) << " 1\n";
    }
  }
  return os.str();
}

void write_dimacs(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GCT_CHECK(out.good(), "cannot open file for writing: " + path);
  out << to_dimacs(g);
  GCT_CHECK(out.good(), "write failed: " + path);
}

}  // namespace graphct
