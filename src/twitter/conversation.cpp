#include "twitter/conversation.hpp"

#include <algorithm>
#include <unordered_map>

#include "algs/connected_components.hpp"
#include "algs/ranking.hpp"
#include "algs/scc.hpp"
#include "util/error.hpp"

namespace graphct::twitter {

SubcommunityResult subcommunity_filter(const MentionGraph& mg) {
  SubcommunityResult r;
  const CsrGraph und = mg.undirected();
  r.original_vertices = und.num_vertices();
  r.original_edges = und.num_edges();

  {
    graphct::Subgraph lwcc = graphct::largest_component(und);
    r.lwcc_vertices = lwcc.graph.num_vertices();
    r.lwcc_edges = lwcc.graph.num_edges();
  }

  // Mutual filter runs on the directed graph: u<->v only when both arcs
  // exist. Then drop everyone without a conversation partner.
  const CsrGraph mutual_full = graphct::mutual_subgraph(mg.directed);
  r.mutual = graphct::drop_isolated(mutual_full);
  r.mutual_vertices = r.mutual.graph.num_vertices();
  r.mutual_edges = r.mutual.graph.num_edges();

  if (r.mutual_vertices > 0) {
    graphct::Subgraph lwcc = graphct::largest_component(r.mutual.graph);
    // Compose relabelings so orig_ids point into the MentionGraph.
    for (auto& id : lwcc.orig_ids) {
      id = r.mutual.orig_ids[static_cast<std::size_t>(id)];
    }
    r.mutual_lwcc = std::move(lwcc);
    r.mutual_lwcc_vertices = r.mutual_lwcc.graph.num_vertices();
    r.mutual_lwcc_edges = r.mutual_lwcc.graph.num_edges();
  }

  r.reduction_factor =
      r.mutual_vertices > 0
          ? static_cast<double>(r.original_vertices) /
                static_cast<double>(r.mutual_vertices)
          : static_cast<double>(r.original_vertices);
  return r;
}

namespace {

std::vector<RankedUser> to_ranked(const MentionGraph& mg,
                                  const std::vector<double>& scores,
                                  std::int64_t count) {
  const auto top = graphct::top_k(
      std::span<const double>(scores.data(), scores.size()), count);
  std::vector<RankedUser> out;
  out.reserve(top.size());
  for (vid v : top) {
    RankedUser u;
    u.vertex = v;
    u.name = mg.users[static_cast<std::size_t>(v)];
    u.score = scores[static_cast<std::size_t>(v)];
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace

std::vector<graphct::Subgraph> scc_conversations(const MentionGraph& mg,
                                                 std::int64_t min_size) {
  GCT_CHECK(min_size >= 2, "scc_conversations: min_size must be >= 2");
  const auto labels = graphct::strongly_connected_components(mg.directed);
  std::unordered_map<vid, std::int64_t> counts;
  for (vid l : labels) ++counts[l];

  std::vector<std::pair<vid, std::int64_t>> big;
  for (const auto& [l, size] : counts) {
    if (size >= min_size) big.emplace_back(l, size);
  }
  std::sort(big.begin(), big.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  std::vector<graphct::Subgraph> out;
  out.reserve(big.size());
  for (const auto& [l, size] : big) {
    out.push_back(graphct::extract_by_label(
        mg.directed, std::span<const vid>(labels.data(), labels.size()), l));
  }
  return out;
}

std::vector<RankedUser> rank_users_by_betweenness(
    const MentionGraph& mg, std::int64_t count,
    const graphct::BetweennessOptions& opts) {
  const CsrGraph und = mg.undirected();
  const auto bc = graphct::betweenness_centrality(und, opts);
  return to_ranked(mg, bc.score, count);
}

std::vector<RankedUser> rank_users_by_directed_betweenness(
    const MentionGraph& mg, std::int64_t count,
    const graphct::BetweennessOptions& opts) {
  const auto bc = graphct::betweenness_centrality(mg.directed, opts);
  return to_ranked(mg, bc.score, count);
}

}  // namespace graphct::twitter
