#include "twitter/conversation.hpp"

#include "algs/connected_components.hpp"
#include "algs/ranking.hpp"

namespace graphct::twitter {

SubcommunityResult subcommunity_filter(const MentionGraph& mg) {
  SubcommunityResult r;
  // The original and LWCC sizes are those of mg.undirected() and its
  // largest component, counted from the directed rows: weak components
  // give the same labels, and an arc u->v is one undirected edge unless
  // u > v and v->u exists (the pair is then counted at v).
  const CsrGraph& d = mg.directed;
  const vid n = d.num_vertices();
  const auto labels = graphct::weak_components(d);
  const auto stats = graphct::component_stats(labels);
  const vid lwcc = stats.largest_label();
  std::int64_t edges = 0;
  std::int64_t lwcc_edges = 0;
#pragma omp parallel for reduction(+ : edges, lwcc_edges) schedule(dynamic, 256)
  for (vid u = 0; u < n; ++u) {
    std::int64_t row = 0;
    for (vid v : d.neighbors(u)) row += u <= v || !d.has_edge(v, u) ? 1 : 0;
    edges += row;
    if (labels[static_cast<std::size_t>(u)] == lwcc) lwcc_edges += row;
  }
  r.original_vertices = n;
  r.original_edges = edges;
  r.lwcc_vertices = stats.largest_size();
  r.lwcc_edges = lwcc_edges;

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

std::vector<RankedUser> rank_users_by_betweenness(
    const MentionGraph& mg, std::int64_t count,
    const graphct::BetweennessOptions& opts) {
  const CsrGraph und = mg.undirected();
  const auto bc = graphct::betweenness_centrality(und, opts);
  const auto top = graphct::top_k(
      std::span<const double>(bc.score.data(), bc.score.size()), count);
  std::vector<RankedUser> out;
  out.reserve(top.size());
  for (vid v : top) {
    RankedUser u;
    u.vertex = v;
    u.name = mg.users[static_cast<std::size_t>(v)];
    u.score = bc.score[static_cast<std::size_t>(v)];
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace graphct::twitter
