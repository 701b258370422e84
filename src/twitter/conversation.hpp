#pragma once

/// \file conversation.hpp
/// Conversation (sub-community) analysis — paper §III-C/D.
///
/// The mention graph is dominated by one-way broadcast links (users citing
/// media hubs). "We retained only pairs of vertices that referred to
/// one-another through @ tags" — the mutual-edge filter — "leading to
/// dramatic reductions in the size of the networks" (Fig. 3, up to two
/// orders of magnitude). Betweenness centrality then ranks the actors who
/// broker information within what remains (Table IV).

#include <string>
#include <vector>

#include "core/betweenness.hpp"
#include "graph/transforms.hpp"
#include "twitter/mention_graph.hpp"

namespace graphct::twitter {

/// Sizes along the filtering pipeline original -> LWCC -> mutual ->
/// mutual LWCC (the Fig. 3 quantities).
struct SubcommunityResult {
  std::int64_t original_vertices = 0;
  std::int64_t original_edges = 0;  ///< undirected unique interactions

  std::int64_t lwcc_vertices = 0;   ///< largest weakly connected component
  std::int64_t lwcc_edges = 0;

  std::int64_t mutual_vertices = 0; ///< non-isolated vertices of the mutual
                                    ///< (conversation) graph
  std::int64_t mutual_edges = 0;

  std::int64_t mutual_lwcc_vertices = 0;  ///< largest conversation cluster
  std::int64_t mutual_lwcc_edges = 0;

  /// original_vertices / mutual_vertices ("reduction factors ... as high as
  /// two orders of magnitude").
  double reduction_factor = 0.0;

  /// The conversation graph (isolated vertices dropped); orig_ids index the
  /// MentionGraph's vertex/user arrays.
  graphct::Subgraph mutual;

  /// Largest connected conversation cluster; orig_ids also index the
  /// MentionGraph's arrays (the chain of relabelings is composed).
  graphct::Subgraph mutual_lwcc;
};

/// Run the full §III-C filtering pipeline on a mention graph.
SubcommunityResult subcommunity_filter(const MentionGraph& mg);

/// One row of a Table IV-style ranking.
struct RankedUser {
  vid vertex = graphct::kNoVertex;  ///< vertex id in the mention graph
  std::string name;                 ///< user name
  double score = 0.0;               ///< betweenness centrality
};

/// Rank users of the (undirected view of the) mention graph by betweenness
/// centrality; returns the top `count` users, score descending with
/// deterministic tie-breaks.
std::vector<RankedUser> rank_users_by_betweenness(
    const MentionGraph& mg, std::int64_t count,
    const graphct::BetweennessOptions& opts = {});

}  // namespace graphct::twitter
