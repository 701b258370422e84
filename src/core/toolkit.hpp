#pragma once

/// \file toolkit.hpp
/// The GraphCT facade: one in-memory graph, many kernels, accumulated
/// results.
///
/// Mirrors the paper's §IV-A workflow: after loading the graph into memory
/// and before running any kernel, the diameter is estimated by BFS from 256
/// randomly selected sources (estimate = 4 x the longest distance found) and
/// stored for sizing traversal queues; users may override the multiplier or
/// sample count. "Graph kernels accumulate results in structures accessible
/// by later kernel functions" — here, kernels cache their outputs so a
/// script like components -> extract -> degrees -> kcentrality never
/// recomputes shared state.
///
/// Results live in a thread-safe ResultCache keyed by (kernel, params), so
/// one Toolkit can be shared read-only by many concurrent analyst sessions
/// (the graphctd server's registry does exactly this): concurrent requests
/// for the same kernel compute it once and share the result. The only
/// mutating operations are replace_graph() and invalidate(); both are the
/// caller's responsibility to serialize against in-flight kernels (the
/// server never mutates registry-shared graphs).

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algs/closeness.hpp"
#include "algs/clustering.hpp"
#include "algs/community.hpp"
#include "algs/connected_components.hpp"
#include "algs/diameter.hpp"
#include "algs/kcore.hpp"
#include "algs/pagerank.hpp"
#include "core/betweenness.hpp"
#include "core/kbetweenness.hpp"
#include "graph/csr_graph.hpp"
#include "storage/graph_store.hpp"
#include "storage/graph_view.hpp"
#include "util/histogram.hpp"
#include "util/result_cache.hpp"
#include "util/stats.hpp"

namespace graphct {

namespace dist {
class Coordinator;
}

/// Toolkit configuration.
struct ToolkitOptions {
  /// Diameter estimation on load (paper defaults: 256 sources, 4x).
  std::int64_t diameter_samples = 256;
  std::int64_t diameter_multiplier = 4;
  std::uint64_t seed = 1;

  /// Skip the load-time diameter pass (it is O(samples * (m+n))).
  bool estimate_diameter_on_load = true;

  /// Byte budget for the kernel-result cache (0 = unbounded). When set,
  /// the cache evicts least-recently-used results so its estimated
  /// resident bytes never exceed the budget — what a long-running server
  /// needs so distinct-parameter queries cannot grow memory without limit.
  std::uint64_t cache_budget_bytes = 0;
};

/// One loaded graph plus cached kernel results.
class Toolkit {
 public:
  explicit Toolkit(CsrGraph graph, const ToolkitOptions& opts = {});

  /// Store-backed Toolkit: kernels traverse the packed mmap store through
  /// view(); only kernels converted to GraphView are available (graph()
  /// throws). The store is shared_ptr-held so extract/ego surgery can swap
  /// the backend to in-memory without invalidating other references.
  explicit Toolkit(std::shared_ptr<const storage::GraphStore> store,
                   const ToolkitOptions& opts = {});

  Toolkit(Toolkit&&) = default;
  Toolkit& operator=(Toolkit&&) = default;

  /// Load a DIMACS text file (parsed in parallel, §IV-C), building an
  /// undirected deduplicated graph per GraphCT's defaults.
  static Toolkit load_dimacs(const std::string& path,
                             const ToolkitOptions& opts = {});

  /// Load a GraphCT binary graph.
  static Toolkit load_binary(const std::string& path,
                             const ToolkitOptions& opts = {});

  /// Open a packed graph file (see docs/STORAGE.md) as a store-backed
  /// Toolkit. The graph stays on disk; adjacency decodes per block under
  /// store_opts.cache_budget_bytes per thread.
  static Toolkit load_packed(const std::string& path,
                             const ToolkitOptions& opts = {},
                             const storage::StoreOptions& store_opts = {});

  /// The in-memory graph. Throws when store-backed — callers that can
  /// traverse either representation should use view() instead.
  [[nodiscard]] const CsrGraph& graph() const;

  /// Uniform traversal view over whichever backend this Toolkit holds.
  [[nodiscard]] GraphView view() const {
    return store_ ? GraphView(*store_) : GraphView(graph_);
  }

  /// The packed store behind this Toolkit, or nullptr if in-memory.
  [[nodiscard]] const storage::GraphStore* store() const {
    return store_.get();
  }

  /// Shared ownership of the packed store (null when in-memory) — lets
  /// callers duplicate a store-backed Toolkit without reopening the file.
  [[nodiscard]] std::shared_ptr<const storage::GraphStore> shared_store()
      const {
    return store_;
  }

  [[nodiscard]] bool store_backed() const { return store_ != nullptr; }

  /// The load-time diameter estimate (computed lazily if load skipped it).
  const DiameterEstimate& diameter();

  /// Re-estimate the diameter with explicit parameters and update the
  /// stored value (the script's `print diameter <percent>` path). Repeating
  /// the same parameters is served from cache.
  const DiameterEstimate& estimate_diameter(std::int64_t num_samples,
                                            std::int64_t multiplier);

  /// Component labels (cached).
  const std::vector<vid>& components();

  /// Component statistics (cached; computes components() if needed).
  const ComponentStats& components_stats();

  /// Degree summary statistics (cached).
  const Summary& degree_stats();

  /// Log-binned degree histogram (cached).
  const LogHistogram& degree_histogram();

  /// Per-vertex clustering coefficients (cached).
  const ClusteringResult& clustering();

  /// Coreness values (cached).
  const std::vector<std::int64_t>& core_numbers();

  /// Betweenness centrality, cached per (sources, seed) — a
  /// session repeating an earlier query is served the resident result.
  /// Budget and threads pick only the plan, never a score bit, so they are
  /// not in the key; `plan` is the computing run's.
  const BetweennessResult& betweenness(const BetweennessOptions& opts = {});

  /// k-betweenness centrality (cached per (k, sources, seed), as above).
  const KBetweennessResult& k_betweenness(const KBetweennessOptions& opts = {});

  /// PageRank (cached per option set).
  const PageRankResult& pagerank(const PageRankOptions& opts = {});

  /// Distributed variants: run the kernel on `coord`'s workers (loading
  /// this Toolkit's graph into them first if needed) and cache under a key
  /// carrying a `workers=N` dimension — the results are defined to match
  /// the single-process kernels, but they are distinct computations and a
  /// degraded run must never poison the single-process entry (or vice
  /// versa). The caller owns the coordinator's lifecycle and must bind it
  /// to this Toolkit's current graph (the script layer rebinds on every
  /// graph change).
  const std::vector<vid>& components_dist(dist::Coordinator& coord);
  const PageRankResult& pagerank_dist(dist::Coordinator& coord,
                                      const PageRankOptions& opts = {});
  const std::vector<vid>& bfs_distances_dist(dist::Coordinator& coord,
                                             vid source,
                                             vid max_depth = kNoVertex);

  /// Distributed betweenness: sources are drawn single-process
  /// (sample_sources, so the sample is identical to the single-process
  /// kernel's). Scores are bit-identical to the single-process fine plan
  /// over the same sources.
  const BetweennessResult& betweenness_dist(dist::Coordinator& coord,
                                            const BetweennessOptions& opts = {});

  /// Harmonic closeness (cached per option set).
  const ClosenessResult& closeness(const ClosenessOptions& opts = {});

  /// Label-propagation communities (cached).
  const CommunityResult& communities();

  /// Modularity of the cached community labeling.
  double community_modularity();

  /// The i-th largest weakly connected component (0 = largest) as a
  /// reindexed graph, reusing cached component labels.
  CsrGraph component_graph(std::int64_t i);

  /// Extract the i-th largest component as a new Toolkit.
  Toolkit extract_component(std::int64_t i);

  /// Swap in a new graph and invalidate every cached result. This is the
  /// single invalidation path for all graph surgery (extract component,
  /// extract kcore, ego drill-down): results computed for the old graph can
  /// never be served against the new one. Replacing an in-memory graph on a
  /// store-backed Toolkit drops the store (and vice versa below), so
  /// backend swaps ride the same path.
  void replace_graph(CsrGraph g);

  /// As replace_graph(CsrGraph), but swapping in a packed store backend.
  void replace_graph(std::shared_ptr<const storage::GraphStore> store);

  /// Invalidate every cached result (after external graph surgery).
  void invalidate();

  /// Cache traffic counters; the server's per-job accounting reports the
  /// delta across each command.
  [[nodiscard]] ResultCache::Stats cache_stats() const {
    return cache_->stats();
  }

 private:
  CsrGraph graph_;  ///< empty when store-backed
  std::shared_ptr<const storage::GraphStore> store_;  ///< null when in-memory
  ToolkitOptions opts_;
  /// Kernel results keyed by (kernel, params); behind unique_ptr so the
  /// Toolkit stays movable.
  std::unique_ptr<ResultCache> cache_;
  /// The most recent diameter estimate (default- or explicitly-
  /// parameterized); the mutex makes the "latest estimate wins" update safe
  /// under concurrent sessions.
  std::unique_ptr<std::mutex> diameter_mu_;
  std::shared_ptr<const DiameterEstimate> current_diameter_;
};

}  // namespace graphct
