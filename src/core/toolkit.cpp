#include "core/toolkit.hpp"

#include "algs/bfs.hpp"
#include "algs/degree.hpp"
#include "dist/coordinator.hpp"
#include "graph/builder.hpp"
#include "graph/io_binary.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/transforms.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace graphct {

namespace {

std::string diameter_key(std::int64_t samples, std::int64_t multiplier,
                         std::uint64_t seed) {
  return "diameter|samples=" + std::to_string(samples) +
         "|mult=" + std::to_string(multiplier) +
         "|seed=" + std::to_string(seed);
}

/// Byte estimators for struct-of-vector kernel results, so the cache's
/// budget accounting sees the heap behind them (the default estimator
/// only handles bare vectors).
template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t bytes_of(const ComponentStats& s) {
  return sizeof(s) + vec_bytes(s.sizes);
}
std::size_t bytes_of(const ClusteringResult& c) {
  return sizeof(c) + vec_bytes(c.triangles) + vec_bytes(c.coefficient);
}
std::size_t bytes_of(const BetweennessResult& b) {
  return sizeof(b) + vec_bytes(b.score);
}
std::size_t bytes_of(const KBetweennessResult& b) {
  return sizeof(b) + vec_bytes(b.score);
}
std::size_t bytes_of(const PageRankResult& p) {
  return sizeof(p) + vec_bytes(p.score);
}
std::size_t bytes_of(const ClosenessResult& c) {
  return sizeof(c) + vec_bytes(c.score);
}
std::size_t bytes_of(const CommunityResult& c) {
  return sizeof(c) + vec_bytes(c.labels);
}

/// Adapter passing the overload set above as a cache size estimator.
struct StructBytes {
  template <typename T>
  std::size_t operator()(const T& v) const {
    return bytes_of(v);
  }
};

std::string bc_key(const char* kernel, const BetweennessOptions& o) {
  return std::string(kernel) + "|sources=" + std::to_string(o.num_sources) +
         "|seed=" + std::to_string(o.seed);
}

}  // namespace

Toolkit::Toolkit(CsrGraph graph, const ToolkitOptions& opts)
    : graph_(std::move(graph)),
      opts_(opts),
      cache_(std::make_unique<ResultCache>()),
      diameter_mu_(std::make_unique<std::mutex>()) {
  cache_->set_budget_bytes(opts_.cache_budget_bytes);
  // One-time preprocessing while we still hold the graph exclusively:
  // sorted adjacency makes neighbor scans cache-ordered and is required by
  // the sorted-merge clustering kernel. No-op for already-sorted loads.
  graph_.sort_adjacency();
  if (opts_.estimate_diameter_on_load) {
    estimate_diameter(opts_.diameter_samples, opts_.diameter_multiplier);
  }
}

Toolkit::Toolkit(std::shared_ptr<const storage::GraphStore> store,
                 const ToolkitOptions& opts)
    : store_(std::move(store)),
      opts_(opts),
      cache_(std::make_unique<ResultCache>()),
      diameter_mu_(std::make_unique<std::mutex>()) {
  GCT_CHECK(store_ != nullptr, "Toolkit: null graph store");
  cache_->set_budget_bytes(opts_.cache_budget_bytes);
  // Adjacency is immutable on disk; the packer preserved sort order, so no
  // load-time preprocessing is possible (or needed for the view kernels).
  if (opts_.estimate_diameter_on_load) {
    estimate_diameter(opts_.diameter_samples, opts_.diameter_multiplier);
  }
}

const CsrGraph& Toolkit::graph() const {
  GCT_CHECK(store_ == nullptr,
            "this operation needs the in-memory CSR graph, but the graph is "
            "backed by packed store '" + store_->path() +
            "' — load it unpacked, or use a kernel that runs over GraphView");
  return graph_;
}

Toolkit Toolkit::load_dimacs(const std::string& path,
                             const ToolkitOptions& opts) {
  EdgeList el = read_dimacs(path);
  BuildOptions b;  // undirected, deduplicated — GraphCT's default view
  return Toolkit(build_csr(el, b), opts);
}

Toolkit Toolkit::load_binary(const std::string& path,
                             const ToolkitOptions& opts) {
  return Toolkit(read_binary(path), opts);
}

Toolkit Toolkit::load_packed(const std::string& path,
                             const ToolkitOptions& opts,
                             const storage::StoreOptions& store_opts) {
  return Toolkit(std::make_shared<const storage::GraphStore>(path, store_opts),
                 opts);
}

const DiameterEstimate& Toolkit::diameter() {
  {
    std::lock_guard<std::mutex> lock(*diameter_mu_);
    if (current_diameter_) return *current_diameter_;
  }
  return estimate_diameter(opts_.diameter_samples, opts_.diameter_multiplier);
}

const DiameterEstimate& Toolkit::estimate_diameter(std::int64_t num_samples,
                                                   std::int64_t multiplier) {
  auto estimate = cache_->get_or_compute<DiameterEstimate>(
      diameter_key(num_samples, multiplier, opts_.seed), [&] {
        DiameterOptions d;
        d.num_samples = num_samples;
        d.multiplier = multiplier;
        d.seed = opts_.seed;
        return graphct::estimate_diameter(view(), d);
      });
  std::lock_guard<std::mutex> lock(*diameter_mu_);
  current_diameter_ = std::move(estimate);
  return *current_diameter_;
}

const std::vector<vid>& Toolkit::components() {
  return *cache_->get_or_compute<std::vector<vid>>(
      "components", [&] { return weak_components(view()); });
}

const ComponentStats& Toolkit::components_stats() {
  return *cache_->get_or_compute<ComponentStats>(
      "component_stats", [&] { return component_stats(components()); },
      StructBytes{});
}

const Summary& Toolkit::degree_stats() {
  return *cache_->get_or_compute<Summary>(
      "degree_stats", [&] { return degree_summary(view()); });
}

const LogHistogram& Toolkit::degree_histogram() {
  return *cache_->get_or_compute<LogHistogram>(
      "degree_histogram", [&] { return graphct::degree_histogram(view()); });
}

const ClusteringResult& Toolkit::clustering() {
  return *cache_->get_or_compute<ClusteringResult>(
      "clustering", [&] { return clustering_coefficients(graph()); }, StructBytes{});
}

const std::vector<std::int64_t>& Toolkit::core_numbers() {
  return *cache_->get_or_compute<std::vector<std::int64_t>>(
      "kcores", [&] { return graphct::core_numbers(graph()); });
}

const BetweennessResult& Toolkit::betweenness(const BetweennessOptions& opts) {
  return *cache_->get_or_compute<BetweennessResult>(
      bc_key("bc", opts), [&] { return betweenness_centrality(view(), opts); },
      StructBytes{});
}

const KBetweennessResult& Toolkit::k_betweenness(
    const KBetweennessOptions& opts) {
  const std::string key =
      "kbc|k=" + std::to_string(opts.k) +
      "|sources=" + std::to_string(opts.num_sources) +
      "|seed=" + std::to_string(opts.seed);
  return *cache_->get_or_compute<KBetweennessResult>(
      key, [&] { return k_betweenness_centrality(view(), opts); },
      StructBytes{});
}

const PageRankResult& Toolkit::pagerank(const PageRankOptions& opts) {
  const std::string key = "pagerank|d=" + std::to_string(opts.damping) +
                          "|tol=" + std::to_string(opts.tolerance) +
                          "|iters=" + std::to_string(opts.max_iterations);
  return *cache_->get_or_compute<PageRankResult>(
      key, [&] { return graphct::pagerank(view(), opts); }, StructBytes{});
}

namespace {

/// Ship the Toolkit's graph into the coordinator's workers on first use.
/// Store-backed graphs decode to DRAM here: the blocks are sliced from a
/// CSR either way, and each worker holds only its slice afterwards.
void ensure_dist_loaded(dist::Coordinator& coord, const GraphView& v) {
  if (coord.loaded()) return;
  CsrGraph decoded;
  coord.load_graph(v.as_csr_or(decoded));
}

}  // namespace

const std::vector<vid>& Toolkit::components_dist(dist::Coordinator& coord) {
  const std::string key =
      "components|workers=" + std::to_string(coord.num_workers());
  return *cache_->get_or_compute<std::vector<vid>>(key, [&] {
    ensure_dist_loaded(coord, view());
    return coord.components();
  });
}

const PageRankResult& Toolkit::pagerank_dist(dist::Coordinator& coord,
                                             const PageRankOptions& opts) {
  const std::string key = "pagerank|d=" + std::to_string(opts.damping) +
                          "|tol=" + std::to_string(opts.tolerance) +
                          "|iters=" + std::to_string(opts.max_iterations) +
                          "|workers=" + std::to_string(coord.num_workers());
  return *cache_->get_or_compute<PageRankResult>(
      key,
      [&] {
        ensure_dist_loaded(coord, view());
        return coord.pagerank(opts);
      },
      StructBytes{});
}

const std::vector<vid>& Toolkit::bfs_distances_dist(dist::Coordinator& coord,
                                                    vid source,
                                                    vid max_depth) {
  const std::string key = "bfs|src=" + std::to_string(source) +
                          "|depth=" + std::to_string(max_depth) +
                          "|workers=" + std::to_string(coord.num_workers());
  return *cache_->get_or_compute<std::vector<vid>>(key, [&] {
    ensure_dist_loaded(coord, view());
    return coord.bfs_distances(source, max_depth);
  });
}

const BetweennessResult& Toolkit::betweenness_dist(
    dist::Coordinator& coord, const BetweennessOptions& opts) {
  const std::string key =
      bc_key("bc", opts) + "|workers=" + std::to_string(coord.num_workers());
  return *cache_->get_or_compute<BetweennessResult>(
      key,
      [&] {
        ensure_dist_loaded(coord, view());
        Timer timer;
        const vid n = view().num_vertices();
        const std::vector<vid> sources =
            sample_sources(n, opts.num_sources, opts.seed);
        // The workers replay the fine plan source by source, which is the
        // default result.plan.
        BetweennessResult result;
        result.score = coord.betweenness(sources);
        result.sources_used = static_cast<std::int64_t>(sources.size());
        result.seconds = timer.seconds();
        return result;
      },
      StructBytes{});
}

const ClosenessResult& Toolkit::closeness(const ClosenessOptions& opts) {
  const std::string key = "closeness|sources=" +
                          std::to_string(opts.num_sources) +
                          "|seed=" + std::to_string(opts.seed);
  return *cache_->get_or_compute<ClosenessResult>(
      key, [&] { return closeness_centrality(view(), opts); }, StructBytes{});
}

const CommunityResult& Toolkit::communities() {
  return *cache_->get_or_compute<CommunityResult>("communities", [&] {
    LabelPropagationOptions o;
    o.seed = opts_.seed;
    return label_propagation(graph(), o);
  }, StructBytes{});
}

double Toolkit::community_modularity() {
  const auto& c = communities();
  return *cache_->get_or_compute<double>("modularity", [&] {
    return modularity(graph(),
                      std::span<const vid>(c.labels.data(), c.labels.size()));
  });
}

CsrGraph Toolkit::component_graph(std::int64_t i) {
  const auto& stats = components_stats();
  GCT_CHECK(i >= 0 && i < stats.num_components,
            "extract_component: index out of range");
  // Subgraph surgery needs CSR internals; a store-backed graph decodes to
  // DRAM here (the extracted component is in-memory either way).
  CsrGraph decoded;
  Subgraph sub = extract_by_label(view().as_csr_or(decoded), components(),
                                  stats.sizes[static_cast<std::size_t>(i)].first);
  return std::move(sub.graph);
}

Toolkit Toolkit::extract_component(std::int64_t i) {
  return Toolkit(component_graph(i), opts_);
}

void Toolkit::replace_graph(CsrGraph g) {
  graph_ = std::move(g);
  store_.reset();
  graph_.sort_adjacency();
  invalidate();
}

void Toolkit::replace_graph(std::shared_ptr<const storage::GraphStore> store) {
  GCT_CHECK(store != nullptr, "replace_graph: null graph store");
  store_ = std::move(store);
  graph_ = CsrGraph();
  invalidate();
}

void Toolkit::invalidate() {
  cache_->invalidate();
  std::lock_guard<std::mutex> lock(*diameter_mu_);
  current_diameter_.reset();
}

}  // namespace graphct
