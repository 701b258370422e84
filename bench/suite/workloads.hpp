#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each runs in its own process (main re-executes
/// the binary per workload), generates its inputs from cfg.seed, sets up,
/// computes a reference, runs one untimed warm-up, then measures for
/// cfg.seconds and fills `report`. README.md says why each was chosen.

#include <cstdint>
#include <string>

#include "graph/csr_graph.hpp"
#include "harness.hpp"

namespace graphct::suite {

/// Split one run seed into independent input seeds (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Largest component of an edge-factor-16 R-MAT graph. Every sampled BC
/// source then traverses the whole graph, so work per source does not hinge
/// on how many sources land on isolated vertices.
CsrGraph rmat_lwcc(std::int64_t scale, std::uint64_t seed);

void run_twitter_pipeline(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_bc_rmat(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_bc_packed(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_bc_dist(const RunConfig& cfg, Tracer& tracer, Report& report);
void run_server_mixed(const RunConfig& cfg, Tracer& tracer, Report& report);

}  // namespace graphct::suite
