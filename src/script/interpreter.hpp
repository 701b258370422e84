#pragma once

/// \file interpreter.hpp
/// Interpreter for the GraphCT scripting language (paper §IV-B).
///
/// Execution is sequential, one kernel per line. A stack-based "memory"
/// (like a basic calculator's) holds graphs: `save graph` pushes the
/// current graph, `restore graph` pops back to it, and `extract ...`
/// replaces the current graph with a subgraph. Kernels producing per-vertex
/// data write to the `=>` redirect file; everything else prints to the
/// interpreter's output stream. There are deliberately no loop constructs
/// ("the current implementation contains no loop constructs or feedback
/// mechanisms"); an external process can monitor output and drive further
/// scripts.
///
/// Command reference (beyond the paper's, marked +):
///   read dimacs <path> | read binary <path> | read edgelist <path>
///   + generate rmat <scale> <edge factor> [seed]
///   print diameter [<percent of vertices>]
///   print degrees            [=> per-vertex degrees]
///   print components         [=> per-vertex component labels]
///   + print clustering       [=> per-vertex coefficients]
///   + print kcores           [=> per-vertex coreness]
///   + print graph            (vertex/edge counts)
///   save graph
///   restore graph
///   extract component <i>    [=> binary graph file]   (1-based, by size)
///   + extract kcore <k>      [=> binary graph file]
///   kcentrality <k> <num sources>  [=> per-vertex scores]
///   + bc <num sources> [budget MiB]  [=> per-vertex scores]  (Brandes
///     betweenness; score-buffer memory stays within the budget, 1024 MiB
///     unless given)
///   + pagerank               [=> per-vertex scores]
///   + closeness <num sources> [=> per-vertex scores]
///   + communities             [=> per-vertex labels]
///   + bfs <source> <depth>
///   + write binary <path> | write dimacs <path>
///   + echo <words...>
///   + threads <n>           (pin OpenMP parallelism; 0 = default; echoes
///     the count the runtime actually delivers)
///   + profile on|off        (per-kernel phase profiling; while on, each
///     command prints a phase table per kernel it ran)
///   + stats [prom|json]     (dump the process-wide metrics registry)
///   + load graph <name> <path>   (load into the shared registry)
///   + use graph <name>           (switch to a registry-resident graph)
///   + repeat <n> ... end    (the paper's "simple loop structures ... a
///     topic for future consideration"; nestable, script-level only)
///   + workers <n> [threads=k] | workers off
///     (route components / pagerank / bfs / bc through n loopback workers,
///     threads of this process, via the dist substrate,
///     docs/DISTRIBUTED.md, each running block-local sweeps on k OpenMP
///     threads; results are identical to single-process runs —
///     betweenness bit-identically so)
///   + partition info <n>    (the 1-D blocks `workers n` would use:
///     per-block vertex/entry counts, edge-cut fraction, imbalance)

#include <iosfwd>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "script/graph_provider.hpp"
#include "script/script_parser.hpp"

namespace graphct::script {

/// Interpreter options.
struct InterpreterOptions {
  graphct::ToolkitOptions toolkit;

  /// Print kernel wall times after each command.
  bool timings = false;

  /// Resolves `load graph` / `use graph` names; those commands error when
  /// null. Not owned; must outlive the interpreter.
  GraphProvider* provider = nullptr;
};

/// Executes parsed commands against a graph stack.
class Interpreter {
 public:
  /// `out` receives screen output; it must outlive the interpreter.
  explicit Interpreter(std::ostream& out, InterpreterOptions opts = {});
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Run one command. Throws graphct::Error (annotated with the line) on
  /// unknown commands, bad arity, or kernel failures.
  void execute(const Command& cmd);

  /// Parse and run a whole script.
  void run(std::string_view script_text);

  /// Run `line` only if it is a read the current graph's ResultCache may
  /// answer: one command, no `=>` redirect, `workers` routing off, a graph
  /// loaded, and a cache-keyed verb (`print degrees|components|kcores|
  /// clustering`, `bc`, `kcentrality`, `pagerank`, `closeness`,
  /// `communities`). Returns false, having run nothing, otherwise. The
  /// server calls it inside a ResultCache::HitsOnly scope, so a value not
  /// yet cached throws NotCached instead of computing.
  bool run_cached_read(std::string_view line);

  /// Run a script file from disk.
  void run_file(const std::string& path);

  /// Depth of the graph stack (current graph included); 0 before any read.
  [[nodiscard]] std::size_t stack_depth() const;

  /// The current toolkit (throws if no graph is loaded).
  graphct::Toolkit& current();

  /// The current toolkit, or nullptr before any read (the server's job
  /// accounting samples cache stats around each command with this).
  [[nodiscard]] graphct::Toolkit* current_or_null();

  /// Serialization key for the current graph: "graph:<name>" when the
  /// current graph is provider-shared, "" for session-private graphs. The
  /// server's job queue runs jobs with equal non-empty keys one at a time.
  [[nodiscard]] std::string current_graph_key() const;

  /// Thread count requested by the last `threads N` command (0 = runtime
  /// default); the server applies it per job.
  [[nodiscard]] int requested_threads() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace graphct::script
