#pragma once

/// \file mention_graph.hpp
/// Building the user-to-user interaction graph from a tweet stream
/// (paper §III-B): "User interaction graphs are created by adding an edge
/// into the graph for every mention (denoted by the prefix @) of a user by
/// the tweet author. Duplicate user interactions are thrown out so that only
/// unique user-interactions are represented in the graph."
///
/// Vertex ids follow first occurrence in the stream: each tweet's author,
/// then its mentions in text order. The builder scans each text with the
/// same SymbolScanner parse_tweet() uses and interns names into a flat
/// UserIndex, so ingesting a tweet allocates nothing once the builder's
/// vectors have grown (new users' names aside). Interning runs a window of
/// tweets behind the scan so each lookup finds its slot already loaded.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "twitter/tweet.hpp"

namespace graphct::twitter {

using graphct::CsrGraph;
using graphct::vid;

/// Name -> vertex id index over a users vector it does not own: a flat
/// open-addressing table (linear probing, power-of-two capacity, at most
/// half full) holding each name's hash and id, never the name itself.
/// Hashing and comparison fold A-Z to lowercase, so a raw name straight
/// out of a tweet is looked up without first copying it.
class UserIndex {
 public:
  /// The key a name is filed under: FNV-1a over its lowercased bytes.
  [[nodiscard]] static std::uint64_t name_hash(std::string_view name);

  /// Id of the user named lowercase(name) in `users`, or kNoVertex.
  [[nodiscard]] vid find(std::string_view name,
                         const std::vector<std::string>& users) const;

  /// Id of lowercase(name), where `hash` is name_hash(name); a new name is
  /// appended to `users` and gets the next id, so ids follow first
  /// occurrence.
  vid intern(std::string_view name, std::uint64_t hash,
             std::vector<std::string>& users);

  /// Start loading the slot where a lookup of `hash` begins, so a later
  /// intern() of that name finds it in cache. A hint only: a table that
  /// grows in between just loses it.
  void prefetch(std::uint64_t hash) const;

 private:
  struct Slot {
    std::uint64_t hash = 0;
    vid id = graphct::kNoVertex;  ///< kNoVertex marks an empty slot
  };

  /// The slot holding `name`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view name, std::uint64_t hash,
                                  const std::vector<std::string>& users) const;
  [[nodiscard]] std::size_t home(std::uint64_t hash) const;
  void grow();

  std::vector<Slot> slots_;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
};

/// The mention graph plus the user-name dictionary and corpus statistics.
struct MentionGraph {
  /// Directed graph: arc author -> mentioned user, duplicates removed.
  /// Self-references (an author mentioning themself) are self-loops.
  CsrGraph directed;

  /// users[v] is the (normalized) name of vertex v.
  std::vector<std::string> users;

  /// Name -> id over `users`, handed over by the builder; read it through
  /// id_of().
  UserIndex user_index;

  // --- Table III statistics ---
  std::int64_t num_tweets = 0;           ///< tweets ingested
  std::int64_t num_users = 0;            ///< distinct authors + mentionees
  std::int64_t unique_interactions = 0;  ///< distinct (author, mentionee)
                                         ///< pairs, author != mentionee
  std::int64_t tweets_with_mentions = 0; ///< tweets carrying >= 1 mention
  std::int64_t tweets_with_responses = 0;///< tweets mentioning a user who
                                         ///< mentions the author back
                                         ///< somewhere in the corpus
  std::int64_t self_references = 0;      ///< tweets whose author mentions
                                         ///< themself (§III-C "echo chamber")
  std::int64_t retweets = 0;             ///< tweets with the RT marker

  /// Undirected, deduplicated view — the form GraphCT's metrics consume.
  [[nodiscard]] CsrGraph undirected() const;

  /// Vertex id for a user name (kNoVertex when absent). The name must be
  /// normalized: one with an uppercase letter names no user.
  [[nodiscard]] vid id_of(const std::string& normalized_name) const;
};

/// Tweets a MentionGraphBuilder scans ahead of the one it interns. Each
/// lookup costs a dependent cache miss on its slot; scanning this far ahead
/// and prefetching every name's slot overlaps those misses (group
/// prefetching, Chen et al., ICDE 2004). Holds this many tweets' names.
inline constexpr std::int64_t kInternWindow = 16;

/// Incrementally ingest tweets and build the mention graph.
class MentionGraphBuilder {
 public:
  /// Ingest one raw tweet: count it, scan its author and mentions into the
  /// window and prefetch their slots, then intern the tweet that entered
  /// the window kInternWindow tweets earlier, recording one arc per
  /// distinct mention. Ids, arcs and counts are those of interning each
  /// tweet as it arrives.
  void add(const Tweet& tweet);

  /// Finish: intern the tweets left in the window, deduplicate, build CSR,
  /// and compute the response statistics. The builder is consumed.
  MentionGraph build() &&;

 private:
  /// A scanned tweet waiting in the window: its author, then each '@'
  /// mention in text order, back to back in `names`.
  struct Pending {
    struct Name {
      std::size_t end;  ///< one past the name's last byte in `names`
      std::uint64_t hash;
    };
    std::string names;
    std::vector<Name> index;
  };

  void intern_tweet(const Pending& tweet);
  vid intern(std::string_view name, std::uint64_t hash);

  std::vector<std::string> users_;
  UserIndex index_;
  // Tweet number o (1-based) waits in window_[o % kInternWindow].
  std::vector<Pending> window_ =
      std::vector<Pending>(static_cast<std::size_t>(kInternWindow));
  std::int64_t num_interned_ = 0;
  // mentioned_in_[v] is the ordinal of the last tweet that mentioned v:
  // the within-tweet duplicate test, with nothing to clear between tweets.
  std::vector<std::int64_t> mentioned_in_;
  std::vector<graphct::Edge> arcs_;  // author -> mentioned, per tweet mention
  // Per tweet with mentions, the index of its first arc; its arcs end where
  // the next such tweet's begin.
  std::vector<std::size_t> tweet_first_arc_;
  std::int64_t num_tweets_ = 0;
  std::int64_t tweets_with_mentions_ = 0;
  std::int64_t self_references_ = 0;
  std::int64_t retweets_ = 0;
};

}  // namespace graphct::twitter
