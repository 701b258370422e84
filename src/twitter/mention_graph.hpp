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
/// vectors have grown (new users' names aside).

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
  /// Id of the user named lowercase(name) in `users`, or kNoVertex.
  [[nodiscard]] vid find(std::string_view name,
                         const std::vector<std::string>& users) const;

  /// Id of lowercase(name); a new name is appended to `users` and gets the
  /// next id, so ids follow first occurrence.
  vid intern(std::string_view name, std::vector<std::string>& users);

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

/// Incrementally ingest tweets and build the mention graph.
class MentionGraphBuilder {
 public:
  /// Ingest one raw tweet: count it, intern its author and mentions, and
  /// record one arc per distinct mention.
  void add(const Tweet& tweet);

  /// Finish: deduplicate, build CSR, and compute the response statistics.
  /// The builder is consumed.
  MentionGraph build() &&;

 private:
  vid intern(std::string_view name);

  std::vector<std::string> users_;
  UserIndex index_;
  // mentioned_in_[v] is the ordinal of the last tweet that mentioned v:
  // the within-tweet duplicate test, with nothing to clear between tweets.
  std::vector<std::int64_t> mentioned_in_;
  std::vector<graphct::Edge> arcs_;  // author -> mentioned, per tweet mention
  // One record per tweet that has mentions: (author, first..last arc range)
  struct TweetArcs {
    vid author;
    std::size_t first;
    std::size_t last;
  };
  std::vector<TweetArcs> tweet_arcs_;
  std::int64_t num_tweets_ = 0;
  std::int64_t tweets_with_mentions_ = 0;
  std::int64_t self_references_ = 0;
  std::int64_t retweets_ = 0;
};

}  // namespace graphct::twitter
