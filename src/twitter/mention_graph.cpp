#include "twitter/mention_graph.hpp"

#include <algorithm>
#include <bit>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/transforms.hpp"
#include "twitter/tweet_parser.hpp"
#include "util/error.hpp"

namespace graphct::twitter {

namespace {

/// FNV-1a over the lowercased bytes.
std::uint64_t folded_hash(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(to_lower_ascii(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool folded_equal(std::string_view raw, const std::string& stored) {
  if (raw.size() != stored.size()) return false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (to_lower_ascii(raw[i]) != stored[i]) return false;
  }
  return true;
}

}  // namespace

std::size_t UserIndex::home(std::uint64_t hash) const {
  // Fibonacci hashing: the top bits of the product mix every hash bit.
  return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t UserIndex::probe(std::string_view name, std::uint64_t hash,
                             const std::vector<std::string>& users) const {
  // The id bound keeps a `users` vector that no longer matches the index
  // (MentionGraph::users is a public field) from reading out of range.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(hash);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    const auto id = static_cast<std::size_t>(s.id);
    if (s.id == graphct::kNoVertex ||
        (s.hash == hash && id < users.size() &&
         folded_equal(name, users[id]))) {
      return i;
    }
  }
}

void UserIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == graphct::kNoVertex) continue;
    std::size_t i = home(s.hash);
    while (slots_[i].id != graphct::kNoVertex) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

vid UserIndex::find(std::string_view name,
                    const std::vector<std::string>& users) const {
  if (slots_.empty()) return graphct::kNoVertex;
  return slots_[probe(name, folded_hash(name), users)].id;
}

vid UserIndex::intern(std::string_view name, std::vector<std::string>& users) {
  if (2 * (users.size() + 1) > slots_.size()) grow();
  const std::uint64_t hash = folded_hash(name);
  Slot& s = slots_[probe(name, hash, users)];
  if (s.id == graphct::kNoVertex) {
    s = Slot{hash, static_cast<vid>(users.size())};
    users.push_back(normalize_username(name));
  }
  return s.id;
}

CsrGraph MentionGraph::undirected() const {
  return graphct::to_undirected(directed);
}

vid MentionGraph::id_of(const std::string& normalized_name) const {
  const bool normalized =
      std::none_of(normalized_name.begin(), normalized_name.end(),
                   [](char c) { return c != to_lower_ascii(c); });
  return normalized ? user_index.find(normalized_name, users)
                    : graphct::kNoVertex;
}

vid MentionGraphBuilder::intern(std::string_view name) {
  const vid id = index_.intern(name, users_);
  mentioned_in_.resize(users_.size());
  return id;
}

void MentionGraphBuilder::add(const Tweet& tweet) {
  const std::int64_t ordinal = ++num_tweets_;
  if (!retweet_source(tweet.text).empty()) ++retweets_;
  const vid author = intern(tweet.author);

  const std::size_t first = arcs_.size();
  bool self = false;
  SymbolScanner scan(tweet.text);
  for (Symbol s; scan.next(s);) {
    if (s.sigil != '@') continue;
    const vid t = intern(s.name);
    std::int64_t& last = mentioned_in_[static_cast<std::size_t>(t)];
    if (last == ordinal) continue;  // repeated within this tweet
    last = ordinal;
    self |= t == author;
    arcs_.push_back({author, t});
  }
  if (arcs_.size() == first) return;
  ++tweets_with_mentions_;
  if (self) ++self_references_;
  tweet_arcs_.push_back({author, first, arcs_.size()});
}

MentionGraph MentionGraphBuilder::build() && {
  MentionGraph g;
  g.num_tweets = num_tweets_;
  g.tweets_with_mentions = tweets_with_mentions_;
  g.self_references = self_references_;
  g.retweets = retweets_;
  g.num_users = static_cast<std::int64_t>(users_.size());

  graphct::EdgeList el(static_cast<vid>(users_.size()));
  el.edges() = arcs_;  // copy; arcs_ is still needed for response counting

  graphct::BuildOptions opts;
  opts.symmetrize = false;   // keep direction for the conversation filter
  opts.dedup = true;         // "duplicate user interactions are thrown out"
  opts.remove_self_loops = false;
  opts.sort_adjacency = true;
  g.directed = graphct::build_csr(el, opts);

  // Unique interactions exclude self-loops (an interaction needs two users).
  g.unique_interactions =
      g.directed.num_edges() - g.directed.num_self_loops();

  // A tweet "has a response" when it mentions at least one user who mentions
  // the author back somewhere in the corpus — i.e. it lies on a reciprocated
  // (conversation) arc.
  std::int64_t responses = 0;
  const std::int64_t nt = static_cast<std::int64_t>(tweet_arcs_.size());
#pragma omp parallel for reduction(+ : responses) schedule(dynamic, 256)
  for (std::int64_t i = 0; i < nt; ++i) {
    const auto& ta = tweet_arcs_[static_cast<std::size_t>(i)];
    for (std::size_t a = ta.first; a < ta.last; ++a) {
      const vid target = arcs_[a].dst;
      if (target != ta.author && g.directed.has_edge(target, ta.author)) {
        ++responses;
        break;
      }
    }
  }
  g.tweets_with_responses = responses;

  g.users = std::move(users_);
  g.user_index = std::move(index_);
  return g;
}

}  // namespace graphct::twitter
