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

bool folded_equal(std::string_view raw, const std::string& stored) {
  if (raw.size() != stored.size()) return false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (to_lower_ascii(raw[i]) != stored[i]) return false;
  }
  return true;
}

}  // namespace

std::uint64_t UserIndex::name_hash(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(to_lower_ascii(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

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
  return slots_[probe(name, name_hash(name), users)].id;
}

void UserIndex::prefetch(std::uint64_t hash) const {
  if (!slots_.empty()) __builtin_prefetch(&slots_[home(hash)]);
}

vid UserIndex::intern(std::string_view name, std::uint64_t hash,
                      std::vector<std::string>& users) {
  if (2 * (users.size() + 1) > slots_.size()) grow();
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

vid MentionGraphBuilder::intern(std::string_view name, std::uint64_t hash) {
  const vid id = index_.intern(name, hash, users_);
  mentioned_in_.resize(users_.size());
  return id;
}

void MentionGraphBuilder::add(const Tweet& tweet) {
  const std::int64_t ordinal = ++num_tweets_;
  if (!retweet_source(tweet.text).empty()) ++retweets_;
  // The slot for this tweet holds the one that entered kInternWindow
  // tweets ago; intern it before reusing the slot.
  Pending& p = window_[static_cast<std::size_t>(ordinal % kInternWindow)];
  if (ordinal > kInternWindow) intern_tweet(p);

  p.names.clear();
  p.index.clear();
  auto push = [&](std::string_view name) {
    const std::uint64_t h = UserIndex::name_hash(name);
    index_.prefetch(h);
    p.names.append(name);
    p.index.push_back({p.names.size(), h});
  };
  push(tweet.author);
  SymbolScanner scan(tweet.text);
  for (Symbol s; scan.next(s);) {
    if (s.sigil == '@') push(s.name);
  }
}

void MentionGraphBuilder::intern_tweet(const Pending& tweet) {
  const std::int64_t ordinal = ++num_interned_;
  const std::string_view names = tweet.names;
  std::size_t begin = 0;
  auto next = [&](const Pending::Name& n) {
    const vid id = intern(names.substr(begin, n.end - begin), n.hash);
    begin = n.end;
    return id;
  };
  const vid author = next(tweet.index.front());

  const std::size_t first = arcs_.size();
  bool self = false;
  for (std::size_t i = 1; i < tweet.index.size(); ++i) {
    const vid t = next(tweet.index[i]);
    std::int64_t& last = mentioned_in_[static_cast<std::size_t>(t)];
    if (last == ordinal) continue;  // repeated within this tweet
    last = ordinal;
    self |= t == author;
    arcs_.push_back({author, t});
  }
  if (arcs_.size() == first) return;
  ++tweets_with_mentions_;
  if (self) ++self_references_;
  tweet_first_arc_.push_back(first);
}

MentionGraph MentionGraphBuilder::build() && {
  for (std::int64_t o = num_interned_ + 1; o <= num_tweets_; ++o) {
    intern_tweet(window_[static_cast<std::size_t>(o % kInternWindow)]);
  }

  MentionGraph g;
  g.num_tweets = num_tweets_;
  g.tweets_with_mentions = tweets_with_mentions_;
  g.self_references = self_references_;
  g.retweets = retweets_;
  g.num_users = static_cast<std::int64_t>(users_.size());

  // The edge list takes the arcs over; the response count reads them back
  // from it.
  graphct::EdgeList el(static_cast<vid>(users_.size()));
  el.edges() = std::move(arcs_);

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
  const auto& arcs = el.edges();
  std::int64_t responses = 0;
  const auto nt = static_cast<std::int64_t>(tweet_first_arc_.size());
#pragma omp parallel for reduction(+ : responses) schedule(dynamic, 256)
  for (std::int64_t i = 0; i < nt; ++i) {
    const std::size_t first = tweet_first_arc_[static_cast<std::size_t>(i)];
    const std::size_t last =
        i + 1 < nt ? tweet_first_arc_[static_cast<std::size_t>(i) + 1]
                   : arcs.size();
    const vid author = arcs[first].src;
    for (std::size_t a = first; a < last; ++a) {
      const vid target = arcs[a].dst;
      if (target != author && g.directed.has_edge(target, author)) {
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
