/// Differential fuzz of the tweet readers: parse_tsv, parse_tweet and
/// MentionGraphBuilder against a copy of the original serial code
/// (line-at-a-time parse, unordered_set mention dedup, unordered_map
/// interner) on deterministic util/rng streams large enough to split into
/// several parse chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "twitter/mention_graph.hpp"
#include "twitter/tweet_io.hpp"
#include "twitter/tweet_parser.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace graphct::twitter {
namespace {

// ------------------------------------------------------------- reference

namespace ref {

std::int64_t parse_int_field(std::string_view field, int lineno,
                             const char* what) {
  GCT_CHECK(!field.empty(), "tweet TSV line " + std::to_string(lineno) +
                                ": empty " + what);
  std::int64_t v = 0;
  bool neg = false;
  std::size_t i = 0;
  if (field[0] == '-') {
    neg = true;
    i = 1;
  }
  GCT_CHECK(i < field.size(), "tweet TSV line " + std::to_string(lineno) +
                                  ": malformed " + what);
  for (; i < field.size(); ++i) {
    GCT_CHECK(std::isdigit(static_cast<unsigned char>(field[i])),
              "tweet TSV line " + std::to_string(lineno) + ": malformed " +
                  what);
    v = v * 10 + (field[i] - '0');
  }
  return neg ? -v : v;
}

std::vector<Tweet> parse_tsv(std::string_view text) {
  std::vector<Tweet> out;
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    std::string_view fields[4];
    std::size_t start = 0;
    for (int f = 0; f < 3; ++f) {
      const std::size_t tab = line.find('\t', start);
      GCT_CHECK(tab != std::string_view::npos,
                "tweet TSV line " + std::to_string(lineno) +
                    ": expected 4 tab-separated fields");
      fields[f] = line.substr(start, tab - start);
      start = tab + 1;
    }
    fields[3] = line.substr(start);

    Tweet t;
    t.id = parse_int_field(fields[0], lineno, "id");
    t.timestamp = parse_int_field(fields[1], lineno, "timestamp");
    GCT_CHECK(!fields[2].empty(), "tweet TSV line " + std::to_string(lineno) +
                                      ": empty author");
    t.author = std::string(fields[2]);
    t.text = std::string(fields[3]);
    out.push_back(std::move(t));
  }
  return out;
}

bool is_username_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string normalize_username(std::string_view name) {
  std::string out(name);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

ParsedTweet parse_tweet(const Tweet& tweet) {
  ParsedTweet p;
  p.id = tweet.id;
  p.author = normalize_username(tweet.author);
  p.timestamp = tweet.timestamp;

  const std::string_view text = tweet.text;
  std::unordered_set<std::string> seen_mentions;

  std::size_t start = 0;
  while (start < text.size() &&
         std::isspace(static_cast<unsigned char>(text[start]))) {
    ++start;
  }
  if (start + 4 <= text.size() && text[start] == 'R' &&
      text[start + 1] == 'T' && text[start + 2] == ' ' &&
      text[start + 3] == '@') {
    std::size_t q = start + 4;
    std::size_t b = q;
    while (q < text.size() && is_username_char(text[q])) ++q;
    if (q > b) {
      p.is_retweet = true;
      p.retweet_of = normalize_username(text.substr(b, q - b));
    }
  }

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '@' && c != '#') continue;
    if (i > 0 && is_username_char(text[i - 1])) continue;
    std::size_t q = i + 1;
    while (q < text.size() && is_username_char(text[q])) ++q;
    if (q == i + 1) continue;
    std::string token = normalize_username(text.substr(i + 1, q - i - 1));
    if (c == '@') {
      if (seen_mentions.insert(token).second) {
        p.mentions.push_back(std::move(token));
      }
    } else {
      if (std::find(p.hashtags.begin(), p.hashtags.end(), token) ==
          p.hashtags.end()) {
        p.hashtags.push_back(std::move(token));
      }
    }
    i = q - 1;
  }
  return p;
}

struct Graph {
  CsrGraph directed;
  std::vector<std::string> users;
  std::unordered_map<std::string, vid> user_ids;
  std::int64_t num_tweets = 0;
  std::int64_t num_users = 0;
  std::int64_t unique_interactions = 0;
  std::int64_t tweets_with_mentions = 0;
  std::int64_t tweets_with_responses = 0;
  std::int64_t self_references = 0;
  std::int64_t retweets = 0;

  vid id_of(const std::string& name) const {
    auto it = user_ids.find(name);
    return it == user_ids.end() ? kNoVertex : it->second;
  }
};

Graph build_graph(const std::vector<Tweet>& tweets) {
  Graph g;
  std::vector<Edge> arcs;
  struct TweetArcs {
    vid author;
    std::size_t first;
    std::size_t last;
  };
  std::vector<TweetArcs> tweet_arcs;
  const auto intern = [&](const std::string& name) {
    auto [it, inserted] =
        g.user_ids.try_emplace(name, static_cast<vid>(g.users.size()));
    if (inserted) g.users.push_back(name);
    return it->second;
  };
  for (const Tweet& raw : tweets) {
    const ParsedTweet tweet = ref::parse_tweet(raw);
    ++g.num_tweets;
    if (tweet.is_retweet) ++g.retweets;
    const vid author = intern(tweet.author);
    if (tweet.mentions.empty()) continue;
    ++g.tweets_with_mentions;
    const std::size_t first = arcs.size();
    bool self = false;
    for (const auto& target : tweet.mentions) {
      const vid t = intern(target);
      if (t == author) self = true;
      arcs.push_back({author, t});
    }
    if (self) ++g.self_references;
    tweet_arcs.push_back({author, first, arcs.size()});
  }
  g.num_users = static_cast<std::int64_t>(g.users.size());

  EdgeList el(static_cast<vid>(g.users.size()));
  el.edges() = arcs;
  BuildOptions opts;
  opts.symmetrize = false;
  opts.dedup = true;
  opts.remove_self_loops = false;
  opts.sort_adjacency = true;
  g.directed = build_csr(el, opts);
  g.unique_interactions = g.directed.num_edges() - g.directed.num_self_loops();
  for (const auto& ta : tweet_arcs) {
    for (std::size_t a = ta.first; a < ta.last; ++a) {
      const vid target = arcs[a].dst;
      if (target != ta.author && g.directed.has_edge(target, ta.author)) {
        ++g.tweets_with_responses;
        break;
      }
    }
  }
  return g;
}

}  // namespace ref

// ------------------------------------------------------------- generator

constexpr char kNameChars[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";

/// Deterministic TSV streams with every shape the readers must agree on.
class StreamGen {
 public:
  explicit StreamGen(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 300; ++i) pool_.push_back(word(1, 16, kNameChars));
  }

  /// About `bytes` of stream; with `defects`, that many malformed lines at
  /// random positions.
  std::string stream(std::size_t bytes, int defects) {
    std::vector<std::string> lines;
    std::size_t size = 0;
    while (size < bytes) {
      lines.push_back(line());
      size += lines.back().size() + 1;
    }
    for (int d = 0; d < defects; ++d) {
      lines[rng_.next_below(lines.size())] = bad_line();
    }
    std::string out;
    for (const auto& l : lines) {
      out += l;
      out += rng_.next_bool(0.1) ? "\r\n" : "\n";
    }
    if (rng_.next_bool(0.5)) out.pop_back();  // final newline (or CR) dropped
    return out;
  }

 private:
  std::string word(int lo, int hi, std::string_view alphabet) {
    std::string w(static_cast<std::size_t>(rng_.next_in(lo, hi)), ' ');
    for (char& c : w) c = alphabet[rng_.next_below(alphabet.size())];
    return w;
  }

  /// A pooled name in random case, so repeats, reciprocation and
  /// case-folded duplicates all occur.
  std::string name() {
    std::string n = pool_[rng_.next_below(pool_.size())];
    for (char& c : n) {
      if (rng_.next_bool(0.3)) {
        c = static_cast<char>(rng_.next_bool(0.5) ? std::toupper(c)
                                                  : std::tolower(c));
      }
    }
    return n;
  }

  std::string number() {
    switch (rng_.next_below(5)) {
      case 0: return "-" + std::to_string(rng_.next_below(1000000));
      case 1: return "00" + std::to_string(rng_.next_below(100));
      case 2: return "-0";
      case 3:  // up to 18 digits: in range for the reference's int64 math
        return std::to_string(rng_.next_below(1000000000000000000ULL));
      default: return std::to_string(rng_.next_below(2000000000));
    }
  }

  std::string author() {
    std::string a = name();
    if (rng_.next_bool(0.05)) a += "\xc3\x89t\xe9";  // bytes >= 0x80
    if (rng_.next_bool(0.03)) a = "a b.c";            // not a handle at all
    return a;
  }

  std::string text() {
    std::string t;
    if (rng_.next_bool(0.15)) {
      t += word(0, 2, " \t\v\f\r");
      t += rng_.next_bool(0.8) ? "RT @" : "RT@";
      if (rng_.next_bool(0.9)) t += name();
      t += ' ';
    }
    const auto tokens = rng_.next_in(0, 12);
    for (std::int64_t i = 0; i < tokens; ++i) {
      switch (rng_.next_below(14)) {
        case 0: case 1: case 2: t += "@" + name(); break;
        case 3: t += "#" + name(); break;
        case 4: t += word(1, 6, kNameChars) + "@" + name(); break;  // glued
        case 5: t += word(1, 6, kNameChars) + "#" + name(); break;
        case 6: t += rng_.next_bool(0.5) ? "@" : "#"; break;        // bare
        case 7: t += "@@" + name() + "#" + name(); break;
        case 8: t += "\xe2\x9c\x93@" + name(); break;  // after a high byte
        case 9: t += "@" + name() + "\xf0\x9f\x98\x80"; break;
        case 10: t += "(@" + name() + ")!,."; break;
        case 11: t += "\t"; break;  // tabs past the third belong to text
        default: t += word(1, 10, "abcdefgXYZ019_-./:"); break;
      }
      t += rng_.next_bool(0.8) ? " " : "";
    }
    if (rng_.next_bool(0.1)) t += rng_.next_bool(0.5) ? "@" : "#";  // trailing
    return t;
  }

  std::string line() {
    switch (rng_.next_below(20)) {
      case 0: return "#" + word(0, 20, "abc \t@#");
      case 1: return "";  // blank, or "\r" once a CRLF ending is added
      case 2: return "1\t2\tcr\ttext\rwith a CR inside @cr\r";
      default:
        return number() + "\t" + number() + "\t" + author() + "\t" + text();
    }
  }

  std::string bad_line() {
    const std::string id = number();
    const std::string ts = number();
    const std::string a = author();
    switch (rng_.next_below(10)) {
      case 0: return id + "\t" + ts + "\t" + a;  // three fields
      case 1: return id;
      case 2: return "\t" + ts + "\t" + a + "\thi";
      case 3: return "-\t" + ts + "\t" + a + "\thi";
      case 4: return id + "x\t" + ts + "\t" + a + "\thi";
      case 5: return id + "\t\t" + a + "\thi";
      case 6: return id + "\t-\t" + a + "\thi";
      case 7: return id + "\t+" + ts + "\t" + a + "\thi";
      case 8: return id + "\t" + ts + "\t\t@" + a;
      default: return " " + id + "\t" + ts + "\t" + a + "\thi";
    }
  }

  Rng rng_;
  std::vector<std::string> pool_;
};

// ------------------------------------------------------------- checks

/// The message without its "file:line: " origin.
std::string message_tail(const std::string& what) {
  const std::size_t p = what.find("tweet TSV line");
  return p == std::string::npos ? what : what.substr(p);
}

void expect_same_tweets(const std::vector<Tweet>& got,
                        const std::vector<Tweet>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "tweet " << i;
    ASSERT_EQ(got[i].timestamp, want[i].timestamp) << "tweet " << i;
    ASSERT_EQ(got[i].author, want[i].author) << "tweet " << i;
    ASSERT_EQ(got[i].text, want[i].text) << "tweet " << i;
  }
}

void expect_same_parse(const Tweet& t) {
  const ParsedTweet got = parse_tweet(t);
  const ParsedTweet want = ref::parse_tweet(t);
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.author, want.author);
  EXPECT_EQ(got.mentions, want.mentions) << t.text;
  EXPECT_EQ(got.hashtags, want.hashtags) << t.text;
  EXPECT_EQ(got.is_retweet, want.is_retweet) << t.text;
  EXPECT_EQ(got.retweet_of, want.retweet_of) << t.text;
  EXPECT_EQ(got.timestamp, want.timestamp);
}

void expect_same_graph(const std::vector<Tweet>& tweets) {
  MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  const MentionGraph got = std::move(b).build();
  const ref::Graph want = ref::build_graph(tweets);

  ASSERT_EQ(got.users, want.users);
  EXPECT_TRUE(std::ranges::equal(got.directed.offsets(),
                                 want.directed.offsets()));
  EXPECT_TRUE(std::ranges::equal(got.directed.adjacency(),
                                 want.directed.adjacency()));
  EXPECT_EQ(got.num_tweets, want.num_tweets);
  EXPECT_EQ(got.num_users, want.num_users);
  EXPECT_EQ(got.unique_interactions, want.unique_interactions);
  EXPECT_EQ(got.tweets_with_mentions, want.tweets_with_mentions);
  EXPECT_EQ(got.tweets_with_responses, want.tweets_with_responses);
  EXPECT_EQ(got.self_references, want.self_references);
  EXPECT_EQ(got.retweets, want.retweets);

  // id_of answers exactly as the reference map does: every user, every
  // user spelled in uppercase, and names nobody has.
  std::vector<std::string> probes = {"", "nobody here", "\x01"};
  for (const auto& u : want.users) {
    probes.push_back(u);
    std::string upper = u;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    probes.push_back(upper);
    probes.push_back(u + "_");
  }
  for (const auto& p : probes) {
    ASSERT_EQ(got.id_of(p), want.id_of(p)) << "id_of(\"" << p << "\")";
  }
}

/// Parse `text` at threads 1, 2 and 4 and compare each result, or error,
/// with the reference. Returns the reference tweets (empty on error).
std::vector<Tweet> expect_same_parse_tsv(const std::string& text) {
  std::vector<Tweet> want;
  std::string want_error;
  try {
    want = ref::parse_tsv(text);
  } catch (const Error& e) {
    want_error = message_tail(e.what());
  }
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    try {
      const auto got = parse_tsv(text);
      EXPECT_EQ(want_error, "") << "threads=" << threads;
      expect_same_tweets(got, want);
    } catch (const Error& e) {
      EXPECT_EQ(message_tail(e.what()), want_error) << "threads=" << threads;
    }
  }
  set_num_threads(0);
  return want;
}

// 300 KB splits into 4 chunks at two threads and 4 at four.
constexpr std::size_t kStreamBytes = 300 << 10;

TEST(TweetFuzzTest, ValidStreamsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    StreamGen gen(seed);
    const std::string text = gen.stream(kStreamBytes, 0);
    std::vector<Tweet> tweets = expect_same_parse_tsv(text);
    ASSERT_GT(tweets.size(), 1000u);
    for (const auto& t : tweets) expect_same_parse(t);
    // The builder also takes tweets that never passed through TSV.
    tweets.push_back(Tweet{0, "", "@Nobody @nobody hi", 0});
    tweets.push_back(Tweet{1, "MiXeD", "RT @mixed @MIXED", 1});
    for (const int threads : {1, 2, 4}) {
      set_num_threads(threads);
      expect_same_graph(tweets);
    }
    set_num_threads(0);
  }
}

TEST(TweetFuzzTest, MalformedStreamsReportTheFirstBadLine) {
  for (std::uint64_t seed = 100; seed < 124; ++seed) {
    StreamGen gen(seed);
    const std::string text = gen.stream(kStreamBytes, 1 + seed % 3);
    expect_same_parse_tsv(text);
  }
}

TEST(TweetFuzzTest, SmallStreamsMatchReference) {
  // Single-chunk edge cases, including those a large stream rarely hits.
  for (const std::string text :
       {"", "\n", "\r\n", "#", "1\t2\ta\tb", "1\t2\ta\tb\r", "\n\n1\t2\ta\t",
        "1\t2\ta", "-\t1\ta\tb", "1\t-\ta\tb", "-5\t-0\ta\tb\tc\n",
        "1\t2\t\tb", "\t\t\t", "#c\n\r\n9\t9\tz\t@z #z"}) {
    expect_same_parse_tsv(text);
  }
  for (std::uint64_t seed = 1000; seed < 1200; ++seed) {
    StreamGen gen(seed);
    expect_same_parse_tsv(gen.stream(200, seed % 4 == 0 ? 1 : 0));
  }
}

}  // namespace
}  // namespace graphct::twitter
