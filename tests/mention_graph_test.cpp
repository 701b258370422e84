#include "twitter/mention_graph.hpp"

#include <gtest/gtest.h>

#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "twitter/tweet_io.hpp"
#include "util/parallel.hpp"

namespace graphct::twitter {
namespace {

Tweet tw(std::int64_t id, const std::string& author, const std::string& text) {
  return Tweet{id, author, text, id};
}

MentionGraph build(std::initializer_list<Tweet> tweets) {
  MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  return std::move(b).build();
}

TEST(MentionGraphTest, SingleMentionMakesOneArc) {
  const auto g = build({tw(1, "alice", "hi @bob")});
  EXPECT_EQ(g.num_users, 2);
  EXPECT_EQ(g.unique_interactions, 1);
  EXPECT_EQ(g.num_tweets, 1);
  EXPECT_EQ(g.tweets_with_mentions, 1);
  const vid a = g.id_of("alice");
  const vid b = g.id_of("bob");
  ASSERT_NE(a, graphct::kNoVertex);
  ASSERT_NE(b, graphct::kNoVertex);
  EXPECT_TRUE(g.directed.has_edge(a, b));
  EXPECT_FALSE(g.directed.has_edge(b, a));
}

TEST(MentionGraphTest, DuplicateInteractionsThrownOut) {
  const auto g = build({tw(1, "alice", "hi @bob"), tw(2, "alice", "yo @bob"),
                        tw(3, "ALICE", "again @BOB")});
  EXPECT_EQ(g.num_tweets, 3);
  EXPECT_EQ(g.unique_interactions, 1);  // the paper's dedup rule
}

TEST(MentionGraphTest, PlainTweetsAddIsolatedAuthors) {
  const auto g = build({tw(1, "alice", "just lunch"), tw(2, "bob", "hi @carol")});
  EXPECT_EQ(g.num_users, 3);
  EXPECT_EQ(g.tweets_with_mentions, 1);
  EXPECT_EQ(g.directed.degree(g.id_of("alice")), 0);
}

TEST(MentionGraphTest, SelfReferenceCounted) {
  const auto g = build({tw(1, "echo", "quoting @echo")});
  EXPECT_EQ(g.self_references, 1);
  EXPECT_EQ(g.unique_interactions, 0);  // self-loops are not interactions
  EXPECT_EQ(g.directed.num_self_loops(), 1);
}

TEST(MentionGraphTest, RetweetCounted) {
  const auto g = build({tw(1, "fan", "RT @hub the news")});
  EXPECT_EQ(g.retweets, 1);
  EXPECT_EQ(g.unique_interactions, 1);
}

TEST(MentionGraphTest, ResponsesAreReciprocatedTweets) {
  const auto g = build({
      tw(1, "a", "question for @b"),   // has a response (b mentions a)
      tw(2, "b", "answer to @a"),      // has a response (a mentions b)
      tw(3, "c", "shoutout @a"),       // no response: a never mentions c
  });
  EXPECT_EQ(g.tweets_with_responses, 2);
}

TEST(MentionGraphTest, MultiMentionTweetCountsOncePerTweet) {
  const auto g = build({
      tw(1, "a", "hey @b and @c"),  // reciprocated via b only
      tw(2, "b", "ok @a"),
  });
  EXPECT_EQ(g.tweets_with_responses, 2);
  EXPECT_EQ(g.unique_interactions, 3);
}

TEST(MentionGraphTest, UndirectedViewMergesDirections) {
  const auto g = build({tw(1, "a", "@b"), tw(2, "b", "@a"), tw(3, "a", "@c")});
  const auto u = g.undirected();
  EXPECT_FALSE(u.directed());
  EXPECT_EQ(u.num_edges(), 2);  // {a,b} and {a,c}
}

TEST(MentionGraphTest, IdOfUnknownUserIsNoVertex) {
  const auto g = build({tw(1, "a", "@b")});
  EXPECT_EQ(g.id_of("nobody"), graphct::kNoVertex);
}

TEST(MentionGraphTest, UsersArrayMatchesIds) {
  const auto g = build({tw(1, "a", "@b and @c")});
  for (vid v = 0; v < g.directed.num_vertices(); ++v) {
    EXPECT_EQ(g.id_of(g.users[static_cast<std::size_t>(v)]), v);
  }
}

TEST(MentionGraphTest, EmptyBuilder) {
  MentionGraphBuilder b;
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_users, 0);
  EXPECT_EQ(g.directed.num_vertices(), 0);
}

// add() interns each tweet kInternWindow tweets after scanning it and
// build() interns the rest, so streams that end inside the first window,
// on its edge and just past it give the ids and arcs of interning at once.
TEST(MentionGraphTest, StreamsShorterThanTheInternWindowDrainInBuild) {
  for (const std::int64_t count :
       {std::int64_t{1}, kInternWindow - 1, kInternWindow, kInternWindow + 1,
        2 * kInternWindow + 3}) {
    MentionGraphBuilder b;
    for (std::int64_t i = 0; i < count; ++i) {
      b.add(tw(i, "u" + std::to_string(2 * i),
               "@U" + std::to_string(2 * i + 1) + " @u" +
                   std::to_string(2 * i + 1)));
    }
    const auto g = std::move(b).build();
    ASSERT_EQ(g.num_users, 2 * count) << count;
    for (std::int64_t v = 0; v < 2 * count; ++v) {
      EXPECT_EQ(g.users[static_cast<std::size_t>(v)], "u" + std::to_string(v));
    }
    EXPECT_EQ(g.num_tweets, count);
    EXPECT_EQ(g.tweets_with_mentions, count);
    EXPECT_EQ(g.unique_interactions, count);
    for (std::int64_t i = 0; i < count; ++i) {
      EXPECT_TRUE(g.directed.has_edge(2 * i, 2 * i + 1)) << i;
    }
  }
}

TEST(MentionGraphTest, TweetWithMoreMentionsThanTheInternWindow) {
  std::string text;
  const std::int64_t mentions = 2 * kInternWindow + 5;
  for (std::int64_t i = 0; i < mentions; ++i) {
    text += "@m" + std::to_string(i) + " ";
  }
  text += "@M5 @hub";  // a repeat in other case, then a self-reference
  const auto g = build({tw(1, "hub", text), tw(2, "m3", "@hub")});
  ASSERT_EQ(g.num_users, mentions + 1);
  EXPECT_EQ(g.users[0], "hub");
  for (std::int64_t i = 0; i < mentions; ++i) {
    EXPECT_EQ(g.users[static_cast<std::size_t>(i) + 1],
              "m" + std::to_string(i));
    EXPECT_TRUE(g.directed.has_edge(0, i + 1)) << i;
  }
  EXPECT_EQ(g.directed.num_edges(), mentions + 2);  // + hub->hub, m3->hub
  EXPECT_EQ(g.unique_interactions, mentions + 1);
  EXPECT_EQ(g.self_references, 1);
  EXPECT_EQ(g.tweets_with_mentions, 2);
  EXPECT_EQ(g.tweets_with_responses, 2);  // hub <-> m3
}

TEST(MentionGraphTest, PaperConversationFigure1) {
  // The Fig. 1 H1N1 exchange: jaketapper <-> dancharles is a conversation.
  const auto g = build({
      tw(1, "jaketapper", "@EdMorrissey Asserting that all thats being done"),
      tw(2, "jaketapper", "@dancharles as someone with a pregnant wife"),
      tw(3, "dancharles", "RT @jaketapper @Slate: Sanjay Gupta has swine flu"),
  });
  const vid jt = g.id_of("jaketapper");
  const vid dc = g.id_of("dancharles");
  EXPECT_TRUE(g.directed.has_edge(jt, dc));
  EXPECT_TRUE(g.directed.has_edge(dc, jt));
  EXPECT_GE(g.tweets_with_responses, 2);
}

/// FNV-1a over a mention graph's ids and Table III counters: the users in
/// id order, the directed CSR, then the counters, integers little-endian.
std::uint64_t fingerprint(const MentionGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto i64 = [&](std::int64_t v) {
    for (int k = 0; k < 8; ++k) {
      byte(static_cast<unsigned char>(static_cast<std::uint64_t>(v) >>
                                      (8 * k)));
    }
  };
  for (const auto& u : g.users) {
    i64(static_cast<std::int64_t>(u.size()));
    for (const char c : u) byte(static_cast<unsigned char>(c));
  }
  for (const eid o : g.directed.offsets()) i64(o);
  for (const vid a : g.directed.adjacency()) i64(a);
  for (const std::int64_t c :
       {g.num_tweets, g.num_users, g.unique_interactions,
        g.tweets_with_mentions, g.tweets_with_responses, g.self_references,
        g.retweets}) {
    i64(c);
  }
  return h;
}

TEST(MentionGraphTest, IdsMatchFirstOccurrenceOrderOfRecordedBuilds) {
  // Ids decide which vertices sampled betweenness starts from, so a change
  // in id order would silently move every downstream result. The constants
  // were recorded from the unordered_map interner that preceded UserIndex.
  struct Case {
    const char* preset;
    std::int64_t users;
    std::uint64_t fingerprint;
  };
  for (const Case c : {Case{"atlflood", 2369, 0x12b210d344d0f743ULL},
                       Case{"h1n1", 51651, 0x294ba4b870814b85ULL}}) {
    const std::string tsv =
        to_tsv(generate_corpus(dataset_preset(c.preset).corpus));
    for (const int threads : {1, 2, 4}) {
      set_num_threads(threads);
      MentionGraphBuilder b;
      for (const auto& t : parse_tsv(tsv)) b.add(t);
      const MentionGraph g = std::move(b).build();
      EXPECT_EQ(g.num_users, c.users) << c.preset << " threads=" << threads;
      EXPECT_EQ(fingerprint(g), c.fingerprint)
          << c.preset << " threads=" << threads;
    }
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace graphct::twitter
