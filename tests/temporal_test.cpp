#include "twitter/temporal.hpp"

#include <gtest/gtest.h>

#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "util/error.hpp"

namespace graphct::twitter {
namespace {

Tweet tw(std::int64_t id, const std::string& author, const std::string& text,
         std::int64_t ts) {
  return Tweet{id, author, text, ts};
}

std::vector<Tweet> two_hour_stream() {
  // Hour 1 (t in [0, 3600)): a broadcast burst around @hub.
  // Hour 2 (t in [3600, 7200)): a conversation between alice and bob.
  std::vector<Tweet> tweets;
  std::int64_t id = 1;
  for (int i = 0; i < 5; ++i) {
    tweets.push_back(tw(id++, "fan" + std::to_string(i), "RT @hub news",
                        100 * (i + 1)));
  }
  tweets.push_back(tw(id++, "alice", "@bob how is it", 3700));
  tweets.push_back(tw(id++, "bob", "@alice all fine", 3800));
  tweets.push_back(tw(id++, "alice", "@bob great", 3900));
  return tweets;
}

TEST(SlidingWindowTest, TumblingWindowsSplitTheStream) {
  const auto stats = sliding_window_stats(two_hour_stream(),
                                          {.window_seconds = 3600});
  ASSERT_EQ(stats.size(), 2u);

  const auto& w0 = stats[0];
  EXPECT_EQ(w0.tweets, 5);
  EXPECT_EQ(w0.users, 6);  // 5 fans + hub
  EXPECT_EQ(w0.unique_interactions, 5);
  EXPECT_EQ(w0.mutual_pairs, 0);
  EXPECT_EQ(w0.top_user, "hub");
  EXPECT_EQ(w0.top_user_mentions, 5);
  EXPECT_EQ(w0.lwcc_users, 6);

  const auto& w1 = stats[1];
  EXPECT_EQ(w1.tweets, 3);
  EXPECT_EQ(w1.users, 2);
  EXPECT_EQ(w1.mutual_pairs, 1);  // alice <-> bob
  EXPECT_EQ(w1.tweets_with_responses, 3);
}

TEST(SlidingWindowTest, WindowBoundsAreHalfOpen) {
  std::vector<Tweet> tweets{tw(1, "a", "@b", 0), tw(2, "c", "@d", 3600)};
  const auto stats = sliding_window_stats(tweets, {.window_seconds = 3600});
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].tweets, 1);
  EXPECT_EQ(stats[1].tweets, 1);
}

TEST(SlidingWindowTest, OverlappingStride) {
  const auto stats = sliding_window_stats(
      two_hour_stream(), {.window_seconds = 3600, .stride_seconds = 1800});
  // Starts at 100, 1900, 3700 (first tweet ts=100): 3 windows with tweets.
  EXPECT_GE(stats.size(), 2u);
  for (const auto& w : stats) {
    EXPECT_EQ(w.end - w.start, 3600);
    EXPECT_GE(w.tweets, 1);
  }
}

TEST(SlidingWindowTest, MinTweetsFilters) {
  // 600 s windows: the burst window holds 5 tweets, the conversation
  // window 3; a floor of 4 keeps only the burst.
  const auto all = sliding_window_stats(two_hour_stream(),
                                        {.window_seconds = 600});
  const auto filtered = sliding_window_stats(
      two_hour_stream(), {.window_seconds = 600, .min_tweets = 4});
  EXPECT_GT(all.size(), filtered.size());
  for (const auto& w : filtered) EXPECT_GE(w.tweets, 4);
}

TEST(SlidingWindowTest, EmptyStream) {
  EXPECT_TRUE(sliding_window_stats({}, {}).empty());
}

TEST(SlidingWindowTest, UnsortedStreamThrows) {
  std::vector<Tweet> tweets{tw(1, "a", "@b", 100), tw(2, "c", "@d", 50)};
  EXPECT_THROW(sliding_window_stats(tweets, {}), graphct::Error);
}

TEST(SlidingWindowTest, BadWindowThrows) {
  std::vector<Tweet> tweets{tw(1, "a", "@b", 0)};
  EXPECT_THROW(sliding_window_stats(tweets, {.window_seconds = 0}),
               graphct::Error);
}

TEST(HubPersistenceTest, StableHubScoresOne) {
  // @hub is cited in every hour; @flash only in hour 2.
  std::vector<Tweet> tweets;
  std::int64_t id = 1;
  for (int hour = 0; hour < 4; ++hour) {
    const std::int64_t base = hour * 3600;
    tweets.push_back(tw(id, "u" + std::to_string(id), "@hub again", base + 10));
    ++id;
    tweets.push_back(tw(id, "v" + std::to_string(id), "@hub more", base + 20));
    ++id;
  }
  tweets.push_back(tw(id++, "w", "@flash once", 3600 + 30));
  std::sort(tweets.begin(), tweets.end(),
            [](const Tweet& a, const Tweet& b) { return a.timestamp < b.timestamp; });

  const auto hubs = hub_persistence(tweets, {.window_seconds = 3600}, 1);
  ASSERT_GE(hubs.size(), 1u);
  EXPECT_EQ(hubs[0].name, "hub");
  EXPECT_DOUBLE_EQ(hubs[0].presence, 1.0);
}

TEST(HubPersistenceTest, BurstyActorScoresLow) {
  std::vector<Tweet> tweets;
  std::int64_t id = 1;
  for (int hour = 0; hour < 5; ++hour) {
    const std::int64_t base = hour * 3600;
    tweets.push_back(tw(id, "a" + std::to_string(id), "@hub", base + 1));
    ++id;
  }
  // flash gets 2 citations but only within one hour.
  tweets.push_back(tw(id++, "x", "@flash", 2 * 3600 + 100));
  tweets.push_back(tw(id++, "y", "@flash", 2 * 3600 + 200));
  std::sort(tweets.begin(), tweets.end(),
            [](const Tweet& a, const Tweet& b) { return a.timestamp < b.timestamp; });

  const auto hubs = hub_persistence(tweets, {.window_seconds = 3600}, 2);
  ASSERT_EQ(hubs.size(), 2u);
  // Global ranking: hub (5 cites) then flash (2).
  EXPECT_EQ(hubs[0].name, "hub");
  EXPECT_EQ(hubs[1].name, "flash");
  EXPECT_DOUBLE_EQ(hubs[0].presence, 1.0);
  EXPECT_LT(hubs[1].presence, 0.5);
}

TEST(HubPersistenceTest, SelfMentionsExcluded) {
  std::vector<Tweet> tweets{tw(1, "echo", "@echo me", 0),
                            tw(2, "a", "@hub", 10)};
  const auto hubs = hub_persistence(tweets, {.window_seconds = 100}, 2);
  for (const auto& h : hubs) EXPECT_NE(h.name, "echo");
}

TEST(HubPersistenceTest, InvalidTopNThrows) {
  std::vector<Tweet> tweets{tw(1, "a", "@b", 0)};
  EXPECT_THROW(hub_persistence(tweets, {}, 0), graphct::Error);
}

TEST(TemporalIntegrationTest, CorpusHubsPersistAcrossWindows) {
  // On a generated corpus, the Zipf-heavy named hubs should persist across
  // most windows — the "stable broadcast hub" phenomenon.
  auto preset = dataset_preset("tiny");
  preset.corpus.num_tweets = 2000;
  const auto tweets = generate_corpus(preset.corpus);
  const auto span = tweets.back().timestamp - tweets.front().timestamp;
  const auto hubs =
      hub_persistence(tweets, {.window_seconds = span / 8 + 1}, 3);
  ASSERT_GE(hubs.size(), 1u);
  EXPECT_GE(hubs[0].presence, 0.75);
}

}  // namespace
}  // namespace graphct::twitter
