#include "twitter/tweet_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "util/error.hpp"

namespace graphct::twitter {
namespace {

TEST(TweetIoTest, RoundTripBasic) {
  std::vector<Tweet> tweets{
      {1, "alice", "hello @bob #topic", 1000},
      {2, "bob", "RT @alice hello", 1010},
  };
  const auto parsed = parse_tsv(to_tsv(tweets));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 1);
  EXPECT_EQ(parsed[0].author, "alice");
  EXPECT_EQ(parsed[0].text, "hello @bob #topic");
  EXPECT_EQ(parsed[1].timestamp, 1010);
}

TEST(TweetIoTest, TabsAndNewlinesInTextSanitized) {
  std::vector<Tweet> tweets{{1, "a", "line1\nline2\ttabbed", 5}};
  const auto parsed = parse_tsv(to_tsv(tweets));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].text, "line1 line2 tabbed");
}

TEST(TweetIoTest, EmptyTextAllowed) {
  std::vector<Tweet> tweets{{7, "quiet", "", 9}};
  const auto parsed = parse_tsv(to_tsv(tweets));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].text.empty());
}

TEST(TweetIoTest, CommentsAndBlanksSkipped) {
  const auto parsed = parse_tsv("# header\n\n1\t2\tme\thi\n");
  ASSERT_EQ(parsed.size(), 1u);
}

TEST(TweetIoTest, MalformedRowsThrow) {
  EXPECT_THROW(parse_tsv("1\t2\tauthor\n"), graphct::Error);     // 3 fields
  EXPECT_THROW(parse_tsv("x\t2\ta\tt\n"), graphct::Error);       // bad id
  EXPECT_THROW(parse_tsv("1\tzz\ta\tt\n"), graphct::Error);      // bad ts
  EXPECT_THROW(parse_tsv("1\t2\t\ttext\n"), graphct::Error);     // no author
  EXPECT_THROW(parse_tsv("9223372036854775808\t2\ta\tt\n"),        // > int64
               graphct::Error);
  EXPECT_THROW(parse_tsv("1\t-9223372036854775809\ta\tt\n"),       // < int64
               graphct::Error);
}

TEST(TweetIoTest, Int64ExtremesRoundTrip) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  const auto parsed =
      parse_tsv(to_tsv({{lo, "a", "x", hi}, {hi, "b", "y", lo}}));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, lo);
  EXPECT_EQ(parsed[0].timestamp, hi);
  EXPECT_EQ(parsed[1].id, hi);
  EXPECT_EQ(parsed[1].timestamp, lo);
}

TEST(TweetIoTest, FileRoundTripOfGeneratedCorpus) {
  const auto preset = dataset_preset("tiny");
  const auto tweets = generate_corpus(preset.corpus);
  const std::string path =
      (std::filesystem::temp_directory_path() / "gct_tweets.tsv").string();
  write_tweets(tweets, path);
  const auto back = read_tweets(path);
  ASSERT_EQ(back.size(), tweets.size());
  for (std::size_t i = 0; i < tweets.size(); ++i) {
    ASSERT_EQ(back[i].id, tweets[i].id);
    ASSERT_EQ(back[i].author, tweets[i].author);
    ASSERT_EQ(back[i].text, tweets[i].text);
    ASSERT_EQ(back[i].timestamp, tweets[i].timestamp);
  }
  std::remove(path.c_str());
}

TEST(TweetIoTest, MissingFileThrows) {
  EXPECT_THROW(read_tweets("/nonexistent/tweets.tsv"), graphct::Error);
}

TEST(TweetIoTest, WindowsLineEndings) {
  const auto parsed = parse_tsv("1\t2\ta\thello\r\n3\t4\tb\tworld\r\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].text, "world");
}

}  // namespace
}  // namespace graphct::twitter
