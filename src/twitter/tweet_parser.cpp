#include "twitter/tweet_parser.hpp"

#include <algorithm>
#include <unordered_set>

namespace graphct::twitter {

namespace {

// C-locale isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool space_char(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

std::string normalize_username(std::string_view name) {
  std::string out(name);
  for (char& c : out) c = to_lower_ascii(c);
  return out;
}

bool SymbolScanner::next(Symbol& out) {
  const std::size_t n = text_.size();
  for (std::size_t i = pos_; i < n; ++i) {
    const char c = text_[i];
    if (c != '@' && c != '#') continue;
    if (i > 0 && is_username_char(text_[i - 1])) continue;  // glued to a word
    std::size_t q = i + 1;
    while (q < n && is_username_char(text_[q])) ++q;
    if (q == i + 1) continue;  // bare '@' or '#'
    out.sigil = c;
    out.name = text_.substr(i + 1, q - i - 1);
    pos_ = q;
    return true;
  }
  pos_ = n;
  return false;
}

std::string_view retweet_source(std::string_view text) {
  std::size_t start = 0;
  while (start < text.size() && space_char(text[start])) ++start;
  if (text.substr(start, 4) != "RT @") return {};
  const std::size_t b = start + 4;
  std::size_t q = b;
  while (q < text.size() && is_username_char(text[q])) ++q;
  return text.substr(b, q - b);
}

ParsedTweet parse_tweet(const Tweet& tweet) {
  ParsedTweet p;
  p.id = tweet.id;
  p.author = normalize_username(tweet.author);
  p.timestamp = tweet.timestamp;

  const std::string_view rt = retweet_source(tweet.text);
  if (!rt.empty()) {
    p.is_retweet = true;
    p.retweet_of = normalize_username(rt);
  }

  std::unordered_set<std::string> seen_mentions;
  SymbolScanner scan(tweet.text);
  for (Symbol s; scan.next(s);) {
    std::string token = normalize_username(s.name);
    if (s.sigil == '@') {
      if (seen_mentions.insert(token).second) {
        p.mentions.push_back(std::move(token));
      }
    } else if (std::find(p.hashtags.begin(), p.hashtags.end(), token) ==
               p.hashtags.end()) {
      p.hashtags.push_back(std::move(token));
    }
  }
  return p;
}

}  // namespace graphct::twitter
