#pragma once

/// \file tweet_parser.hpp
/// Extraction of @mentions, #hashtags, and retweet markers from tweet text
/// (the Table I symbols).
///
/// SymbolScanner is the one scanner behind both parse_tweet() and
/// MentionGraphBuilder::add(). It yields views into the text and never
/// allocates; callers normalize (lowercase) names themselves. Character
/// classes are the C locale's: a user name is [A-Za-z0-9_], and only
/// A-Z have lowercase forms.

#include <string>
#include <string_view>

#include "twitter/tweet.hpp"

namespace graphct::twitter {

/// True for characters Twitter allows in a user name (letters, digits, '_'):
/// C-locale isalnum(c) || c == '_', spelled out so scanning neither depends
/// on the global locale nor pays a library call per byte.
constexpr bool is_username_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// C-locale tolower: maps A-Z to a-z and leaves every other byte alone.
constexpr char to_lower_ascii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Normalize a user name: lowercase (Twitter handles are case-insensitive).
std::string normalize_username(std::string_view name);

/// One @mention or #hashtag: its sigil and the raw (not yet lowercased)
/// name, a view into the scanned text.
struct Symbol {
  char sigil = '@';
  std::string_view name;
};

/// Walks a tweet text's symbols in text order. A symbol glued to the end of
/// a word ("mail@example") is not a symbol, and a bare '@' or '#' (no name
/// characters after it) is skipped. Duplicates are reported every time.
class SymbolScanner {
 public:
  explicit SymbolScanner(std::string_view text) : text_(text) {}
  /// A scanner borrows the text; binding a temporary would dangle.
  explicit SymbolScanner(std::string&&) = delete;

  /// Advance to the next symbol; false once the text is exhausted.
  bool next(Symbol& out);

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The raw name of the retweeted user when the text is a retweet — optional
/// leading whitespace, then "RT @user" — and empty otherwise.
std::string_view retweet_source(std::string_view text);

/// Parse one tweet: find every @mention and #hashtag, detect the `RT @user`
/// retweet prefix, normalize names, and drop duplicate mentions while
/// preserving first-occurrence order. Mentions of zero length (a bare '@')
/// are ignored.
ParsedTweet parse_tweet(const Tweet& tweet);

}  // namespace graphct::twitter
