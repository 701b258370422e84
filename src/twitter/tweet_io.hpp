#pragma once

/// \file tweet_io.hpp
/// Tweet-stream files: tab-separated `id <TAB> timestamp <TAB> author <TAB>
/// text` records, one per line, `#` comments. This is the interchange
/// format between the corpus generator and the analysis pipeline — and the
/// adapter point for real harvested data: convert any archive to this TSV
/// and every example/bench consumes it unchanged.

#include <string>
#include <string_view>
#include <vector>

#include "twitter/tweet.hpp"

namespace graphct::twitter {

/// Serialize tweets as TSV. Tabs/newlines inside text are replaced with
/// spaces (tweet text is 140 chars of message body; control characters
/// carry no analytic meaning).
std::string to_tsv(const std::vector<Tweet>& tweets);

/// Parse a TSV tweet stream. Lines end in "\n" or "\r\n" (the last may
/// lack it); blank lines and lines starting with '#' are skipped. Streams of
/// 128 KiB and more parse as newline-aligned chunks in parallel, into a
/// result sized once from a counting pass; the chunk count follows the
/// stream size and num_threads(), and one thread parses serially. Throws
/// graphct::Error naming the lowest-numbered malformed line (missing
/// fields, empty author, or an id/timestamp that is empty, non-numeric, or
/// outside int64), whichever chunk holds it.
std::vector<Tweet> parse_tsv(std::string_view text);

/// Write a tweet stream to a file.
void write_tweets(const std::vector<Tweet>& tweets, const std::string& path);

/// Read a tweet stream from a file: one read() into a buffer sized by
/// fstat, then parse_tsv(). The buffer and the returned tweets are the
/// call's whole footprint.
std::vector<Tweet> read_tweets(const std::string& path);

}  // namespace graphct::twitter
