#include "twitter/tweet_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct::twitter {

std::string to_tsv(const std::vector<Tweet>& tweets) {
  std::ostringstream os;
  os << "# GraphCT tweet stream: id\ttimestamp\tauthor\ttext\n";
  for (const auto& t : tweets) {
    std::string text = t.text;
    for (char& c : text) {
      if (c == '\t' || c == '\n' || c == '\r') c = ' ';
    }
    os << t.id << '\t' << t.timestamp << '\t' << t.author << '\t' << text
       << '\n';
  }
  return os.str();
}

namespace {

// Chunks are at least this large, so small streams parse as one chunk.
constexpr std::size_t kMinChunkBytes = std::size_t{64} << 10;
// Chunks per thread: slack for the dynamic schedule to even out.
constexpr std::size_t kChunksPerThread = 4;

/// Parse a decimal int64 field into `out`. Returns nullptr, or the message
/// tail naming the defect.
const char* parse_int_field(std::string_view field, const char* empty,
                            const char* malformed, std::int64_t& out) {
  if (field.empty()) return empty;
  const bool neg = field[0] == '-';
  if (neg) field.remove_prefix(1);
  if (field.empty()) return malformed;
  // Accumulate the magnitude unsigned, bounded so it fits an int64 once
  // negated (-2^63 is the one value whose magnitude exceeds INT64_MAX).
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (neg ? 1 : 0);
  std::uint64_t v = 0;
  for (const char c : field) {
    if (c < '0' || c > '9') return malformed;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (limit - d) / 10) return malformed;
    v = v * 10 + d;
  }
  out = static_cast<std::int64_t>(neg ? 0 - v : v);
  return nullptr;
}

/// Parse one record line into `t`. Returns nullptr, or the message tail
/// naming the line's first defect, in the order the fields are checked.
const char* parse_record(std::string_view line, Tweet& t) {
  // Split into exactly 4 fields on the first three tabs; any further tabs
  // belong to the text.
  std::string_view fields[4];
  std::size_t start = 0;
  for (int f = 0; f < 3; ++f) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      return ": expected 4 tab-separated fields";
    }
    fields[f] = line.substr(start, tab - start);
    start = tab + 1;
  }
  fields[3] = line.substr(start);
  if (const char* e =
          parse_int_field(fields[0], ": empty id", ": malformed id", t.id)) {
    return e;
  }
  if (const char* e = parse_int_field(fields[1], ": empty timestamp",
                                      ": malformed timestamp", t.timestamp)) {
    return e;
  }
  if (fields[2].empty()) return ": empty author";
  t.author.assign(fields[2]);
  t.text.assign(fields[3]);
  return nullptr;
}

/// Calls f(line) for each line starting in text[begin, end), with a
/// trailing '\r' removed, until f returns false.
template <typename F>
void for_each_line(std::string_view text, std::size_t begin, std::size_t end,
                   F&& f) {
  std::size_t pos = begin;
  while (pos < end) {
    const void* nl = std::memchr(text.data() + pos, '\n', end - pos);
    const std::size_t eol =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      text.data())
           : end;
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!f(line)) return;
  }
}

bool is_record(std::string_view line) {
  return !line.empty() && line.front() != '#';
}

/// A newline-aligned slice of the stream and what parsing it found.
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::int64_t lines = 0;    ///< lines starting in [begin, end)
  std::int64_t records = 0;  ///< of those, neither blank nor comments
  std::int64_t first_line = 0;    ///< lines in earlier chunks
  std::int64_t first_record = 0;  ///< records in earlier chunks
  std::int64_t bad_line = 0;      ///< chunk-local index of the defect line
  const char* defect = nullptr;   ///< first defect's message tail
  std::exception_ptr error;       ///< anything else thrown in the chunk
};

/// Split `text` into newline-aligned chunks: one per kMinChunkBytes, at
/// most kChunksPerThread per thread, and a single chunk at one thread.
std::vector<Chunk> split_chunks(std::string_view text) {
  const auto threads = static_cast<std::size_t>(std::max(1, num_threads()));
  const std::size_t count =
      threads == 1 ? 1
                   : std::clamp<std::size_t>(text.size() / kMinChunkBytes, 1,
                                             kChunksPerThread * threads);
  std::vector<Chunk> chunks(count);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < count; ++c) {
    std::size_t end = text.size();
    if (c + 1 < count) {
      // The first line start at or after the even split point.
      end = std::max(begin, (c + 1) * (text.size() / count));
      if (end > 0) {
        const void* nl =
            std::memchr(text.data() + end - 1, '\n', text.size() - end + 1);
        end = nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                            text.data()) +
                       1
                 : text.size();
      }
    }
    chunks[c].begin = begin;
    chunks[c].end = end;
    begin = end;
  }
  return chunks;
}

struct FileBytes {
  std::unique_ptr<char[]> data;
  std::size_t size = 0;
};

/// Everything `fd` holds. The buffer is sized by fstat, so a regular file
/// lands in one read(); the loop only continues after a short read, and
/// grows the buffer for streams whose size fstat does not know.
FileBytes read_all(int fd, const std::string& path) {
  struct stat st {};
  GCT_CHECK(::fstat(fd, &st) == 0, "cannot stat tweet stream file: " + path);
  std::size_t cap = std::max<std::size_t>(
      static_cast<std::size_t>(std::max<off_t>(st.st_size, 0)) + 1,
      kMinChunkBytes);
  FileBytes out{std::make_unique_for_overwrite<char[]>(cap), 0};
  for (;;) {
    if (out.size == cap) {
      auto bigger = std::make_unique_for_overwrite<char[]>(2 * cap);
      std::memcpy(bigger.get(), out.data.get(), out.size);
      out.data = std::move(bigger);
      cap *= 2;
    }
    const ssize_t n = ::read(fd, out.data.get() + out.size, cap - out.size);
    if (n == 0) return out;
    if (n < 0) {
      const int err = errno;
      GCT_CHECK(err == EINTR, "cannot read tweet stream file: " + path +
                                  ": " + std::strerror(err));
      continue;
    }
    out.size += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::vector<Tweet> parse_tsv(std::string_view text) {
  std::vector<Chunk> chunks = split_chunks(text);
  const auto nchunks = static_cast<std::int64_t>(chunks.size());

  // Pass 1: count lines and records per chunk, so the result is sized once
  // and every line number is a prefix sum.
#pragma omp parallel for schedule(dynamic, 1) if (nchunks > 1)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    Chunk& ch = chunks[static_cast<std::size_t>(c)];
    for_each_line(text, ch.begin, ch.end, [&](std::string_view line) {
      ++ch.lines;
      ch.records += is_record(line) ? 1 : 0;
      return true;
    });
  }
  std::int64_t lines = 0;
  std::int64_t records = 0;
  for (Chunk& ch : chunks) {
    ch.first_line = lines;
    ch.first_record = records;
    lines += ch.lines;
    records += ch.records;
  }

  // Pass 2: parse each chunk's records into its slice of the result. A
  // chunk stops at its first defect; exceptions stay inside the region.
  std::vector<Tweet> out(static_cast<std::size_t>(records));
#pragma omp parallel for schedule(dynamic, 1) if (nchunks > 1)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    Chunk& ch = chunks[static_cast<std::size_t>(c)];
    try {
      auto next = out.begin() + ch.first_record;
      std::int64_t line_index = 0;
      for_each_line(text, ch.begin, ch.end, [&](std::string_view line) {
        if (is_record(line)) {
          ch.defect = parse_record(line, *next++);
          if (ch.defect) {
            ch.bad_line = line_index;
            return false;
          }
        }
        ++line_index;
        return true;
      });
    } catch (...) {
      ch.error = std::current_exception();
    }
  }

  // Chunks are in stream order, so the first one with a defect holds the
  // lowest-numbered malformed line.
  for (const Chunk& ch : chunks) {
    if (ch.error) std::rethrow_exception(ch.error);
    GCT_CHECK(ch.defect == nullptr,
              std::string("tweet TSV line ") +
                  std::to_string(ch.first_line + ch.bad_line + 1) +
                  ch.defect);
  }
  return out;
}

void write_tweets(const std::vector<Tweet>& tweets, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  GCT_CHECK(f.good(), "cannot open file for writing: " + path);
  f << to_tsv(tweets);
  GCT_CHECK(f.good(), "write failed: " + path);
}

std::vector<Tweet> read_tweets(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  GCT_CHECK(fd >= 0, "cannot open tweet stream file: " + path);
  FileBytes bytes;
  try {
    bytes = read_all(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return parse_tsv(std::string_view(bytes.data.get(), bytes.size));
}

}  // namespace graphct::twitter
