// Tiny binary (de)serialization helpers shared by the streaming
// checkpoints (stream/checkpoint.*, cursor and sink save/load_state).
//
// Same conventions as the graph snapshot writer in graph/io.cpp: raw
// little-endian PODs, length-prefixed vectors/strings, IoError on short
// reads. Kept header-only so cursors and sinks can serialize themselves
// without a dependency cycle.
#pragma once

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/io.hpp"

namespace frontier::streamio {

/// Sanity cap on length-prefixed containers. Genuine checkpoint vectors
/// are bounded by walker counts and degree buckets (≪ 2^31); anything
/// larger is a corrupt length field and must not turn into a giant
/// allocation attempt.
inline constexpr std::uint64_t kMaxElements = 1ULL << 31;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  if (!os) throw IoError("stream checkpoint: write failure");
}

template <typename T>
[[nodiscard]] T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw IoError("stream checkpoint: truncated stream");
  return value;
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(os, v.size());
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    if (!os) throw IoError("stream checkpoint: write failure");
  }
}

/// Bytes between the read position and the end of a seekable stream,
/// such as the in-memory body StreamCheckpoint::load parses; the largest
/// count when the stream cannot seek.
[[nodiscard]] inline std::uint64_t bytes_left(std::istream& is) {
  constexpr std::uint64_t kUnknown = std::numeric_limits<std::uint64_t>::max();
  std::streambuf* buf = is.rdbuf();
  const auto here = buf->pubseekoff(0, std::ios_base::cur, std::ios_base::in);
  if (here == std::streampos(-1)) return kUnknown;
  const auto end = buf->pubseekoff(0, std::ios_base::end, std::ios_base::in);
  buf->pubseekpos(here, std::ios_base::in);
  if (end == std::streampos(-1)) return kUnknown;
  return static_cast<std::uint64_t>(end - here);
}

/// Reads the length prefix of a container of `size`-byte elements and
/// rejects it, before anything is allocated, when its payload would not
/// fit in what is left of the stream. `what` names the field in the error.
[[nodiscard]] inline std::uint64_t read_length(std::istream& is,
                                               std::size_t size,
                                               const char* what) {
  const auto n = read_pod<std::uint64_t>(is);
  if (n > kMaxElements || n * size > bytes_left(is)) {
    throw IoError(std::string("stream checkpoint: corrupt length field: ") +
                  what + " (" + std::to_string(n) + " elements)");
  }
  return n;
}

template <typename T>
[[nodiscard]] std::vector<T> read_vector(std::istream& is, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = read_length(is, sizeof(T), what);
  std::vector<T> v(n);
  if (n != 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    if (!is) throw IoError("stream checkpoint: truncated stream");
  }
  return v;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
  if (!os) throw IoError("stream checkpoint: write failure");
}

[[nodiscard]] inline std::string read_string(std::istream& is,
                                             const char* what) {
  const std::uint64_t n = read_length(is, 1, what);
  std::string s(n, '\0');
  if (n != 0) {
    is.read(s.data(), static_cast<std::streamsize>(n));
    if (!is) throw IoError("stream checkpoint: truncated stream");
  }
  return s;
}

/// Reads a POD written by write_pod and throws IoError unless it equals
/// `expected` — used by cursors to verify that a checkpoint was taken with
/// the same sampler configuration it is being restored into.
template <typename T>
void expect_pod(std::istream& is, const T& expected, const char* what) {
  const T got = read_pod<T>(is);
  if (!(got == expected)) {
    throw IoError(std::string("stream checkpoint: configuration mismatch: ") +
                  what);
  }
}

}  // namespace frontier::streamio
