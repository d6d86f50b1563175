// Graph persistence.
//
// Text: whitespace-separated edge list (one directed edge "u v" per line,
// '#' comments, sparse ids densified by numeric order). Parsing is a
// chunked, multi-threaded std::from_chars scanner; malformed lines
// (negative ids, non-numeric tokens, trailing garbage) raise IoError with
// the 1-based line number.
//
// Binary: format v2 snapshot — a 40-byte header (magic, version, vertex /
// directed-edge / symmetric-edge counts) followed by the raw little-endian
// CSR arrays (offsets, neighbors, directions, out/in degrees), each
// starting on an 8-byte boundary. read_binary_file memory-maps a v2 file
// and serves the arrays zero-copy, so loading is O(1) in the graph size;
// header counts are bounds-checked against the file size before anything
// is touched. Legacy v1 snapshots (per-edge u,v pairs) remain readable
// through the rebuild path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/io_error.hpp"  // IoError lives in core; re-exported here
#include "graph/graph.hpp"

namespace frontier {

/// Writes the directed edge list of g ("u v" per line).
void write_edge_list(const Graph& g, std::ostream& os);
void write_edge_list_file(const Graph& g, const std::string& path);

/// Reads a directed edge list. Vertex ids may be arbitrary (sparse)
/// non-negative integers; they are densified in numeric order. `threads`
/// resolves like resolve_threads (0 = hardware concurrency); the result is
/// identical for every thread count. Throws IoError (with line number) on
/// negative ids, non-numeric tokens, or trailing garbage.
[[nodiscard]] Graph read_edge_list(std::istream& is, std::size_t threads = 0);
[[nodiscard]] Graph read_edge_list_file(const std::string& path,
                                        std::size_t threads = 0);

/// Writes the format-v2 binary snapshot (header + raw CSR arrays).
void write_binary(const Graph& g, std::ostream& os);
void write_binary_file(const Graph& g, const std::string& path);

/// Legacy format-v1 writer (per-edge u,v pairs). Kept so migration tooling
/// and tests can produce v1 inputs; new snapshots should be v2.
void write_binary_v1(const Graph& g, std::ostream& os);

/// Reads a v1 or v2 snapshot from a stream (always into owned arrays). A
/// v2 payload is validated in O(n + s): offsets, neighbour ids, strictly
/// ascending self-loop-free rows, direction flags and degree sums; any
/// violation throws IoError.
[[nodiscard]] Graph read_binary(std::istream& is);

/// Reads a snapshot file. v2 files are memory-mapped zero-copy (O(1) load;
/// Graph::is_memory_mapped() reports true); v1 files go through the legacy
/// rebuild path. Header counts are validated against the file size first;
/// a mapped file's array contents are trusted (a scan would defeat the
/// O(1) load), so untrusted snapshots should pass through read_binary once.
[[nodiscard]] Graph read_binary_file(const std::string& path);

}  // namespace frontier
