// Checkpoint corruption corpus: a valid v2 checkpoint is mutated every
// way a real crash or disk fault can mutate it — truncated at every
// length, and bit-flipped at every byte — and every mutant must be
// rejected with a structured IoError. Never a crash, and never a silent
// resume from corrupt state: the trailer (length + CRC-64 + magic) is
// validated before a single byte of cursor or sink state is restored.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/checksum.hpp"
#include "core/io_error.hpp"
#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(77);
  return barabasi_albert(80, 3, rng);
}

SinkSet make_sinks(const Graph& g) {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  return sinks;
}

StreamEngine make_engine(const Graph& g, std::uint64_t seed) {
  const FrontierCursor::Config cfg{.dimension = 3, .steps = 1000};
  return StreamEngine(std::make_unique<FrontierCursor>(g, cfg, Rng(seed)),
                      make_sinks(g));
}

// A pristine mid-crawl checkpoint blob, the corpus seed.
std::string pristine_blob(const Graph& g) {
  StreamEngine engine = make_engine(g, 3);
  EXPECT_EQ(engine.pump(400), 400u);
  std::ostringstream os(std::ios::binary);
  engine.save_checkpoint(os);
  return os.str();
}

// Loading `blob` into a fresh engine must throw IoError and leave the
// engine untouched (still at zero events, still able to run).
void expect_rejected(const Graph& g, const std::string& blob,
                     const std::string& label) {
  StreamEngine victim = make_engine(g, 999);
  std::istringstream is(blob, std::ios::binary);
  try {
    victim.load_checkpoint(is);
    ADD_FAILURE() << label << ": corrupt checkpoint loaded silently";
  } catch (const IoError&) {
    // Expected: structured rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": wrong exception type: " << e.what();
  }
  EXPECT_EQ(victim.events(), 0u) << label << ": failed load mutated state";
}

TEST(CheckpointCorruption, PristineBlobLoadsAndEveryTruncationIsRejected) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  ASSERT_GT(blob.size(), 24u);  // bigger than the trailer alone

  // Control: the unmutated blob restores the paused crawl.
  StreamEngine resumed = make_engine(g, 999);
  std::istringstream is(blob, std::ios::binary);
  resumed.load_checkpoint(is);
  EXPECT_EQ(resumed.events(), 400u);

  // A torn write can stop at any byte; every prefix must be rejected.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    expect_rejected(g, blob.substr(0, len),
                    "truncated to " + std::to_string(len));
  }
}

TEST(CheckpointCorruption, EveryByteFlipIsRejected) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  // One flipped bit per byte position covers the magic, version, cursor
  // state, sink blobs, and all three trailer fields (length, CRC, magic).
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string mutant = blob;
    mutant[i] = static_cast<char>(
        static_cast<unsigned char>(mutant[i]) ^ (1u << (i % 8)));
    expect_rejected(g, mutant, "bit flip at byte " + std::to_string(i));
  }
}

TEST(CheckpointCorruption, GarbageAndAppendedTailAreRejected) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  expect_rejected(g, std::string(blob.size(), '\x5a'), "uniform garbage");
  expect_rejected(g, blob + std::string(16, '\0'), "appended tail");
  // A file that is nothing but a valid-looking trailer magic has no body.
  expect_rejected(g, std::string("FRONTTR1FRONTTR1FRONTTR1"),
                  "trailer with no body");
}

// A length field an attacker controls, with a valid trailer recomputed
// over the edited body: the CRC cannot catch it, so the parser must
// refuse any length whose payload exceeds what is left of the body
// before it allocates, and say which field is corrupt.
std::uint64_t get_u64(const std::string& blob, std::size_t at) {
  std::uint64_t x = 0;
  std::memcpy(&x, blob.data() + at, sizeof x);
  return x;
}

std::string with_length(const std::string& blob, std::size_t at,
                        std::size_t element_size) {
  constexpr std::size_t kTrailer = 24;
  const std::size_t body_len = blob.size() - kTrailer;
  const std::uint64_t left = body_len - (at + sizeof(std::uint64_t));
  const std::uint64_t n = left / element_size + 1;
  std::string body = blob.substr(0, body_len);
  std::memcpy(body.data() + at, &n, sizeof n);
  const std::uint64_t crc = crc64(body.data(), body.size());
  std::string out = body;
  out.append(reinterpret_cast<const char*>(&body_len), sizeof(std::uint64_t));
  out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  out.append(blob, blob.size() - 8, 8);  // trailer magic
  return out;
}

void expect_length_rejected(const Graph& g, const std::string& blob,
                            const std::string& field) {
  StreamEngine victim = make_engine(g, 999);
  std::istringstream is(blob, std::ios::binary);
  try {
    victim.load_checkpoint(is);
    ADD_FAILURE() << field << ": oversized length loaded silently";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt length field"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
  EXPECT_EQ(victim.events(), 0u) << field << ": failed load mutated state";
}

TEST(CheckpointCorruption, LengthBeyondTheBodyIsRejectedBeforeAllocating) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);

  // Body header (magic, version, cursor kind, |V|, vol) is 32 bytes; the
  // FS state then holds dimension, steps, jump cost, start mode,
  // selection and step (34 bytes) before the frontier's length.
  constexpr std::size_t kFrontierLength = 32 + 34;
  ASSERT_EQ(get_u64(blob, kFrontierLength), 3u);  // dimension m = 3
  expect_length_rejected(g, with_length(blob, kFrontierLength,
                                        sizeof(VertexId)),
                         "FrontierCursor frontier");

  // The degree-distribution sink's state follows its name: a kind byte,
  // then the bucket vector's length.
  const std::string name = "degree_distribution";
  const std::size_t at = blob.find(name);
  ASSERT_NE(at, std::string::npos);
  const std::size_t buckets_length = at + name.size() + 1;
  ASSERT_GT(get_u64(blob, buckets_length), 0u);
  expect_length_rejected(g, with_length(blob, buckets_length, sizeof(double)),
                         "degree_distribution buckets");
}

TEST(CheckpointCorruption, TornFileOnDiskIsRejectedByLoadFile) {
  const Graph g = test_graph();
  const std::string blob = pristine_blob(g);
  const std::string path = ::testing::TempDir() + "torn_ckpt.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(),
              static_cast<std::streamsize>(blob.size() - 10));
  }
  StreamEngine victim = make_engine(g, 999);
  EXPECT_THROW(victim.load_checkpoint_file(path), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace frontier
