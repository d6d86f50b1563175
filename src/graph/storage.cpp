#include "graph/storage.hpp"

#include <limits>
#include <utility>

#include "graph/io.hpp"

#if FRONTIER_HAS_MMAP
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace frontier {

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

MmapFile::~MmapFile() { reset(); }

void MmapFile::reset() noexcept {
#if FRONTIER_HAS_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

MmapFile MmapFile::open(const std::string& path) {
#if FRONTIER_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw IoError("mmap: cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("mmap: fstat failed for " + path + ": " +
                  std::strerror(err));
  }
  MmapFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  file.mapped_ = true;
  if (file.size_ > 0) {
    void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw IoError("mmap failed for " + path + ": " + std::strerror(err));
    }
    file.data_ = static_cast<const std::byte*>(addr);
  }
  // The mapping keeps the pages; the descriptor is no longer needed.
  ::close(fd);
  return file;
#else
  throw IoError("memory-mapped loading is unavailable on this platform: " +
                path);
#endif
}

const CodegreeMemo& GraphStorage::codegree_memo() const {
  std::call_once(memo_once_,
                 [this] { memo_ = CodegreeMemo(views_.neighbors.size()); });
  return memo_;
}

std::span<const Hop> GraphStorage::hop_table() const {
  std::call_once(hop_once_, [this] {
    const std::span<const EdgeIndex> offsets = views_.offsets;
    const std::span<const VertexId> neighbors = views_.neighbors;
    if (mapped_ ||
        offsets.size_bytes() + neighbors.size_bytes() <=
            kHopTableMinCsrBytes ||
        neighbors.size() > std::numeric_limits<std::uint32_t>::max()) {
      return;
    }
    auto hops = std::make_unique_for_overwrite<Hop[]>(neighbors.size());
    for (std::size_t s = 0; s < neighbors.size(); ++s) {
      const VertexId w = neighbors[s];
      hops[s] = {static_cast<std::uint32_t>(offsets[w]),
                 static_cast<std::uint32_t>(offsets[w + 1] - offsets[w])};
    }
    hop_view_ = {hops.get(), neighbors.size()};
    hops_ = std::move(hops);
  });
  return hop_view_;
}

std::shared_ptr<const GraphStorage> GraphStorage::from_arrays(Arrays arrays) {
  auto storage = std::shared_ptr<GraphStorage>(new GraphStorage());
  storage->arrays_ = std::move(arrays);
  storage->mapped_ = false;
  const Arrays& a = storage->arrays_;
  storage->views_ = Views{.offsets = a.offsets,
                          .neighbors = a.neighbors,
                          .directions = a.directions,
                          .out_degree = a.out_degree,
                          .in_degree = a.in_degree,
                          .num_directed_edges = a.num_directed_edges};
  return storage;
}

std::shared_ptr<const GraphStorage> GraphStorage::from_mapped(
    MmapFile file, const Views& views) {
  auto storage = std::shared_ptr<GraphStorage>(new GraphStorage());
  storage->file_ = std::move(file);
  storage->views_ = views;
  storage->mapped_ = true;
  return storage;
}

}  // namespace frontier
