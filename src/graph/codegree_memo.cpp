#include "graph/codegree_memo.hpp"

#include <cstdlib>
#include <new>
#include <utility>

#include "graph/storage.hpp"  // FRONTIER_HAS_MMAP

#if FRONTIER_HAS_MMAP
#include <sys/mman.h>
#endif

namespace frontier {

CodegreeMemo::CodegreeMemo(std::size_t slots) {
  if (slots == 0) return;
#if FRONTIER_HAS_MMAP
  // Anonymous pages read as zero and are backed only once written.
  void* addr = ::mmap(nullptr, slots, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (addr == MAP_FAILED) throw std::bad_alloc();
  bytes_ = static_cast<std::uint8_t*>(addr);
#else
  bytes_ = static_cast<std::uint8_t*>(std::calloc(slots, 1));
  if (bytes_ == nullptr) throw std::bad_alloc();
#endif
  size_ = slots;
}

CodegreeMemo::CodegreeMemo(CodegreeMemo&& other) noexcept
    : bytes_(std::exchange(other.bytes_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

CodegreeMemo& CodegreeMemo::operator=(CodegreeMemo&& other) noexcept {
  if (this != &other) {
    release();
    bytes_ = std::exchange(other.bytes_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

CodegreeMemo::~CodegreeMemo() { release(); }

void CodegreeMemo::release() noexcept {
  if (bytes_ == nullptr) return;
#if FRONTIER_HAS_MMAP
  ::munmap(bytes_, size_);
#else
  std::free(bytes_);
#endif
  bytes_ = nullptr;
  size_ = 0;
}

}  // namespace frontier
