// Page-granular backing storage for the memory subsystem (RAMR_MEM):
// anonymous mmap regions advised toward transparent huge pages, optionally
// bound to a NUMA node, with graceful fallback to aligned operator new.
//
// The paper's many-core results (Sec. III-A batched reads, Sec. IV-D
// container study) are stories about coherence traffic and TLB/allocator
// pressure; Ring slot arrays and arena chunks are exactly the large,
// long-lived, single-owner blocks that huge pages and node-local placement
// pay off for. Every capability is probed, never assumed:
//
//   * no mmap (or a failing one)      -> aligned heap allocation;
//   * no MADV_HUGEPAGE / THP disabled -> plain small pages;
//   * no mbind (no NUMA, seccomp, …)  -> first-touch placement only.
//
// Absence of any of these is NEVER an error — the block is still usable,
// just less ideally placed. RuntimeConfig::hugepages (RAMR_HUGEPAGES=off)
// withholds the huge-page advice: the MemoryLayer then never asks for it.
#pragma once

#include <cstddef>

namespace ramr::mem {

// Host capabilities, probed once per process (cheap, unprivileged).
struct PageCaps {
  bool mmap_ok = false;      // anonymous private mmap works
  bool hugepage_ok = false;  // MADV_HUGEPAGE is accepted (THP madvise mode)
  bool mbind_ok = false;     // the mbind syscall is available
};

const PageCaps& page_caps();

std::size_t page_size();

// One page-backed block. Movable, not copyable; the destructor returns the
// block to whichever allocator actually produced it.
class PageBuffer {
 public:
  PageBuffer() = default;

  // Allocates `bytes` (rounded up to whole pages on the mmap path) aligned
  // to at least `align`. `node` >= 0 requests binding to that NUMA node via
  // mbind (MPOL_PREFERRED — under memory pressure the kernel may still
  // spill, which beats failing); `want_huge` requests MADV_HUGEPAGE.
  // Follows the fallback ladder above; throws std::bad_alloc only when the
  // final aligned-new fallback itself fails.
  PageBuffer(std::size_t bytes, std::size_t align, int node, bool want_huge);

  ~PageBuffer();

  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  void* data() const { return data_; }
  std::size_t size() const { return bytes_; }
  explicit operator bool() const { return data_ != nullptr; }

  bool mapped() const { return mapped_; }  // false = aligned-new fallback
  bool huge() const { return huge_; }      // MADV_HUGEPAGE was applied
  bool bound() const { return bound_; }    // mbind to `node` succeeded

 private:
  void release();

  void* data_ = nullptr;
  std::size_t bytes_ = 0;    // request size (what data() is good for)
  std::size_t mapped_bytes_ = 0;  // page-rounded mmap length (0 = heap)
  std::size_t align_ = 0;
  bool mapped_ = false;
  bool huge_ = false;
  bool bound_ = false;
};

}  // namespace ramr::mem
