#include "mem/pages.hpp"

#include <cstdint>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace ramr::mem {

namespace {

#if defined(__linux__) && defined(SYS_mbind)
// Raw syscall: libnuma is deliberately not a dependency (the toolchain
// image does not ship it, and the paper's placement needs are just "put
// this block on that node"). MPOL_PREFERRED spills instead of OOM-killing
// when the node is full.
constexpr int kMpolPreferred = 1;

bool mbind_block(void* addr, std::size_t len, int node) {
  // The mask is one word: a node id beyond it cannot be bound (and the
  // shift below would be undefined).
  if (node < 0 || node >= static_cast<int>(sizeof(unsigned long) * 8)) {
    return false;
  }
  const unsigned long nodemask = 1UL << static_cast<unsigned>(node);
  return syscall(SYS_mbind, addr, len, kMpolPreferred, &nodemask,
                 sizeof(nodemask) * 8, 0UL) == 0;
}
#else
bool mbind_block(void*, std::size_t, int) { return false; }
#endif

PageCaps probe_caps() {
  PageCaps caps;
#if defined(__linux__)
  const std::size_t page = page_size();
  void* p = ::mmap(nullptr, page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return caps;
  caps.mmap_ok = true;
#if defined(MADV_HUGEPAGE)
  caps.hugepage_ok = ::madvise(p, page, MADV_HUGEPAGE) == 0;
#endif
#if defined(SYS_mbind)
  // Probe node 0 specifically: every machine with any NUMA support has it,
  // and ENOSYS / EPERM (seccomp) show up identically for real requests.
  caps.mbind_ok = mbind_block(p, page, 0);
#endif
  ::munmap(p, page);
#endif
  return caps;
}

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

}  // namespace

std::size_t page_size() {
#if defined(__linux__)
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

const PageCaps& page_caps() {
  static const PageCaps caps = probe_caps();
  return caps;
}

PageBuffer::PageBuffer(std::size_t bytes, std::size_t align, int node,
                       bool want_huge) {
  if (bytes == 0) return;
  bytes_ = bytes;
  align_ = align < alignof(std::max_align_t) ? alignof(std::max_align_t)
                                             : align;
#if defined(__linux__)
  if (page_caps().mmap_ok && align_ <= page_size()) {
    const std::size_t len = round_up(bytes, page_size());
    void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      data_ = p;
      mapped_ = true;
      mapped_bytes_ = len;
#if defined(MADV_HUGEPAGE)
      if (want_huge && page_caps().hugepage_ok) {
        huge_ = ::madvise(p, len, MADV_HUGEPAGE) == 0;
      }
#else
      (void)want_huge;
#endif
      // Binding must precede the first touch: mbind only affects pages
      // faulted in afterwards (already-touched pages stay put).
      if (node >= 0 && page_caps().mbind_ok) {
        bound_ = mbind_block(p, len, node);
      }
      return;
    }
  }
#else
  (void)node;
  (void)want_huge;
#endif
  // Fallback: aligned heap allocation — correct everywhere, placed by
  // whatever the allocator and first-touch give us.
  data_ = ::operator new(bytes, std::align_val_t(align_));
}

void PageBuffer::release() {
  if (data_ == nullptr) return;
#if defined(__linux__)
  if (mapped_) {
    ::munmap(data_, mapped_bytes_);
    data_ = nullptr;
    return;
  }
#endif
  ::operator delete(data_, std::align_val_t(align_));
  data_ = nullptr;
}

PageBuffer::~PageBuffer() { release(); }

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      align_(std::exchange(other.align_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      huge_(std::exchange(other.huge_, false)),
      bound_(std::exchange(other.bound_, false)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    align_ = std::exchange(other.align_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    huge_ = std::exchange(other.huge_, false);
    bound_ = std::exchange(other.bound_, false);
  }
  return *this;
}

}  // namespace ramr::mem
