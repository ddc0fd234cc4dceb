#include "io/chunk_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "io/gzip.hpp"

namespace ramr::io {
namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  const int err = errno;
  throw Error(what + " '" + path + "': " + std::strerror(err) + " (errno " +
              std::to_string(err) + ")");
}

[[noreturn]] void throw_record_too_big(std::size_t window_bytes) {
  throw ConfigError(
      "streaming window of " + std::to_string(window_bytes) +
      " bytes (RAMR_IO_WINDOW) is smaller than one input record; raise "
      "RAMR_IO_WINDOW");
}

// Index one past the last record break in [data, data+size); 0 when the
// range contains no break at all (record larger than the window).
std::size_t snap_to_break(const char* data, std::size_t size,
                          RecordBreak is_break) {
  for (std::size_t i = size; i > 0; --i) {
    if (is_break(data[i - 1])) return i;
  }
  return 0;
}

int open_read_fd(const std::string& path, int extra_flags) {
  return ::open(path.c_str(), O_RDONLY | extra_flags);  // NOLINT
}

// Plain buffered reads with sequential readahead advice.
class BufferedReader final : public ByteReader {
 public:
  explicit BufferedReader(const std::string& path) : path_(path) {
    fd_ = open_read_fd(path, 0);
    if (fd_ < 0) throw_errno("cannot open", path);
#if defined(POSIX_FADV_SEQUENTIAL)
    (void)posix_fadvise(fd_, 0, 0, POSIX_FADV_SEQUENTIAL);
#endif
  }
  ~BufferedReader() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t read_some(char* dst, std::size_t n) override {
    for (;;) {
      const ssize_t got = ::read(fd_, dst, n);
      if (got >= 0) return static_cast<std::size_t>(got);
      if (errno == EINTR) continue;
      throw_errno("read of", path_);
    }
  }
  const char* kind() const override { return "buffered"; }

 private:
  std::string path_;
  int fd_ = -1;
};

// O_DIRECT reads through an aligned bounce buffer. O_DIRECT requires the
// user buffer, transfer length, and file offset all aligned (typically to
// 512B/4KiB); window scratch offsets are arbitrary once a carry is
// prepended, so reads land in the aligned bounce and are copied out. The
// file offset stays aligned because the bounce is always drained fully
// before the next pread.
class DirectReader final : public ByteReader {
 public:
  static constexpr std::size_t kAlign = 4096;
  static constexpr std::size_t kBounceBytes = 1 << 20;

  explicit DirectReader(const std::string& path) : path_(path) {
#if defined(O_DIRECT)
    fd_ = open_read_fd(path, O_DIRECT);
#else
    fd_ = -1;
    errno = EINVAL;
#endif
    if (fd_ < 0) {
      // Capability fallback (tmpfs and some network filesystems refuse
      // O_DIRECT): buffered reads, same interface, kind() says so.
      fd_ = open_read_fd(path, 0);
      if (fd_ < 0) throw_errno("cannot open", path);
      direct_ = false;
#if defined(POSIX_FADV_SEQUENTIAL)
      (void)posix_fadvise(fd_, 0, 0, POSIX_FADV_SEQUENTIAL);
#endif
      return;
    }
    void* mem = nullptr;
    if (posix_memalign(&mem, kAlign, kBounceBytes) != 0) {
      ::close(fd_);
      throw Error("cannot allocate aligned O_DIRECT buffer for '" + path +
                  "'");
    }
    bounce_ = static_cast<char*>(mem);
  }
  ~DirectReader() override {
    if (fd_ >= 0) ::close(fd_);
    std::free(bounce_);
  }

  std::size_t read_some(char* dst, std::size_t n) override {
    if (!direct_) {
      for (;;) {
        const ssize_t got = ::read(fd_, dst, n);
        if (got >= 0) return static_cast<std::size_t>(got);
        if (errno == EINTR) continue;
        throw_errno("read of", path_);
      }
    }
    if (bounce_pos_ == bounce_len_) {
      for (;;) {
        const ssize_t got = ::read(fd_, bounce_, kBounceBytes);
        if (got >= 0) {
          bounce_len_ = static_cast<std::size_t>(got);
          bounce_pos_ = 0;
          break;
        }
        if (errno == EINTR) continue;
        throw_errno("O_DIRECT read of", path_);
      }
      if (bounce_len_ == 0) return 0;
    }
    const std::size_t take = std::min(n, bounce_len_ - bounce_pos_);
    std::memcpy(dst, bounce_ + bounce_pos_, take);
    bounce_pos_ += take;
    return take;
  }
  const char* kind() const override {
    return direct_ ? "direct" : "buffered";
  }

 private:
  std::string path_;
  int fd_ = -1;
  bool direct_ = true;
  char* bounce_ = nullptr;
  std::size_t bounce_len_ = 0;
  std::size_t bounce_pos_ = 0;
};

bool has_gz_suffix(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}

}  // namespace

// ---- CopyChunkSource -------------------------------------------------------

CopyChunkSource::CopyChunkSource(std::unique_ptr<ByteReader> reader,
                                 RecordBreak is_break,
                                 std::size_t window_bytes)
    : reader_(std::move(reader)), is_break_(is_break),
      window_bytes_(window_bytes) {
  if (window_bytes_ == 0) {
    throw ConfigError("streaming window must be at least 1 byte");
  }
}

std::size_t CopyChunkSource::fill(char* dst, std::size_t n) {
  std::size_t have = 0;
  while (have < n) {
    const std::size_t got = reader_->read_some(dst + have, n - have);
    if (got == 0) {
      eof_ = true;
      break;
    }
    have += got;
  }
  bytes_read_ += have;
  return have;
}

WindowData CopyChunkSource::next(char* scratch, std::size_t cap) {
  cap = std::min(cap, window_bytes_);
  if (carry_.size() > cap) throw_record_too_big(window_bytes_);
  std::size_t have = carry_.size();
  std::memcpy(scratch, carry_.data(), have);
  carry_.clear();
  if (!eof_) have += fill(scratch + have, cap - have);
  if (have == 0) return {};

  std::size_t end = have;
  bool more_coming = !eof_ && have == cap;
  char probe = 0;
  bool have_probe = false;
  if (more_coming) {
    // A full buffer with the reader not at EOF *might* still be the exact
    // end of the stream; one probe byte settles it so an exactly-window-
    // sized final record is not misreported as too big.
    if (fill(&probe, 1) == 0) {
      more_coming = false;
    } else {
      have_probe = true;
    }
  }
  if (is_break_ != nullptr && more_coming) {
    end = snap_to_break(scratch, have, is_break_);
    if (end == 0) throw_record_too_big(window_bytes_);
  }
  carry_.assign(scratch + end, have - end);
  if (have_probe) carry_.push_back(probe);
  carry_total_ += carry_.size();

  WindowData w;
  w.data = scratch;
  w.size = end;
  w.base_offset = offset_;
  offset_ += end;
  return w;
}

// ---- MmapChunkSource -------------------------------------------------------

MmapChunkSource::MmapChunkSource(const std::string& path,
                                 std::size_t window_bytes,
                                 RecordBreak is_break)
    : path_(path), window_bytes_(window_bytes), is_break_(is_break) {
  if (window_bytes_ == 0) {
    throw ConfigError("streaming window must be at least 1 byte");
  }
  fd_ = open_read_fd(path, 0);
  if (fd_ < 0) throw_errno("cannot open", path);
  struct stat st{};
  if (fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    throw_errno("cannot stat", path);
  }
  file_size_ = static_cast<std::uint64_t>(st.st_size);
}

MmapChunkSource::~MmapChunkSource() {
  for (const Mapping& m : live_) {
    ::munmap(m.addr, m.len);
  }
  if (fd_ >= 0) ::close(fd_);
}

WindowData MmapChunkSource::next(char* /*scratch*/, std::size_t cap) {
  const std::size_t window = std::min(cap, window_bytes_);
  if (offset_ >= file_size_) return {};
  const std::uint64_t nominal_end =
      std::min(offset_ + window, file_size_);
  // The size was read at open. Pages past the file's current end raise
  // SIGBUS when touched, so a file that shrank since must fail here, before
  // the window is mapped. A truncation inside a window that is already
  // mapped still raises SIGBUS; catching that needs a signal handler.
  struct stat st{};
  if (fstat(fd_, &st) != 0) throw_errno("cannot stat", path_);
  const auto current_size = static_cast<std::uint64_t>(st.st_size);
  if (current_size < nominal_end) {
    throw Error("streaming input '" + path_ + "' shrank while mapped: the "
                "window at offset " + std::to_string(offset_) + " needs " +
                std::to_string(nominal_end) + " bytes, the file now has " +
                std::to_string(current_size) + " (it had " +
                std::to_string(file_size_) + " at open)");
  }
  const std::uint64_t page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t map_start = offset_ - (offset_ % page);
  const std::size_t map_len = static_cast<std::size_t>(nominal_end - map_start);
  void* addr = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd_,
                      static_cast<off_t>(map_start));
  if (addr == MAP_FAILED) {
    const int err = errno;
    throw Error("mmap of streaming window at offset " +
                std::to_string(offset_) + " failed: " + std::strerror(err) +
                " (errno " + std::to_string(err) + ")");
  }
#if defined(MADV_SEQUENTIAL)
  (void)::madvise(addr, map_len, MADV_SEQUENTIAL);
#endif
  const char* data =
      static_cast<const char*>(addr) + (offset_ - map_start);
  std::size_t size = static_cast<std::size_t>(nominal_end - offset_);
  if (is_break_ != nullptr && nominal_end < file_size_) {
    const std::size_t end = snap_to_break(data, size, is_break_);
    if (end == 0) {
      ::munmap(addr, map_len);
      throw_record_too_big(window_bytes_);
    }
    size = end;
  }
  live_.push_back(Mapping{data, addr, map_len});

  WindowData w;
  w.data = data;
  w.size = size;
  w.base_offset = offset_;
  offset_ += size;
  bytes_read_ += size;
  return w;
}

void MmapChunkSource::retire(const WindowData& window) {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].data == window.data) {
#if defined(MADV_DONTNEED)
      (void)::madvise(live_[i].addr, live_[i].len, MADV_DONTNEED);
#endif
      ::munmap(live_[i].addr, live_[i].len);
      live_.erase(live_.begin() +
                  static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

// ---- readers + factory -----------------------------------------------------

std::unique_ptr<ByteReader> open_buffered_reader(const std::string& path) {
  return std::make_unique<BufferedReader>(path);
}

std::unique_ptr<ByteReader> open_direct_reader(const std::string& path) {
  return std::make_unique<DirectReader>(path);
}

std::unique_ptr<ChunkSource> open_chunk_source(const std::string& path,
                                               const IoConfig& cfg,
                                               RecordBreak is_break) {
  if (!cfg.enabled()) {
    throw ConfigError("open_chunk_source: RAMR_IO mode is off");
  }
  if (has_gz_suffix(path)) {
    // Compressed input cannot be windowed in place: route both modes
    // through the inflate stage, which feeds the copying source.
    return std::make_unique<CopyChunkSource>(open_gzip_reader(path),
                                             is_break, cfg.window_bytes);
  }
  if (cfg.mode == IoMode::kMmap) {
    return std::make_unique<MmapChunkSource>(path, cfg.window_bytes,
                                             is_break);
  }
  return std::make_unique<CopyChunkSource>(open_direct_reader(path),
                                           is_break, cfg.window_bytes);
}

}  // namespace ramr::io
