#include "apps/io.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/error.hpp"

namespace ramr::apps {

namespace {

// The errno captured at stream-open/read failure, as human-readable detail
// ("No such file or directory (errno 2)"). iostreams do not preserve errno
// reliably across later calls, so capture it right at the failure point.
std::string errno_detail() {
  const int err = errno;
  if (err == 0) return "unknown error";
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open '" + path + "' for reading: " + errno_detail());
  }
  std::string data;
  // Pre-size from the file size: one allocation instead of the doubling
  // ladder of istreambuf_iterator appends (the difference is seconds on a
  // multi-GB slurp). Streams whose size is unknowable fall back to 0.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > 0) data.reserve(static_cast<std::size_t>(size));
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    data.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    throw Error("read of '" + path + "' failed: " + errno_detail());
  }
  return data;
}

}  // namespace

TextInput load_text_file(const std::string& path, std::size_t split_bytes,
                         bool fold_words) {
  TextInput input;
  input.text = read_file(path);
  input.split_bytes = split_bytes;
  if (fold_words) normalize_words(input.text);
  return input;
}

PixelInput load_binary_file(const std::string& path,
                            std::size_t split_bytes) {
  const std::string data = read_file(path);
  PixelInput input;
  input.bytes.assign(data.begin(), data.end());
  input.split_bytes = split_bytes;
  return input;
}

}  // namespace ramr::apps
