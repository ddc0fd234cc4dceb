// Optional gzip stage for the streaming-input subsystem (zlib).
//
// Capability-probed like the PMU layer: when the build found
// zlib, gzip_supported() is true and ".gz" inputs stream straight through
// an inflate ByteReader into the copying window source; without zlib the
// probe is false and opening a .gz input throws a clear Error instead of
// feeding compressed bytes to the apps. All zlib usage lives in gzip.cpp
// behind RAMR_HAVE_ZLIB so this header is unconditional.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "io/chunk_source.hpp"

namespace ramr::io {

// True when the build linked zlib (RAMR_HAVE_ZLIB).
bool gzip_supported();

// Inflating reader over a .gz file; read_some yields decompressed bytes.
// Throws Error when gzip_supported() is false, the file cannot be opened,
// or the stream is corrupt.
std::unique_ptr<ByteReader> open_gzip_reader(const std::string& path);

// One-shot gzip writer (tests and benches generate compressed corpora
// with it). Throws Error when unsupported or on I/O failure.
void write_gzip_file(const std::string& path, std::string_view data);

}  // namespace ramr::io
