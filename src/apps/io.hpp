// File input/output helpers: load real data into the app input types and
// export results — the glue a downstream user needs to point the runtime at
// actual files instead of the synthetic generators.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/wordcount.hpp"

namespace ramr::apps {

// Reads a whole file as text, bytes unchanged: the WC/SM scanners already
// separate words on the whole whitespace class (simd::is_word_separator).
// Throws ramr::Error when the file cannot be read. Pass `fold_words = true`
// to lower-case and strip punctuation (normalize_words) — what a grep-style
// user expects of real prose.
TextInput load_text_file(const std::string& path,
                         std::size_t split_bytes = 64 * 1024,
                         bool fold_words = false);

// Reads a whole file as raw bytes (e.g. an uncompressed image for HG).
PixelInput load_binary_file(const std::string& path,
                            std::size_t split_bytes = 64 * 1024);

// Writes key/value pairs as CSV ("key,value" per line). Requires
// operator<< for both types. Throws ramr::Error on I/O failure.
template <typename K, typename V>
void save_pairs_csv(const std::string& path,
                    const std::vector<std::pair<K, V>>& pairs) {
  std::ofstream out(path);
  if (!out) throw Error("save_pairs_csv: cannot open '" + path + "'");
  out << "key,value\n";
  for (const auto& [k, v] : pairs) {
    out << k << ',' << v << '\n';
  }
  if (!out) throw Error("save_pairs_csv: write to '" + path + "' failed");
}

}  // namespace ramr::apps
