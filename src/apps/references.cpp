// Serial reference implementations for the suite apps — ground truth for
// runtime equivalence tests.
#include <algorithm>

#include "apps/histogram.hpp"
#include "apps/kmeans.hpp"
#include "apps/linear_regression.hpp"
#include "apps/matmul.hpp"
#include "apps/pca.hpp"
#include "apps/string_match.hpp"
#include "apps/wordcount.hpp"
#include "common/error.hpp"

namespace ramr::apps {

void normalize_words(std::string& text) {
  for (char& c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 'A' && u <= 'Z') {
      c = static_cast<char>(u - 'A' + 'a');
    } else if (!((u >= 'a' && u <= 'z') || (u >= '0' && u <= '9'))) {
      c = ' ';
    }
  }
}

common::SplitView fold_split(const common::SplitView& v, std::string& buf) {
  const auto is_alnum = [](char c) {
    const unsigned char u = static_cast<unsigned char>(c);
    return (u >= 'a' && u <= 'z') || (u >= 'A' && u <= 'Z') ||
           (u >= '0' && u <= '9');
  };
  const std::size_t lo = v.begin == 0 ? 0 : v.begin - 1;
  std::size_t hi = v.end;
  while (hi < v.size && is_alnum(v.data[hi])) ++hi;
  buf.assign(v.data + lo, hi - lo);
  normalize_words(buf);
  return {buf.data(), buf.size(), v.begin - lo, v.end - lo, v.base + lo};
}

std::map<std::string_view, std::uint64_t> wordcount_reference(
    const TextInput& in) {
  std::map<std::string_view, std::uint64_t> out;
  const std::string_view text(in.text);
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && is_word_separator(text[pos])) ++pos;
    std::size_t end = pos;
    while (end < text.size() && !is_word_separator(text[end])) ++end;
    if (end > pos) out[text.substr(pos, end - pos)]++;
    pos = end;
  }
  return out;
}

std::map<std::uint64_t, std::uint64_t> histogram_reference(
    const PixelInput& in) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::size_t i = 0; i < in.bytes.size(); ++i) {
    out[(i % 3) * 256 + in.bytes[i]]++;
  }
  return out;
}

LrFit lr_fit_from_moments(std::int64_t sx, std::int64_t sy, std::int64_t sxx,
                          std::int64_t sxy, std::size_t n) {
  if (n == 0) throw Error("lr_fit_from_moments: no points");
  const double dn = static_cast<double>(n);
  const double dsx = static_cast<double>(sx);
  const double dsy = static_cast<double>(sy);
  const double denom = dn * static_cast<double>(sxx) - dsx * dsx;
  if (denom == 0.0) throw Error("lr_fit_from_moments: degenerate x values");
  LrFit fit;
  fit.slope = (dn * static_cast<double>(sxy) - dsx * dsy) / denom;
  fit.intercept = (dsy - fit.slope * dsx) / dn;
  return fit;
}

std::map<std::uint64_t, std::int64_t> lr_reference(const LrInput& in) {
  std::map<std::uint64_t, std::int64_t> out;
  for (std::uint64_t k = 0; k < kLrKeys; ++k) out[k] = 0;
  for (const LrPoint& p : in.points) {
    const std::int64_t x = p.x;
    const std::int64_t y = p.y;
    out[kLrSx] += x;
    out[kLrSy] += y;
    out[kLrSxx] += x * x;
    out[kLrSyy] += y * y;
    out[kLrSxy] += x * y;
  }
  if (in.points.empty()) out.clear();
  return out;
}

std::vector<KmPoint> km_next_centroids(
    const std::vector<std::pair<std::uint64_t, KmAccum>>& merged,
    const std::vector<KmPoint>& previous) {
  std::vector<KmPoint> next = previous;
  for (const auto& [cluster, acc] : merged) {
    if (cluster >= next.size() || acc.n == 0) continue;
    for (std::size_t d = 0; d < kKmDim; ++d) {
      next[cluster].coord[d] =
          static_cast<float>(acc.sum[d] / static_cast<double>(acc.n));
    }
  }
  return next;
}

std::map<std::uint64_t, KmAccum> km_reference(const KmInput& in) {
  std::map<std::uint64_t, KmAccum> out;
  for (const KmPoint& p : in.points) {
    std::size_t best = 0;
    float best_d2 = std::numeric_limits<float>::max();
    for (std::size_t k = 0; k < in.centroids.size(); ++k) {
      float d2 = 0.0f;
      for (std::size_t d = 0; d < kKmDim; ++d) {
        const float diff = p.coord[d] - in.centroids[k].coord[d];
        d2 += diff * diff;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best = k;
      }
    }
    KmAccum& acc = out[best];
    for (std::size_t d = 0; d < kKmDim; ++d) acc.sum[d] += p.coord[d];
    acc.n += 1;
  }
  return out;
}

std::vector<double> pca_row_means(const Matrix& m) {
  std::vector<double> means(m.rows, 0.0);
  if (m.cols == 0) return means;
  for (std::size_t r = 0; r < m.rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols; ++c) sum += m.at(r, c);
    means[r] = sum / static_cast<double>(m.cols);
  }
  return means;
}

std::map<std::uint64_t, double> pca_cov_reference(const PcaInput& in) {
  std::map<std::uint64_t, double> out;
  const Matrix& m = in.matrix;
  for (std::size_t i = 0; i < m.rows; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = 0.0;
      for (std::size_t c = 0; c < m.cols; ++c) {
        sum += (m.at(i, c) - in.row_means[i]) * (m.at(j, c) - in.row_means[j]);
      }
      out[pca_pack(i, j)] = sum;
    }
  }
  return out;
}

std::map<std::uint64_t, std::uint64_t> string_match_reference(
    const SmInput& in) {
  std::map<std::uint64_t, std::uint64_t> out;
  const std::string_view text(in.text.text);
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && is_word_separator(text[pos])) ++pos;
    std::size_t end = pos;
    while (end < text.size() && !is_word_separator(text[end])) ++end;
    if (end > pos) {
      const std::string_view word = text.substr(pos, end - pos);
      for (std::size_t p = 0; p < in.patterns.size(); ++p) {
        if (word == in.patterns[p]) {
          out[p]++;
          break;
        }
      }
    }
    pos = end;
  }
  return out;
}

Matrix mm_reference(const MmInput& in) {
  if (in.a.cols != in.b.rows) {
    throw Error("mm_reference: inner dimensions do not match");
  }
  Matrix c;
  c.rows = in.a.rows;
  c.cols = in.b.cols;
  c.data.assign(c.rows * c.cols, 0.0);
  for (std::size_t i = 0; i < in.a.rows; ++i) {
    for (std::size_t k = 0; k < in.a.cols; ++k) {
      const double aik = in.a.at(i, k);
      for (std::size_t j = 0; j < in.b.cols; ++j) {
        c.at(i, j) += aik * in.b.at(k, j);
      }
    }
  }
  return c;
}

}  // namespace ramr::apps
