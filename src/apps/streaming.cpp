#include "apps/streaming.hpp"

#include "core/runtime.hpp"
#include "io/chunk_source.hpp"
#include "io/stream_feeder.hpp"
#include "topology/topology.hpp"

namespace ramr::apps {

namespace {
using WcOverStream = WordCountApp<ContainerFlavor::kDefault, io::StreamInput>;
using SmOverStream =
    StringMatchApp<ContainerFlavor::kDefault, io::StreamInput>;
using HgOverStream = HistogramApp<ContainerFlavor::kDefault, io::StreamInput>;
}  // namespace

StreamWordCountResult run_wordcount_stream(const std::string& path,
                                           const StreamOptions& opts) {
  io::StreamInput input(opts.io, opts.split_bytes);
  io::StreamFeeder feeder(
      io::open_chunk_source(path, opts.io, io::text_record_break), input,
      opts.io);
  WcOverStream app;
  app.fold_words = opts.fold_words;
  app.max_distinct_words = opts.max_distinct_words;
  core::Runtime<WcOverStream> rt(topo::host(), opts.config);
  return rt.run_stream(app, input, feeder);
}

StreamMatchResult run_string_match_stream(
    const std::string& path, const std::vector<std::string>& patterns,
    const StreamOptions& opts) {
  io::StreamInput stream(opts.io, opts.split_bytes);
  io::StreamFeeder feeder(
      io::open_chunk_source(path, opts.io, io::text_record_break), stream,
      opts.io);
  const SmOverStream::input_type input{&stream, patterns};
  SmOverStream app;
  app.num_patterns = patterns.size();
  app.fold_words = opts.fold_words;
  core::Runtime<SmOverStream> rt(topo::host(), opts.config);
  return rt.run_stream(app, input, feeder);
}

StreamHistogramResult run_histogram_stream(const std::string& path,
                                           const StreamOptions& opts) {
  io::StreamInput input(opts.io, opts.split_bytes);
  // Binary stream: windows cut anywhere (null record break).
  io::StreamFeeder feeder(io::open_chunk_source(path, opts.io, nullptr),
                          input, opts.io);
  const HgOverStream app;
  core::Runtime<HgOverStream> rt(topo::host(), opts.config);
  return rt.run_stream(app, input, feeder);
}

}  // namespace ramr::apps
