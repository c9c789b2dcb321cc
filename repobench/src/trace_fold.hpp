#pragma once
// Folds a Chrome trace-event file written by obs::trace into the
// benchmark's per-layer table.
//
// The benchmark wraps every layer call it makes in an obs::trace span
// named "rb.<layer>.<call>" (rb.core.campaign, rb.sim.measure.l1,
// rb.archive.consume, rb.serve.call.full, ...), and rb.verdict.* spans
// around the stretch from plan to stage-3 verdict.  Spans are ranked:
// verdict > core > every other layer.  A span's children are the
// lower-ranked spans overlapping it, on any thread -- the engine's
// campaign span on the calling thread covers sim spans on the worker
// threads -- and:
//
//   busy  = the span's duration;
//   self  = busy minus the union of its children's intervals;
//   wait  = the part of that union covered only by children on *other*
//           threads: time the span's own thread sat blocked on work it
//           handed off (the engine waiting for its simulator workers).
//
// Spans the program records itself (engine.window, bbx.flush_block,
// ...) are counted but belong to no layer row.

#include <cstdint>
#include <string>
#include <vector>

namespace repobench {

/// One complete ("ph":"X") trace event, in seconds.
struct SpanEvent {
  std::string name;
  std::uint32_t tid = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// Parses the {"traceEvents":[...]} document obs::trace::flush_json
/// writes, keeping the complete events.  Throws std::runtime_error on
/// malformed JSON.
std::vector<SpanEvent> parse_trace_json(const std::string& text);

/// "<layer>" of a benchmark span "rb.<layer>.<call>", else "".
std::string span_layer(const std::string& name);

struct LayerRow {
  std::string layer;
  std::size_t count = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
  double wait_s = 0.0;
};

/// One row per layer seen, in the fixed order verdict, core, sim,
/// archive, stats, query, serve (unknown layers after, by name).
std::vector<LayerRow> fold_layers(const std::vector<SpanEvent>& spans);

}  // namespace repobench
