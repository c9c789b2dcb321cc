#include "trace_fold.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "arith.hpp"

namespace repobench {

namespace {

/// Just enough JSON for trace-event files: objects, arrays, strings,
/// numbers and literals.  Values the fold does not need are skipped.
class TraceParser {
 public:
  explicit TraceParser(const std::string& text) : s_(text) {}

  std::vector<SpanEvent> parse() {
    std::vector<SpanEvent> out;
    ws();
    expect('{');
    bool first = true;
    while (true) {
      ws();
      if (peek() == '}') {
        ++i_;
        break;
      }
      if (!first) {
        expect(',');
        ws();
      }
      first = false;
      const std::string key = string();
      ws();
      expect(':');
      ws();
      if (key == "traceEvents") {
        events(out);
      } else {
        skip_value();
      }
    }
    return out;
  }

 private:
  void events(std::vector<SpanEvent>& out) {
    expect('[');
    ws();
    if (peek() == ']') {
      ++i_;
      return;
    }
    while (true) {
      ws();
      event(out);
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void event(std::vector<SpanEvent>& out) {
    expect('{');
    SpanEvent ev;
    std::string ph;
    bool first = true;
    while (true) {
      ws();
      if (peek() == '}') {
        ++i_;
        break;
      }
      if (!first) {
        expect(',');
        ws();
      }
      first = false;
      const std::string key = string();
      ws();
      expect(':');
      ws();
      if (key == "name") {
        ev.name = string();
      } else if (key == "ph") {
        ph = string();
      } else if (key == "ts") {
        ev.start_s = number() * 1e-6;
      } else if (key == "dur") {
        ev.dur_s = number() * 1e-6;
      } else if (key == "tid") {
        ev.tid = static_cast<std::uint32_t>(number());
      } else {
        skip_value();
      }
    }
    if (ph == "X") out.push_back(std::move(ev));
  }

  void skip_value() {
    const char c = peek();
    if (c == '"') {
      string();
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      ws();
      if (peek() == close) {
        ++i_;
        return;
      }
      while (true) {
        ws();
        if (c == '{') {
          string();
          ws();
          expect(':');
          ws();
        }
        skip_value();
        ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect(close);
        return;
      }
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (i_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
      }
    } else {
      number();
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("unterminated escape");
        c = s_[i_++];
        if (c == 'u') {
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          const long code = std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16);
          i_ += 4;
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          continue;
        }
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  double number() {
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    i_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  void ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' ||
            s_[i_] == '\t')) {
      ++i_;
    }
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace json: " + what + " at byte " +
                             std::to_string(i_));
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

int layer_rank(const std::string& layer) {
  if (layer == "verdict") return 3;
  if (layer == "core") return 2;
  return 1;
}

int layer_order(const std::string& layer) {
  static const char* const kOrder[] = {"verdict", "core",  "sim",  "archive",
                                       "stats",     "query", "serve"};
  for (int i = 0; i < 7; ++i) {
    if (layer == kOrder[i]) return i;
  }
  return 7;
}

}  // namespace

std::vector<SpanEvent> parse_trace_json(const std::string& text) {
  return TraceParser(text).parse();
}

std::string span_layer(const std::string& name) {
  if (name.rfind("rb.", 0) != 0) return "";
  const std::size_t dot = name.find('.', 3);
  return name.substr(3, dot == std::string::npos ? std::string::npos : dot - 3);
}

std::vector<LayerRow> fold_layers(const std::vector<SpanEvent>& spans) {
  struct Ranked {
    const SpanEvent* span;
    std::string layer;
    int rank;
  };
  std::vector<Ranked> ranked;
  for (const SpanEvent& s : spans) {
    std::string layer = span_layer(s.name);
    if (layer.empty()) continue;
    const int rank = layer_rank(layer);
    ranked.push_back({&s, std::move(layer), rank});
  }

  std::map<std::string, LayerRow> rows;
  for (const Ranked& p : ranked) {
    LayerRow& row = rows[p.layer];
    row.layer = p.layer;
    ++row.count;
    row.busy_s += p.span->dur_s;
    if (p.rank == 1) {  // leaves: no child layers
      row.self_s += p.span->dur_s;
      continue;
    }
    const Interval parent{p.span->start_s, p.span->start_s + p.span->dur_s};
    std::vector<Interval> all, same_thread;
    for (const Ranked& c : ranked) {
      if (c.rank >= p.rank) continue;
      const Interval iv{c.span->start_s, c.span->start_s + c.span->dur_s};
      if (iv.end <= parent.begin || iv.begin >= parent.end) continue;
      all.push_back(iv);
      if (c.span->tid == p.span->tid) same_thread.push_back(iv);
    }
    const double covered = covered_within(all, parent);
    row.self_s += p.span->dur_s - covered;
    row.wait_s += covered - covered_within(same_thread, parent);
  }

  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) out.push_back(row);
  std::stable_sort(out.begin(), out.end(),
                   [](const LayerRow& a, const LayerRow& b) {
                     return layer_order(a.layer) < layer_order(b.layer);
                   });
  return out;
}

}  // namespace repobench
