#include "obs/report.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "util/hash.h"
#include "util/string_utils.h"

namespace autofeat::obs {

namespace {

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

void AppendQuoted(std::ostringstream& out, const std::string& s) {
  out << '"' << JsonEscape(s) << '"';
}

}  // namespace

std::string JsonReport(const MetricsRegistry& metrics, const Tracer* tracer,
                       const ReportOptions& options) {
  MetricsSnapshot snap = metrics.Snapshot();
  std::ostringstream out;
  out << "{\n  \"schema\": \"autofeat.obs.v1\",\n";

  out << "  \"counters\": {";
  bool first = true;
  for (const CounterSample& c : snap.counters) {
    if (!options.include_volatile && !c.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, c.name);
    out << ": " << c.value;
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"gauges\": {";
  first = true;
  for (const GaugeSample& g : snap.gauges) {
    if (!options.include_volatile && !g.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, g.name);
    out << ": " << g.value;
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"histograms\": {";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    if (!options.include_volatile && !h.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, h.name);
    out << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"min\": " << h.min << ", \"max\": " << h.max
        << ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out << ", ";
      out << "[" << h.buckets[i].first << ", " << h.buckets[i].second << "]";
    }
    out << "]}";
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"quantiles\": {";
  first = true;
  for (const QuantileSample& q : snap.quantiles) {
    if (!options.include_volatile && !q.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, q.name);
    out << ": {\"count\": " << q.count << ", \"sum\": " << q.sum
        << ", \"min\": " << q.min << ", \"max\": " << q.max
        << ", \"p50\": " << q.p50 << ", \"p90\": " << q.p90
        << ", \"p99\": " << q.p99 << ", \"p999\": " << q.p999 << "}";
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"spans\": [";
  first = true;
  if (tracer != nullptr) {
    for (const SpanRecord& span : tracer->Snapshot()) {
      // Worker spans are scheduling-dependent (their count varies with the
      // number of pool lanes that actually ran), so the deterministic
      // projection drops them entirely.
      if (!options.include_volatile && span.worker) continue;
      out << (first ? "\n    " : ",\n    ");
      first = false;
      out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
          << ", \"name\": ";
      AppendQuoted(out, span.name);
      if (options.include_volatile) {
        out << ", \"thread\": " << span.thread;
        if (span.worker) {
          out << ", \"worker\": true";
          if (span.flow_id != 0) out << ", \"flow\": " << span.flow_id;
        }
      }
      if (options.include_timings) {
        out << ", \"start_s\": " << FormatSeconds(span.start_seconds)
            << ", \"end_s\": " << FormatSeconds(span.end_seconds);
      }
      out << "}";
    }
  }
  out << (first ? "]" : "\n  ]");

  if (options.include_digest) {
    out << ",\n  \"digest\": \"" << DeterministicDigest(metrics, tracer)
        << "\"";
  }
  out << "\n}\n";
  return out.str();
}

std::string DeterministicDigest(const MetricsRegistry& metrics,
                                const Tracer* tracer) {
  ReportOptions projection;
  projection.include_timings = false;
  projection.include_volatile = false;
  projection.include_digest = false;
  uint64_t h = Fnv1a64(JsonReport(metrics, tracer, projection));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

// Minimal recursive-descent JSON validator.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Check() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (depth_ > 256 || pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  bool Object() {
    ++depth_;
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++depth_;
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        char esc = text_[pos_ + 1];
        if (esc == 'u') {
          if (pos_ + 5 >= text_.size()) return false;
          for (size_t i = 2; i <= 5; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 6;
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
            esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
        pos_ += 2;
        continue;
      }
      if (c < 0x20) return false;  // Raw control characters are invalid.
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

bool JsonIsValid(const std::string& text) {
  return JsonChecker(text).Check();
}

}  // namespace autofeat::obs
