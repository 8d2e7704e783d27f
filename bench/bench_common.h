// Shared helpers for the experiment binaries (bench/).
//
// Each binary regenerates one artefact of the paper (a Table 1 row, or the
// theorem or lemma its header names) and prints paper-style rows.  Absolute
// step counts are not expected to match the paper's constants — only the
// shapes (who wins, growth exponents, crossovers).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>

#include "analysis/experiment.h"
#include "support/table.h"

namespace pp::bench {

// Prints the experiment banner: id, paper artefact, and what is reproduced.
inline void banner(const std::string& id, const std::string& artefact,
                   const std::string& claim) {
  std::printf("=== %s — %s ===\n%s\n\n", id.c_str(), artefact.c_str(),
              claim.c_str());
}

inline void print_table(const text_table& t) {
  std::fputs(t.to_string().c_str(), stdout);
  std::fputs("\n", stdout);
}

// Scales an integer budget by PP_BENCH_SCALE (min 1).
inline int scaled(int base) {
  const double s = bench_scale();
  const int v = static_cast<int>(base * s);
  return v < 1 ? 1 : v;
}

class stopwatch {
 public:
  stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Minimal streaming JSON emitter for machine-readable bench artefacts
// (BENCH_*.json).  Call sequence mirrors the document structure:
//   begin_object().key("results").begin_array() ... end_array().end_object()
// Commas are managed automatically; the caller is responsible for well-formed
// nesting.
class json_writer {
 public:
  json_writer& begin_object() { return open('{'); }
  json_writer& end_object() { return close('}'); }
  json_writer& begin_array() { return open('['); }
  json_writer& end_array() { return close(']'); }

  json_writer& key(std::string_view k) {
    comma();
    quote(k);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }

  json_writer& value(std::string_view v) {
    comma();
    quote(v);
    need_comma_ = true;
    return *this;
  }
  json_writer& value(const char* v) { return value(std::string_view(v)); }
  json_writer& value(bool v) { return raw(v ? "true" : "false"); }
  json_writer& value(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return raw(buf);
  }
  json_writer& value(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    return raw(buf);
  }
  json_writer& value(std::int64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return raw(buf);
  }
  json_writer& value(int v) { return value(static_cast<std::int64_t>(v)); }

  const std::string& str() const { return out_; }

  // Writes the document to `path`; returns false (and reports on stderr) on
  // I/O failure so benches can keep printing their tables regardless.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json_writer: cannot open %s\n", path.c_str());
      return false;
    }
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "json_writer: short write to %s\n", path.c_str());
    return ok;
  }

 private:
  json_writer& open(char bracket) {
    comma();
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  json_writer& close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  json_writer& raw(std::string_view text) {
    comma();
    out_ += text;
    need_comma_ = true;
    return *this;
  }
  void comma() {
    if (need_comma_) out_ += ',';
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace pp::bench
