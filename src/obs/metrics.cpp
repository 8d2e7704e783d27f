#include "obs/metrics.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pp::obs {

int histogram::bucket_of(std::uint64_t value) {
  return std::bit_width(value);
}

std::uint64_t histogram::bucket_lo(int bucket) {
  if (bucket <= 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

void histogram::observe(std::uint64_t value) {
  if (count == 0 || value < min) min = value;
  if (value > max) max = value;
  ++count;
  sum += value;
  ++buckets[static_cast<std::size_t>(bucket_of(value))];
}

void histogram::merge(const histogram& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
  for (int i = 0; i < kBuckets; ++i) {
    buckets[static_cast<std::size_t>(i)] +=
        other.buckets[static_cast<std::size_t>(i)];
  }
}

void metrics_registry::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

void metrics_registry::set(const std::string& name, std::int64_t value) {
  gauges_[name] = value;
}

void metrics_registry::observe(const std::string& name, std::uint64_t value) {
  histograms_[name].observe(value);
}

std::uint64_t metrics_registry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t metrics_registry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const histogram* metrics_registry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void metrics_registry::merge(const metrics_registry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

namespace {

// Metric names are [A-Za-z0-9._-] by convention, but escape defensively so
// the snapshot is always valid JSON whatever a caller passes.
void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string metrics_registry::json() const {
  std::string out = "{\n  \"popsim_metrics\": 1,\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"min\": " + std::to_string(h.count ? h.min : 0);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i < histogram::kBuckets; ++i) {
      const std::uint64_t n = h.buckets[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "{\"lo\": " + std::to_string(histogram::bucket_lo(i));
      out += ", \"count\": " + std::to_string(n) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool metrics_registry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << json();
  return static_cast<bool>(out.flush());
}

std::string metrics_registry::text() const {
  std::string out = "ppmetrics 1\n";
  for (const auto& [name, value] : counters_) {
    out += "c " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += "g " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "h " + name + " " + std::to_string(h.count) + " " +
           std::to_string(h.sum) + " " + std::to_string(h.count ? h.min : 0) +
           " " + std::to_string(h.max);
    for (int i = 0; i < histogram::kBuckets; ++i) {
      const std::uint64_t n = h.buckets[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      // Appended piecewise: `" " + std::to_string(i)` trips a GCC 12
      // -Wrestrict false positive.
      out += ' ';
      out += std::to_string(i);
      out += ':';
      out += std::to_string(n);
    }
    out += "\n";
  }
  return out;
}

bool metrics_registry::write_text(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text();
  return static_cast<bool>(out.flush());
}

bool metrics_registry::merge_text(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != "ppmetrics 1") return false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind, name;
    if (!(fields >> kind >> name)) continue;
    if (kind == "c") {
      std::uint64_t value = 0;
      if (fields >> value) counters_[name] += value;
    } else if (kind == "g") {
      std::int64_t value = 0;
      if (fields >> value) gauges_[name] = value;
    } else if (kind == "h") {
      histogram h;
      if (!(fields >> h.count >> h.sum >> h.min >> h.max)) continue;
      std::string entry;
      bool ok = true;
      while (fields >> entry) {
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos) { ok = false; break; }
        const int bucket = std::atoi(entry.substr(0, colon).c_str());
        if (bucket < 0 || bucket >= histogram::kBuckets) { ok = false; break; }
        h.buckets[static_cast<std::size_t>(bucket)] = static_cast<std::uint64_t>(
            std::strtoull(entry.c_str() + colon + 1, nullptr, 10));
      }
      if (ok && h.count > 0) histograms_[name].merge(h);
    }
    // Unknown record kinds (future extensions, torn lines) are skipped.
  }
  return true;
}

bool metrics_registry::merge_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream content;
  content << in.rdbuf();
  return merge_text(content.str());
}

}  // namespace pp::obs
