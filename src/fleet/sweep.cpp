#include "fleet/sweep.h"

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "fleet/wire.h"
#include "support/expects.h"
#include "support/parse.h"

namespace pp::fleet {

namespace {

// A real manifest is a few hundred bytes plus one path; anything this large
// is not one.
constexpr std::size_t kMaxManifestBytes = 64 * 1024;

template <typename T>
void pack(std::uint8_t*& p, T v) {
  std::memcpy(p, &v, sizeof(T));
  p += sizeof(T);
}

template <typename T>
T unpack(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

}  // namespace

void write_all(int fd, const void* data, std::size_t size, std::string_view what) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) {
      ensure(false, std::string(what) + ": " +
                        (n < 0 ? std::strerror(errno) : "no bytes written"));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

void encode_trial_record(const trial_record& record, std::uint8_t* out) {
  std::uint8_t* p = out;
  pack<std::uint64_t>(p, record.trial);
  pack<std::uint64_t>(p, record.result.steps);
  pack<std::uint64_t>(p, static_cast<std::uint64_t>(record.result.distinct_states_used));
  pack<std::int32_t>(p, static_cast<std::int32_t>(record.result.leader));
  pack<std::uint8_t>(p, record.result.stabilized ? 1 : 0);
}

trial_record decode_trial_record(const std::uint8_t* payload) {
  const std::uint8_t* p = payload;
  trial_record out;
  out.trial = unpack<std::uint64_t>(p);
  out.result.steps = unpack<std::uint64_t>(p);
  out.result.distinct_states_used =
      static_cast<std::size_t>(unpack<std::uint64_t>(p));
  out.result.leader = static_cast<node_id>(unpack<std::int32_t>(p));
  out.result.stabilized = unpack<std::uint8_t>(p) != 0;
  return out;
}

void write_trial_record(int fd, const trial_record& record) {
  std::uint8_t payload[kTrialRecordPayload];
  encode_trial_record(record, payload);
  std::uint8_t buf[wire::framed_size(kTrialRecordPayload)];
  wire::encode_frame(payload, kTrialRecordPayload, buf);
  write_all(fd, buf, sizeof(buf), "fleet: pipe write failed");
}

void write_manifest(const worker_manifest& manifest, const std::string& path) {
  expects(manifest.artifact_path.find_first_of(std::string("\n\0", 2)) ==
              std::string::npos,
          "write_manifest: artifact path must not contain newlines or NULs");
  std::FILE* f = std::fopen(path.c_str(), "w");
  expects(f != nullptr, "write_manifest: cannot open " + path);
  std::fprintf(f, "ppfleet-manifest v1\n");
  std::fprintf(f, "artifact=%s\n", manifest.artifact_path.c_str());
  std::fprintf(f, "seed=%llu\n", static_cast<unsigned long long>(manifest.seed));
  std::fprintf(f, "trials=%llu\n", static_cast<unsigned long long>(manifest.trials));
  std::fprintf(f, "jobs=%d\n", manifest.jobs);
  std::fprintf(f, "max_steps=%llu\n",
               static_cast<unsigned long long>(manifest.max_steps));
  std::fprintf(f, "batch=%llu\n",
               static_cast<unsigned long long>(manifest.wellmixed_batch));
  std::fprintf(f, "scheduler=%s\n", to_string(manifest.scheduler));
  expects(std::fclose(f) == 0, "write_manifest: short write to " + path);
}

worker_manifest read_manifest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  expects(f != nullptr, "read_manifest: cannot open " + path);
  // One bounded read of the whole file, split on '\n' below: lines of any
  // length stay whole, and a non-manifest stream (a FIFO, /dev/zero) cannot
  // grow the buffer past the cap.  Oversized input and NUL bytes are never
  // write_manifest output, so they are rejected before any line is parsed.
  std::string text(kMaxManifestBytes + 1, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  worker_manifest m;
  bool saw_header = false;
  bool saw_artifact = false;
  bool valid = text.size() <= kMaxManifestBytes &&
               text.find('\0') == std::string::npos;
  for (std::size_t start = 0; valid && start < text.size();) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string s = text.substr(start, end - start);
    start = end + 1;
    if (s.empty()) continue;
    if (!saw_header) {
      valid = s == "ppfleet-manifest v1";
      saw_header = valid;
      continue;
    }
    const std::size_t eq = s.find('=');
    if (eq == std::string::npos) {
      valid = false;  // malformed line
      break;
    }
    const std::string key = s.substr(0, eq);
    const std::string value = s.substr(eq + 1);
    // Strict digits-only parse: manifests are hand-editable, so a signed
    // value like trials=-1 must be rejected, not silently wrapped to 2^64-1
    // by strtoull.
    std::uint64_t num = 0;
    const bool numeric = parse_u64(value.c_str(), num);
    if (key == "artifact") {
      m.artifact_path = value;
      saw_artifact = !value.empty();
    } else if (key == "seed" && numeric) {
      m.seed = num;
    } else if (key == "trials" && numeric && num >= 1 && num <= 1'000'000) {
      // Same bound the CLI enforces on --trials.
      m.trials = num;
    } else if (key == "jobs" && numeric && num >= 1 && num <= 100000) {
      m.jobs = static_cast<int>(num);
    } else if (key == "max_steps" && numeric) {
      m.max_steps = num;
    } else if (key == "batch" && numeric) {
      m.wellmixed_batch = num;
    } else if (key == "scheduler" && (value == "step" || value == "silent")) {
      // Absent in pre-silent manifests (defaults to step); a hand-edited
      // unknown value is rejected like any other malformed key below.
      m.scheduler =
          value == "silent" ? scheduler_kind::silent : scheduler_kind::step;
    } else {
      valid = false;  // unknown key or bad value
    }
  }
  expects(valid && saw_header && saw_artifact,
          "read_manifest: " + path + " is not a valid fleet manifest");
  return m;
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) return std::string(buf, static_cast<std::size_t>(len));
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

}  // namespace pp::fleet
