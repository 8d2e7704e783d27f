#include "fleet/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fleet/wire.h"
#include "support/expects.h"

namespace pp::fleet {

namespace {

constexpr std::size_t kHeaderBytes = 32;
// One journal record is exactly one wire.h checked frame of a trial record.
constexpr std::size_t kRecordBytes = wire::framed_size(kTrialRecordPayload);
constexpr wire::frame_limits kRecordLimits{kTrialRecordPayload,
                                           kTrialRecordPayload};

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::vector<std::uint8_t> read_file(const std::string& path, bool& exists) {
  std::vector<std::uint8_t> bytes;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    exists = false;
    return bytes;
  }
  exists = true;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      expects(false, "journal: read failed for " + path + ": " +
                         std::strerror(errno));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

journal_header parse_header(const std::vector<std::uint8_t>& bytes,
                            const std::string& path) {
  expects(bytes.size() >= kHeaderBytes,
          "journal: " + path + " is too short to hold a journal header");
  expects(get_u32(bytes.data()) == kJournalMagic,
          "journal: " + path + " is not a .ppaj journal (bad magic)");
  expects(get_u32(bytes.data() + 4) == kJournalEndianTag,
          "journal: " + path + " was written on a foreign-endian host");
  expects(get_u32(bytes.data() + 8) == kJournalVersion,
          "journal: " + path + " has an unsupported format version");
  expects(get_u32(bytes.data() + 12) == 0,
          "journal: " + path + " has a nonzero reserved header field");
  journal_header h;
  h.tag = get_u64(bytes.data() + 16);
  h.trials = get_u64(bytes.data() + 24);
  return h;
}

void write_header(int fd, const journal_header& header, const std::string& path) {
  std::uint8_t buf[kHeaderBytes];
  put_u32(buf, kJournalMagic);
  put_u32(buf + 4, kJournalEndianTag);
  put_u32(buf + 8, kJournalVersion);
  put_u32(buf + 12, 0);
  put_u64(buf + 16, header.tag);
  put_u64(buf + 24, header.trials);
  write_all(fd, buf, sizeof(buf), "journal: header write failed for " + path);
}

}  // namespace

journal_replay replay_journal(const std::string& path) {
  bool exists = false;
  const std::vector<std::uint8_t> bytes = read_file(path, exists);
  expects(exists, "journal: cannot open " + path);
  journal_replay replay;
  replay.header = parse_header(bytes, path);
  std::size_t off = kHeaderBytes;
  replay.durable_bytes = off;
  while (off + kRecordBytes <= bytes.size()) {
    wire::frame_view frame;
    const wire::decode_status status = wire::decode_frame(
        bytes.data() + off, bytes.size() - off, kRecordLimits, frame);
    if (status == wire::decode_status::bad_length) {
      // Broken framing: nothing past this offset can be trusted.
      replay.torn_tail = true;
      return replay;
    }
    off += kRecordBytes;
    replay.durable_bytes = off;
    if (status == wire::decode_status::bad_checksum) {
      // Bit rot inside one record: the fixed-size framing survives, so the
      // damaged trial is simply dropped (and re-runs on resume).
      ++replay.corrupt_records;
      continue;
    }
    const trial_record record = decode_trial_record(frame.payload);
    if (record.trial >= replay.header.trials) {
      ++replay.corrupt_records;
      continue;
    }
    replay.records.push_back(record);
  }
  if (off != bytes.size()) replay.torn_tail = true;  // writer died mid-record
  return replay;
}

journal_writer::journal_writer(const std::string& path,
                               const journal_header& header, bool resume) {
  std::uint64_t append_at = kHeaderBytes;
  bool fresh = true;
  if (resume) {
    bool exists = false;
    const std::vector<std::uint8_t> bytes = read_file(path, exists);
    if (exists && !bytes.empty()) {
      const journal_replay replay = replay_journal(path);
      expects(replay.header == header,
              "journal: " + path + " was written for a different sweep "
              "(seed/trials mismatch); refusing to resume into it");
      append_at = replay.durable_bytes;
      fresh = false;
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | (fresh ? O_TRUNC : 0), 0644);
  expects(fd_ >= 0, "journal: cannot open " + path + " for writing: " +
                        std::strerror(errno));
  if (fresh) {
    write_header(fd_, header, path);
  } else {
    // Truncate away any torn tail so appended records stay well-framed.
    expects(::ftruncate(fd_, static_cast<off_t>(append_at)) == 0,
            "journal: cannot truncate the torn tail of " + path);
    expects(::lseek(fd_, 0, SEEK_END) >= 0,
            "journal: cannot seek to the end of " + path);
  }
}

journal_writer::~journal_writer() {
  if (fd_ >= 0) ::close(fd_);
}

void journal_writer::append(const trial_record& record) {
  // One write(2) for the whole record: a crash tears at most this record,
  // and the torn tail is truncated away on resume.
  std::uint8_t payload[kTrialRecordPayload];
  encode_trial_record(record, payload);
  std::uint8_t buf[kRecordBytes];
  wire::encode_frame(payload, kTrialRecordPayload, buf);
  write_all(fd_, buf, sizeof(buf), "journal: append failed");
}

}  // namespace pp::fleet
