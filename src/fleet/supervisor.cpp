#include "fleet/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>

#include "fleet/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/expects.h"

namespace pp::fleet {

namespace {

using steady_clock = std::chrono::steady_clock;

std::int64_t ms_until(steady_clock::time_point when) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             when - steady_clock::now())
      .count();
}

// One supervised worker slot.  `chunk` is the contiguous trial range the
// current (or next, while backing off) worker owns; `done` counts the
// records already received for it, so the outstanding remainder is always
// {chunk.base + done, chunk.count - done}.
struct slot_state {
  pid_t pid = -1;
  int fd = -1;
  std::vector<std::uint8_t> buf;  // unparsed pipe bytes
  trial_range chunk{0, 0};
  std::uint64_t done = 0;
  steady_clock::time_point last_activity;
  steady_clock::time_point respawn_at;
  int attempts = 0;         // respawns already spent on this chunk
  bool running = false;
  bool waiting = false;     // backing off before a respawn
  bool ever_launched = false;  // faults are injected on a slot's first launch only
};

// Error-path teardown: any exit from the supervisor (including a throw)
// SIGKILLs and reaps every still-running worker, so no path leaks zombies.
struct slot_reaper {
  std::vector<slot_state>* slots;
  ~slot_reaper() {
    for (slot_state& s : *slots) {
      if (s.fd >= 0) {
        ::close(s.fd);
        s.fd = -1;
      }
      if (s.pid >= 0) {
        ::kill(s.pid, SIGKILL);
        while (::waitpid(s.pid, nullptr, 0) < 0 && errno == EINTR) {
        }
        s.pid = -1;
      }
    }
  }
};

// Splits the not-yet-completed trials into contiguous chunks of roughly
// pending/jobs trials each (a chunk never spans a completed trial, so after
// a resume the queue covers exactly the journal's gaps).
std::deque<trial_range> chunk_pending(const std::vector<std::uint8_t>& received,
                                      std::uint64_t trials, int jobs) {
  std::vector<trial_range> runs;
  std::uint64_t pending = 0;
  for (std::uint64_t t = 0; t < trials;) {
    if (received[t]) {
      ++t;
      continue;
    }
    const std::uint64_t base = t;
    while (t < trials && !received[t]) ++t;
    runs.push_back({base, t - base});
    pending += t - base;
  }
  std::deque<trial_range> queue;
  if (pending == 0) return queue;
  const std::uint64_t target =
      (pending + static_cast<std::uint64_t>(jobs) - 1) /
      static_cast<std::uint64_t>(jobs);
  for (const trial_range& run : runs) {
    std::uint64_t base = run.base;
    std::uint64_t left = run.count;
    while (left > 0) {
      const std::uint64_t count = std::min(left, target);
      queue.push_back({base, count});
      base += count;
      left -= count;
    }
  }
  return queue;
}

}  // namespace

namespace detail {

std::vector<election_result> supervise(std::uint64_t trials, rng seed_gen,
                                       int jobs,
                                       const supervise_options& options,
                                       const launch_fn& launch,
                                       const trial_fn& inline_fn,
                                       const char* what) {
  expects(jobs >= 1, std::string(what) + ": jobs must be >= 1");
  expects(options.max_retries >= 0, std::string(what) + ": max_retries must be >= 0");
  for (const fault_spec& f : options.faults) {
    expects(f.worker >= 0 && f.worker < jobs,
            std::string(what) + ": fault spec names worker slot w" +
                std::to_string(f.worker) + " beyond the " +
                std::to_string(jobs) + "-worker fleet");
  }
  expects(!options.resume || !options.journal_path.empty(),
          std::string(what) + ": resume needs a journal path");

  // Borrowed observability sinks (supervisor.h): tid 0 carries the poll
  // loop's events, tid slot+1 the span covering worker slot's lifetime.
  obs::trace_writer* const trace = options.trace;
  obs::metrics_registry* const metrics = options.metrics;
  if (trace != nullptr) {
    trace->name_process(what);
    trace->name_thread(0, "supervisor");
    for (int i = 0; i < jobs; ++i) {
      trace->name_thread(i + 1, "slot " + std::to_string(i));
    }
    trace->begin("supervise", 0,
                 {obs::trace_arg::num("trials", trials),
                  obs::trace_arg::num("jobs", static_cast<std::int64_t>(jobs))});
  }

  std::vector<election_result> results(trials);
  std::vector<std::uint8_t> received(trials, 0);
  std::uint64_t completed = 0;

  std::optional<journal_writer> journal;
  if (!options.journal_path.empty()) {
    const journal_header header{options.journal_tag, trials};
    if (options.resume) {
      const journal_replay replay = replay_journal(options.journal_path);
      expects(replay.header == header,
              std::string(what) + ": " + options.journal_path +
                  " belongs to a different sweep (seed/trials mismatch)");
      for (const trial_record& r : replay.records) {
        if (!received[r.trial]) ++completed;
        received[r.trial] = 1;       // determinism: a re-run record is identical,
        results[r.trial] = r.result; // so last-wins replay is safe
      }
      obs::logf(obs::log_level::info,
                "journal replay: %llu record(s) replayed (%llu/%llu trial(s)), "
                "%llu corrupt record(s) skipped, torn tail %s, from %s",
                static_cast<unsigned long long>(replay.records.size()),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(trials),
                static_cast<unsigned long long>(replay.corrupt_records),
                replay.torn_tail ? "truncated" : "none",
                options.journal_path.c_str());
      if (trace != nullptr) {
        trace->instant(
            "journal_replay", 0,
            {obs::trace_arg::num("replayed",
                                 static_cast<std::uint64_t>(replay.records.size())),
             obs::trace_arg::num("corrupt", replay.corrupt_records),
             obs::trace_arg::num("torn_tail",
                                 static_cast<std::int64_t>(replay.torn_tail ? 1 : 0))});
      }
      if (metrics != nullptr) {
        metrics->add("fleet.journal_replayed",
                     static_cast<std::uint64_t>(replay.records.size()));
        metrics->add("fleet.journal_corrupt_skipped", replay.corrupt_records);
        if (replay.torn_tail) metrics->add("fleet.journal_torn_tails");
      }
    }
    journal.emplace(options.journal_path, header, options.resume);
  }

  auto deliver = [&](std::uint64_t t, const election_result& r) {
    if (!received[t]) ++completed;
    received[t] = 1;
    results[t] = r;
    if (journal) {
      journal->append({t, r});
      if (metrics != nullptr) metrics->add("fleet.journal_appends");
    }
    if (trace != nullptr) {
      trace->instant("record", 0, {obs::trace_arg::num("trial", t)});
    }
    if (metrics != nullptr) metrics->add("fleet.records_received");
  };

  std::deque<trial_range> queue = chunk_pending(received, trials, jobs);
  const int nslots = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(jobs), queue.size()));
  std::vector<slot_state> slots(static_cast<std::size_t>(nslots));
  slot_reaper reaper{&slots};
  int retries_used = 0;
  bool degraded = false;
  std::vector<trial_range> leftover;  // chunks to run inline once degraded

  auto open_read_fds = [&]() {
    std::vector<int> fds;
    for (const slot_state& s : slots) {
      if (s.fd >= 0) fds.push_back(s.fd);
    }
    return fds;
  };

  // Parses complete checked frames (wire.h) off slot i's buffer.  Returns
  // false on a protocol violation (bad length, corrupt checksum,
  // out-of-order or duplicate trial) — the worker is then failed, keeping
  // the valid prefix.
  auto parse_buffer = [&](int i) -> bool {
    slot_state& s = slots[static_cast<std::size_t>(i)];
    std::size_t off = 0;
    bool ok = true;
    for (;;) {
      wire::frame_view frame;
      const wire::decode_status status = wire::decode_frame(
          s.buf.data() + off, s.buf.size() - off,
          {kTrialRecordPayload, kTrialRecordPayload}, frame);
      if (status == wire::decode_status::need_more) break;
      if (status != wire::decode_status::ok) {
        ok = false;
        break;
      }
      const trial_record r = decode_trial_record(frame.payload);
      if (r.trial != s.chunk.base + s.done || received[r.trial]) {
        ok = false;
        break;
      }
      deliver(r.trial, r.result);
      ++s.done;
      off += frame.frame_bytes;
    }
    s.buf.erase(s.buf.begin(),
                s.buf.begin() + static_cast<std::ptrdiff_t>(off));
    return ok;
  };

  // Declared ahead of start_worker (a failed launch fails its slot) and
  // defined right after it.
  std::function<void(int, const char*)> fail_slot;

  auto start_worker = [&](int i, trial_range chunk) {
    slot_state& s = slots[static_cast<std::size_t>(i)];
    const bool inject = !s.ever_launched && !options.faults.empty();
    const bool respawn = s.waiting;  // a backoff just elapsed for this slot
    const worker_stream c = launch(i, chunk, inject, open_read_fds());
    if (trace != nullptr) {
      trace->instant(respawn ? "worker_respawn" : "worker_spawn", 0,
                     {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                      obs::trace_arg::num("pid", static_cast<std::int64_t>(c.pid))});
      trace->instant("chunk_assign", 0,
                     {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                      obs::trace_arg::num("base", chunk.base),
                      obs::trace_arg::num("count", chunk.count)});
      trace->begin("worker", i + 1,
                   {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                    obs::trace_arg::num("pid", static_cast<std::int64_t>(c.pid)),
                    obs::trace_arg::num("base", chunk.base),
                    obs::trace_arg::num("count", chunk.count),
                    obs::trace_arg::num("attempt",
                                        static_cast<std::int64_t>(s.attempts))});
    }
    if (metrics != nullptr) {
      metrics->add(respawn ? "fleet.workers_respawned" : "fleet.workers_spawned");
      metrics->add("fleet.chunks_assigned");
    }
    s.ever_launched = true;
    s.pid = c.pid;
    s.fd = c.read_fd;
    s.buf.clear();
    s.chunk = chunk;
    s.done = 0;
    s.running = true;
    s.waiting = false;
    s.last_activity = steady_clock::now();
    if (s.fd >= 0) {
      const int flags = ::fcntl(s.fd, F_GETFL, 0);
      ensure(flags >= 0 && ::fcntl(s.fd, F_SETFL, flags | O_NONBLOCK) == 0,
             std::string(what) + ": cannot make a worker stream non-blocking");
    } else {
      // A launch that yields no record stream (a refused/failed remote
      // connection) fails the slot on the spot: same backoff, retry budget
      // and degraded-mode routing as a worker that died mid-chunk.
      fail_slot(i, "worker launch failed");
    }
  };

  // Kills (if alive) and reaps slot i's worker, then routes its outstanding
  // trials: respawn after backoff while the retry budget lasts, else switch
  // the sweep into degraded mode and queue the remainder for inline
  // execution.
  fail_slot = [&](int i, const char* why) {
    slot_state& s = slots[static_cast<std::size_t>(i)];
    // Drain first: complete records already buffered (e.g. read ahead of a
    // POLLHUP, or data that landed before a read error) are valid — a fast
    // clean exit must never forfeit its final trials to reassignment.  A
    // violation mid-buffer just leaves the valid prefix delivered.
    parse_buffer(i);
    if (s.fd >= 0) {
      ::close(s.fd);
      s.fd = -1;
    }
    if (s.pid >= 0) {
      ::kill(s.pid, SIGKILL);
      while (::waitpid(s.pid, nullptr, 0) < 0 && errno == EINTR) {
      }
      s.pid = -1;
    }
    s.buf.clear();  // a partial trailing record is torn: discard it
    s.running = false;
    if (trace != nullptr) {
      // "worker_kill" marks the supervisor disposing of a failed worker,
      // whether it had to SIGKILL it or just reaped an already-dead one.
      trace->instant("worker_kill", 0,
                     {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                      obs::trace_arg::str("reason", why)});
      trace->end("worker", i + 1, {obs::trace_arg::str("outcome", why)});
    }
    if (metrics != nullptr) metrics->add("fleet.worker_failures");
    const trial_range rest{s.chunk.base + s.done, s.chunk.count - s.done};
    if (rest.count == 0) {
      // Every assigned trial arrived before the worker died: nothing to redo.
      s.waiting = false;
      return;
    }
    if (!degraded && retries_used < options.max_retries) {
      ++retries_used;
      ++s.attempts;
      s.chunk = rest;
      s.done = 0;
      s.waiting = true;
      std::int64_t delay = options.backoff_initial_ms;
      for (int a = 1; a < s.attempts && delay < options.backoff_max_ms; ++a) {
        delay *= 2;
      }
      delay = std::min<std::int64_t>(delay, options.backoff_max_ms);
      s.respawn_at = steady_clock::now() + std::chrono::milliseconds(delay);
      obs::logf(obs::log_level::warn,
                "fleet supervisor: worker slot %d failed (%s), %llu trial(s) "
                "outstanding; respawning in %lld ms (retry %d/%d)",
                i, why, static_cast<unsigned long long>(rest.count),
                static_cast<long long>(delay), retries_used,
                options.max_retries);
      if (trace != nullptr) {
        trace->instant("worker_backoff", 0,
                       {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                        obs::trace_arg::num("delay_ms", delay),
                        obs::trace_arg::num("retry",
                                            static_cast<std::int64_t>(retries_used))});
        trace->instant("chunk_reassign", 0,
                       {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                        obs::trace_arg::num("base", rest.base),
                        obs::trace_arg::num("count", rest.count)});
      }
      if (metrics != nullptr) metrics->add("fleet.chunks_reassigned");
    } else {
      degraded = true;
      leftover.push_back(rest);
      s.waiting = false;
      obs::logf(obs::log_level::warn,
                "fleet supervisor: worker slot %d failed (%s) with the retry "
                "budget exhausted; %llu trial(s) will run inline",
                i, why, static_cast<unsigned long long>(rest.count));
      if (trace != nullptr) {
        trace->instant("degrade_inline", 0,
                       {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                        obs::trace_arg::num("count", rest.count)});
      }
      if (metrics != nullptr) {
        metrics->add("fleet.degraded_chunks");
      }
    }
  };

  auto handle_eof = [&](int i) {
    slot_state& s = slots[static_cast<std::size_t>(i)];
    ::close(s.fd);
    s.fd = -1;
    // A remote slot (pid < 0, net.h) has no child to reap; a clean socket
    // EOF is judged purely on chunk completeness.
    bool clean = true;
    if (s.pid >= 0) {
      int status = 0;
      while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
      }
      s.pid = -1;
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    const bool complete = s.done == s.chunk.count && s.buf.empty();
    if (complete) {
      // All assigned trials arrived; a nonzero exit after the last record
      // (e.g. an injected exit fault) costs nothing.
      s.running = false;
      s.waiting = false;
      if (trace != nullptr) {
        trace->end("worker", i + 1,
                   {obs::trace_arg::str("outcome", "complete"),
                    obs::trace_arg::num("records", s.done)});
      }
      if (metrics != nullptr) metrics->add("fleet.workers_completed");
      return;
    }
    fail_slot(i, clean ? "stream ended early"
                       : "worker exited abnormally");
  };

  // Live progress: a throttled stderr status line driven by the poll loop's
  // natural cadence (the 200 ms timeout clamp).  stderr only, by contract —
  // stdout carries the merged sweep summary and must stay byte-identical to
  // serial.  The rate is an EWMA of completed trials per second; ETA is the
  // outstanding remainder at that rate.
  const steady_clock::time_point progress_start = steady_clock::now();
  steady_clock::time_point progress_next = progress_start;
  steady_clock::time_point progress_rate_at = progress_start;
  std::uint64_t progress_rate_done = completed;
  double progress_ewma = 0.0;  // trials per second
  auto emit_progress = [&](bool final_line) {
    const steady_clock::time_point now = steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - progress_rate_at).count();
    if (dt > 1e-3) {
      const double inst =
          static_cast<double>(completed - progress_rate_done) / dt;
      progress_ewma =
          progress_ewma == 0.0 ? inst : 0.4 * inst + 0.6 * progress_ewma;
      progress_rate_at = now;
      progress_rate_done = completed;
    }
    std::string slot_glyphs;
    slot_glyphs.reserve(slots.size());
    for (const slot_state& s : slots) {
      slot_glyphs.push_back(s.running ? 'R' : (s.waiting ? 'b' : '.'));
    }
    const double pct =
        trials == 0 ? 100.0
                    : 100.0 * static_cast<double>(completed) /
                          static_cast<double>(trials);
    char eta[32];
    if (final_line || completed >= trials) {
      std::snprintf(eta, sizeof(eta), "done");
    } else if (progress_ewma > 1e-9) {
      std::snprintf(eta, sizeof(eta), "eta %.0fs",
                    static_cast<double>(trials - completed) / progress_ewma);
    } else {
      std::snprintf(eta, sizeof(eta), "eta ?");
    }
    std::fprintf(stderr,
                 "popsim: %llu/%llu trials (%.1f%%) | %.2f trials/s | %s | "
                 "slots [%s]%s\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(trials), pct, progress_ewma,
                 eta, slot_glyphs.c_str(), degraded ? " | degraded" : "");
  };

  auto read_slot = [&](int i) {
    slot_state& s = slots[static_cast<std::size_t>(i)];
    bool eof = false;
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::read(s.fd, buf, sizeof(buf));
      if (n > 0) {
        s.buf.insert(s.buf.end(), buf, buf + n);
        s.last_activity = steady_clock::now();
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      const int err = errno;
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) break;
      // A remote slot (pid < 0, net.h) reads a socket, whose failures (a
      // peer's reset) differ from a dead child's pipe; name both.
      const std::string why = std::string(s.pid >= 0 ? "pipe" : "socket") +
                              " read error: " + std::strerror(err);
      fail_slot(i, why.c_str());
      return;
    }
    if (!parse_buffer(i)) {
      fail_slot(i, "record protocol violation");
      return;
    }
    if (eof) handle_eof(i);
  };

  while (true) {
    if (degraded) {
      while (!queue.empty()) {
        leftover.push_back(queue.front());
        queue.pop_front();
      }
    } else {
      for (int i = 0; i < nslots && !queue.empty(); ++i) {
        slot_state& s = slots[static_cast<std::size_t>(i)];
        if (!s.running && !s.waiting) {
          s.attempts = 0;
          start_worker(i, queue.front());
          queue.pop_front();
        }
      }
    }
    // Respawns whose backoff elapsed.
    for (int i = 0; i < nslots; ++i) {
      slot_state& s = slots[static_cast<std::size_t>(i)];
      if (s.waiting && !degraded && ms_until(s.respawn_at) <= 0) {
        start_worker(i, s.chunk);
      } else if (s.waiting && degraded) {
        leftover.push_back(s.chunk);
        s.waiting = false;
      }
    }

    bool any_running = false;
    bool any_waiting = false;
    for (const slot_state& s : slots) {
      any_running = any_running || s.running;
      any_waiting = any_waiting || s.waiting;
    }
    if (!any_running && !any_waiting && queue.empty()) break;

    // Poll timeout: the nearest of inactivity deadlines and respawn timers,
    // clamped to 200 ms so state re-checks stay cheap and frequent.
    std::int64_t timeout = 200;
    std::vector<pollfd> fds;
    std::vector<int> fd_slot;
    for (int i = 0; i < nslots; ++i) {
      slot_state& s = slots[static_cast<std::size_t>(i)];
      if (s.running) {
        fds.push_back({s.fd, POLLIN, 0});
        fd_slot.push_back(i);
        if (options.worker_timeout_ms > 0) {
          const std::int64_t until =
              ms_until(s.last_activity +
                       std::chrono::milliseconds(options.worker_timeout_ms));
          timeout = std::min(timeout, std::max<std::int64_t>(until, 0));
        }
      } else if (s.waiting) {
        timeout = std::min(timeout,
                           std::max<std::int64_t>(ms_until(s.respawn_at), 0));
      }
    }
    if (!fds.empty()) {
      const int ready = ::poll(fds.data(), fds.size(),
                               static_cast<int>(timeout));
      ensure(ready >= 0 || errno == EINTR,
             std::string(what) + ": poll failed: " + std::strerror(errno));
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
          const int i = fd_slot[k];
          if (slots[static_cast<std::size_t>(i)].running) read_slot(i);
        }
      }
    } else if (timeout > 0) {
      ::usleep(static_cast<useconds_t>(timeout) * 1000);
    }
    // Transport health: ask the prober (if installed) for dead slots and
    // fail the running ones early, ahead of their inactivity deadline.
    if (options.health_tick) {
      for (const int i : options.health_tick()) {
        if (i >= 0 && i < nslots &&
            slots[static_cast<std::size_t>(i)].running) {
          fail_slot(i, "host health check failed");
        }
      }
    }
    if (options.progress && steady_clock::now() >= progress_next) {
      emit_progress(false);
      progress_next =
          steady_clock::now() +
          std::chrono::milliseconds(std::max(options.progress_interval_ms, 1));
    }
    // Inactivity timeouts: a worker that went silent past the deadline is
    // killed and its remainder rerouted (kill -> backoff -> respawn).
    if (options.worker_timeout_ms > 0) {
      for (int i = 0; i < nslots; ++i) {
        slot_state& s = slots[static_cast<std::size_t>(i)];
        if (s.running &&
            ms_until(s.last_activity +
                     std::chrono::milliseconds(options.worker_timeout_ms)) <= 0) {
          if (trace != nullptr) {
            trace->instant(
                "inactivity_timeout", 0,
                {obs::trace_arg::num("slot", static_cast<std::int64_t>(i)),
                 obs::trace_arg::num(
                     "timeout_ms",
                     static_cast<std::int64_t>(options.worker_timeout_ms))});
          }
          if (metrics != nullptr) metrics->add("fleet.inactivity_timeouts");
          fail_slot(i, "inactivity timeout");
        }
      }
    }
  }

  if (!leftover.empty()) {
    ensure(static_cast<bool>(inline_fn),
           std::string(what) + ": retry budget exhausted and no inline "
                               "fallback is available");
    std::sort(leftover.begin(), leftover.end(),
              [](const trial_range& a, const trial_range& b) {
                return a.base < b.base;
              });
    if (trace != nullptr) {
      trace->begin("inline_degraded", 0,
                   {obs::trace_arg::num(
                       "chunks", static_cast<std::uint64_t>(leftover.size()))});
    }
    for (const trial_range& range : leftover) {
      for (std::uint64_t t = range.base; t < range.base + range.count; ++t) {
        if (!received[t]) {
          deliver(t, inline_fn(t, seed_gen.fork(t)));
          if (metrics != nullptr) metrics->add("fleet.inline_trials");
        }
      }
    }
    if (trace != nullptr) trace->end("inline_degraded", 0);
  }

  if (options.progress) emit_progress(true);

  ensure(completed == trials,
         std::string(what) + ": a trial result never arrived");
  if (metrics != nullptr) {
    metrics->set("fleet.jobs", jobs);
    metrics->set("fleet.trials", static_cast<std::int64_t>(trials));
    metrics->set("fleet.retries_used", retries_used);
  }
  if (trace != nullptr) trace->end("supervise", 0);
  return results;
}

}  // namespace detail

std::vector<trial_range> opening_deal(std::uint64_t trials, int jobs) {
  const std::deque<trial_range> queue =
      chunk_pending(std::vector<std::uint8_t>(trials, 0), trials, jobs);
  return {queue.begin(), queue.end()};
}

void run_trial_block(trial_range range, int fd, const trial_fn& fn,
                     const rng& seed_gen, const fault_injector& injector) {
  std::uint64_t written = 0;
  for (std::uint64_t t = range.base; t < range.base + range.count; ++t) {
    injector.before_record(fd, written);
    write_trial_record(fd, {t, fn(t, seed_gen.fork(t))});
    ++written;
  }
}

std::vector<election_result> supervised_fleet_run(
    std::uint64_t trials, rng seed_gen, const trial_fn& fn, int jobs,
    const supervise_options& options) {
  const detail::launch_fn launch = [&](int slot, trial_range chunk, bool inject,
                                       const std::vector<int>& open_fds) {
    int fds[2];
    ensure(::pipe(fds) == 0, "supervised_fleet_run: pipe failed");
    const pid_t pid = ::fork();
    ensure(pid >= 0, "supervised_fleet_run: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      for (const int fd : open_fds) ::close(fd);
      ignore_sigpipe();
      int status = 0;
      try {
        const fault_injector injector =
            inject ? fault_injector(options.faults, slot) : fault_injector();
        run_trial_block(chunk, fds[1], fn, seed_gen, injector);
      } catch (const std::exception& e) {
        obs::logf(obs::log_level::error, "fleet worker slot %d: %s", slot,
                  e.what());
        status = 1;
      }
      ::close(fds[1]);
      ::_exit(status);
    }
    ::close(fds[1]);
    return detail::worker_stream{pid, fds[0]};
  };
  return detail::supervise(trials, seed_gen, jobs, options, launch, fn,
                           "supervised_fleet_run");
}

std::vector<election_result> supervised_spawn_sweep(
    const std::string& exe, const std::string& manifest_path,
    const worker_manifest& manifest, const supervise_options& options,
    const trial_fn& inline_fn) {
  // Worker observability rides on env vars, not the manifest (the manifest
  // reader is strict, and sidecar paths are per-(slot, generation) anyway).
  // The parent remembers every sidecar path it handed out so it can merge
  // and unlink them after the sweep, torn tails included.
  const bool sidecars =
      !options.sidecar_dir.empty() &&
      (options.trace != nullptr || options.metrics != nullptr);
  std::vector<int> generation(static_cast<std::size_t>(manifest.jobs), 0);
  std::vector<std::string> trace_sidecars;
  std::vector<std::string> metrics_sidecars;
  const detail::launch_fn launch = [&](int slot, trial_range chunk, bool inject,
                                       const std::vector<int>& open_fds) {
    std::string trace_sidecar;
    std::string metrics_sidecar;
    std::string stride;
    if (sidecars) {
      const int gen = generation[static_cast<std::size_t>(slot)]++;
      const std::string tag =
          "_w" + std::to_string(slot) + "_g" + std::to_string(gen);
      if (options.trace != nullptr) {
        trace_sidecar = options.sidecar_dir + "/trace" + tag + ".jsonl";
        trace_sidecars.push_back(trace_sidecar);
      }
      if (options.metrics != nullptr) {
        metrics_sidecar = options.sidecar_dir + "/metrics" + tag + ".ppm";
        metrics_sidecars.push_back(metrics_sidecar);
      }
      stride = std::to_string(options.probe_stride);
    }
    int fds[2];
    ensure(::pipe(fds) == 0, "supervised_spawn_sweep: pipe failed");
    const pid_t pid = ::fork();
    ensure(pid >= 0, "supervised_spawn_sweep: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      for (const int fd : open_fds) ::close(fd);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      if (!trace_sidecar.empty()) {
        ::setenv("POPSIM_TRACE_SIDECAR", trace_sidecar.c_str(), 1);
      }
      if (!metrics_sidecar.empty()) {
        ::setenv("POPSIM_OBS_SIDECAR", metrics_sidecar.c_str(), 1);
      }
      if (!stride.empty()) {
        ::setenv("POPSIM_PROBE_STRIDE", stride.c_str(), 1);
      }
      const std::string index = std::to_string(slot);
      const std::string base = std::to_string(chunk.base);
      const std::string count = std::to_string(chunk.count);
      const std::string faults = to_string(options.faults);
      if (inject && !faults.empty()) {
        ::execl(exe.c_str(), exe.c_str(), "--worker", manifest_path.c_str(),
                index.c_str(), base.c_str(), count.c_str(), faults.c_str(),
                static_cast<char*>(nullptr));
      } else {
        ::execl(exe.c_str(), exe.c_str(), "--worker", manifest_path.c_str(),
                index.c_str(), base.c_str(), count.c_str(),
                static_cast<char*>(nullptr));
      }
      obs::logf(obs::log_level::error,
                "supervised_spawn_sweep: exec %s failed: %s", exe.c_str(),
                std::strerror(errno));
      ::_exit(127);
    }
    ::close(fds[1]);
    return detail::worker_stream{pid, fds[0]};
  };
  std::vector<election_result> results =
      detail::supervise(manifest.trials, sweep_seed_gen(manifest.seed), manifest.jobs,
                        options, launch, inline_fn, "supervised_spawn_sweep");
  if (options.trace != nullptr) {
    options.trace->begin("sidecar_merge", 0);
    std::size_t merged = 0;
    for (const std::string& path : trace_sidecars) {
      merged += options.trace->merge_sidecar(path);
      ::unlink(path.c_str());
    }
    options.trace->end(
        "sidecar_merge", 0,
        {obs::trace_arg::num("files",
                             static_cast<std::uint64_t>(trace_sidecars.size())),
         obs::trace_arg::num("events", static_cast<std::uint64_t>(merged))});
  }
  if (options.metrics != nullptr) {
    for (const std::string& path : metrics_sidecars) {
      options.metrics->merge_text_file(path);
      ::unlink(path.c_str());
    }
  }
  return results;
}

}  // namespace pp::fleet
