// Compile-time-gated engine probes: per-run phase telemetry with a strict
// zero-cost contract.
//
// Every engine loop (the one step loop behind run_compiled and run_packed,
// run_silent's event loop, the wellmixed batch loop) takes a `Probe`
// template parameter, defaulting to `null_probe`, plus a trailing
// `Probe* probe = nullptr` argument.  Each hook call site is
// guarded with `if constexpr (Probe::enabled)`, so with the default probe
// the instrumentation compiles to nothing — same codegen as before the
// probes existed (bench/obs.cpp gates the disabled path at <= 1% of the
// un-instrumented step rate) — and probes never feed back into the
// simulation: enabling any probe is bit-identical in steps/leader/census
// for a given seed (tests/test_obs.cpp matrix).
//
// What a `run_probe` collects, in the paper's terms (Alistarh–Rybicki–
// Voitovych 2022): elections pass through doubling streaks and then a long
// waiting phase of ~2^h·L *silent* steps per agent — interactions that
// change no state.  The probe splits the step count into silent vs active,
// samples the census trajectory every `stride` steps (the leader-role
// counters, e.g. contenders/minions), and counts stability-predicate
// evaluations, block_rng draws and lazy-table fills.  These are exactly the
// numbers the ROADMAP's event-driven silent-edge scheduler needs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace pp::obs {

// One sampled point of the census trajectory.  `totals` mirrors the
// engine's census accumulator (census_traits<P>::kCounters live entries,
// at most kMaxCensusCounters == 4).
struct census_sample {
  std::uint64_t step = 0;
  int counters = 0;
  std::array<std::int64_t, 4> totals{};
};

// One sampled point of the silent scheduler's active-set trajectory: how
// many of the 2m oriented pairs were non-silent after `step` steps.
struct active_set_sample {
  std::uint64_t step = 0;
  std::uint64_t active_pairs = 0;
};

// One closed fixed-interval window of the run: the streaming form of the
// probe counters.  Window w covers steps [w*len, (w+1)*len) of the step
// counter; boundaries are crossed deterministically (engines report steps
// per-step or per-batch at seed-determined points), so the sequence of
// closed windows is bit-identical across reruns of the same seed.  A batch
// that spans a boundary is attributed to the window in which it completes,
// so `steps` may exceed the nominal length on batch engines.
//
// This is the input of the ROADMAP's auto-dispatch crossover rule
// (1 - f)·d̄ < 1: `silent_fraction()` is the per-window f.
struct probe_window {
  std::uint64_t index = 0;         // ordinal of the window (0-based)
  std::uint64_t steps = 0;         // steps attributed to this window
  std::uint64_t active_steps = 0;  // of those, steps that changed state
  std::uint64_t census_moves = 0;  // sum |Δtotal| over census samples seen
  std::uint64_t active_pairs = 0;  // last active-set sample (0 if none yet)
  // Wall clock at window close (steady, ns since the probe was built).
  // Deliberately excluded from operator==: it is the only
  // non-deterministic field, present for live rate/ETA display only.
  std::uint64_t wall_ns = 0;

  double silent_fraction() const {
    return steps == 0
               ? 0.0
               : static_cast<double>(steps - active_steps) /
                     static_cast<double>(steps);
  }

  friend bool operator==(const probe_window& a, const probe_window& b) {
    return a.index == b.index && a.steps == b.steps &&
           a.active_steps == b.active_steps &&
           a.census_moves == b.census_moves &&
           a.active_pairs == b.active_pairs;  // wall_ns excluded by design
  }
  friend bool operator!=(const probe_window& a, const probe_window& b) {
    return !(a == b);
  }
};

struct probe_stats {
  std::uint64_t steps = 0;            // interactions simulated
  std::uint64_t active_steps = 0;     // steps that changed some state
  std::uint64_t predicate_evals = 0;  // stability-predicate evaluations
  std::uint64_t rng_draws = 0;        // uniform draws consumed
  std::uint64_t table_fills = 0;      // lazy pair-transition compilations
  std::uint64_t batches = 0;          // wellmixed batches applied
  std::uint64_t batch_retries = 0;    // wellmixed half-B retries
  std::vector<census_sample> census;  // sampled trajectory, step-ascending
  // Active-pair trajectory (silent scheduler only), step-ascending.
  std::vector<active_set_sample> active_sets;
  // Ring of the most recent closed windows (window_len != 0 only),
  // index-ascending.  Bounded at run_probe::kMaxWindows: the oldest window
  // is dropped when a new one closes, so arbitrarily long runs keep a
  // recent-history ring instead of growing without bound.
  std::vector<probe_window> windows;
  std::uint64_t windows_closed = 0;  // total closed, including dropped ones

  std::uint64_t silent_steps() const { return steps - active_steps; }
};

// The disabled probe: `enabled == false` makes every hook site an
// `if constexpr` dead branch.  The hook bodies still exist (and no-op) so
// generic code may also call them unconditionally if it prefers.
struct null_probe {
  static constexpr bool enabled = false;

  void on_step(bool) {}
  void on_steps(std::uint64_t, std::uint64_t) {}
  void on_predicate_evals(std::uint64_t) {}
  void on_draws(std::uint64_t) {}
  void on_table_fills(std::uint64_t) {}
  void on_batch() {}
  void on_batch_retry() {}
  bool want_census(std::uint64_t) const { return false; }
  void on_census(std::uint64_t, const std::int64_t*, int) {}
  bool want_active_set(std::uint64_t) const { return false; }
  void on_active_set(std::uint64_t, std::uint64_t) {}
};

// The full probe.  `stride` controls census sampling: a sample is recorded
// the first time the step counter reaches or passes each multiple of
// stride (so per-step engines sample exactly at multiples, batch engines
// at the first step past each).  stride == 0 disables sampling but keeps
// the counters.  The sample vector is capped: on reaching kMaxSamples the
// probe deterministically thins to every other sample and doubles the
// stride, preserving a bounded, evenly spaced trajectory on runs of any
// length.
//
// `window_len` (0 = off) additionally closes a probe_window every time the
// step counter crosses a multiple of window_len, accumulating into a
// bounded ring (stats().windows).  Window boundaries live purely on the
// deterministic step counter — never on the clock — so the ring is
// bit-identical across reruns; only probe_window::wall_ns (stamped at
// close, excluded from comparison) sees the clock, one read per window.
class run_probe {
 public:
  static constexpr bool enabled = true;
  static constexpr std::size_t kMaxSamples = 4096;
  static constexpr std::size_t kMaxWindows = 4096;
  static constexpr std::uint64_t kDefaultStride = 1024;

  explicit run_probe(std::uint64_t stride = kDefaultStride,
                     std::uint64_t window_len = 0)
      : stride_(stride), next_(stride), active_stride_(stride),
        active_next_(stride), window_len_(window_len),
        window_next_(window_len),
        epoch_(std::chrono::steady_clock::now()) {}

  void on_step(bool active) {
    ++stats_.steps;
    stats_.active_steps += active ? 1u : 0u;
    if (window_len_ != 0 && stats_.steps >= window_next_) roll_windows();
  }
  void on_steps(std::uint64_t steps, std::uint64_t active) {
    stats_.steps += steps;
    stats_.active_steps += active;
    if (window_len_ != 0 && stats_.steps >= window_next_) roll_windows();
  }
  void on_predicate_evals(std::uint64_t n) { stats_.predicate_evals += n; }
  void on_draws(std::uint64_t n) { stats_.rng_draws += n; }
  void on_table_fills(std::uint64_t n) { stats_.table_fills += n; }
  void on_batch() { ++stats_.batches; }
  void on_batch_retry() { ++stats_.batch_retries; }

  bool want_census(std::uint64_t step) const {
    return stride_ != 0 && step >= next_;
  }
  void on_census(std::uint64_t step, const std::int64_t* totals,
                 int counters) {
    census_sample sample;
    sample.step = step;
    sample.counters = counters;
    for (int i = 0; i < counters && i < 4; ++i) sample.totals[i] = totals[i];
    if (window_len_ != 0) {
      // Census-change mass: L1 distance between consecutive census samples,
      // charged to the window that observes the later sample.
      if (have_last_census_) {
        std::uint64_t moved = 0;
        for (int i = 0; i < counters && i < 4; ++i) {
          std::int64_t d = sample.totals[i] - last_census_.totals[i];
          moved += static_cast<std::uint64_t>(d < 0 ? -d : d);
        }
        win_census_moves_ += moved;
      }
      last_census_ = sample;
      have_last_census_ = true;
    }
    stats_.census.push_back(sample);
    next_ = step - step % stride_ + stride_;
    if (stats_.census.size() >= kMaxSamples) thin();
  }

  // The active-set trajectory rides the same stride/thinning discipline as
  // the census samples, on its own crossing counter (a silent run may jump
  // many strides at once; one sample per advance is recorded).
  bool want_active_set(std::uint64_t step) const {
    return active_stride_ != 0 && step >= active_next_;
  }
  void on_active_set(std::uint64_t step, std::uint64_t active_pairs) {
    stats_.active_sets.push_back({step, active_pairs});
    if (window_len_ != 0) win_active_pairs_ = active_pairs;
    active_next_ = step - step % active_stride_ + active_stride_;
    if (stats_.active_sets.size() >= kMaxSamples) thin_active();
  }

  // Closes the trailing partial window, if any steps accumulated since the
  // last boundary.  Call once after the run completes; window boundaries
  // proper never depend on it.
  void finish() {
    if (window_len_ != 0 && stats_.steps > window_closed_steps_) {
      close_window();
    }
  }

  std::uint64_t stride() const { return stride_; }
  std::uint64_t window_len() const { return window_len_; }
  const probe_stats& stats() const { return stats_; }
  const std::vector<probe_window>& windows() const { return stats_.windows; }

  void reset() {
    stats_ = probe_stats{};
    next_ = stride_;
    active_stride_ = stride_;
    active_next_ = stride_;
    window_next_ = window_len_;
    window_index_ = 0;
    window_closed_steps_ = 0;
    window_closed_active_ = 0;
    win_census_moves_ = 0;
    win_active_pairs_ = 0;
    have_last_census_ = false;
    epoch_ = std::chrono::steady_clock::now();
  }

 private:
  // Close every window boundary the step counter has crossed.  The first
  // window closed takes all steps accumulated since the previous close;
  // when a batch jumps several boundaries at once the overshot windows
  // close empty (the batch is attributed where it completed).
  void roll_windows() {
    do {
      close_window();
    } while (stats_.steps >= window_next_);
  }

  void close_window() {
    probe_window w;
    w.index = window_index_++;
    w.steps = stats_.steps - window_closed_steps_;
    w.active_steps = stats_.active_steps - window_closed_active_;
    w.census_moves = win_census_moves_;
    w.active_pairs = win_active_pairs_;
    w.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
    window_closed_steps_ = stats_.steps;
    window_closed_active_ = stats_.active_steps;
    win_census_moves_ = 0;
    if (stats_.windows.size() >= kMaxWindows) {
      stats_.windows.erase(stats_.windows.begin());
    }
    stats_.windows.push_back(w);
    ++stats_.windows_closed;
    window_next_ = window_index_ * window_len_ + window_len_;
  }

  void thin() {
    std::size_t kept = 0;
    for (std::size_t i = 1; i < stats_.census.size(); i += 2) {
      stats_.census[kept++] = stats_.census[i];
    }
    stats_.census.resize(kept);
    stride_ *= 2;
    next_ = next_ - next_ % stride_ + stride_;
  }

  void thin_active() {
    std::size_t kept = 0;
    for (std::size_t i = 1; i < stats_.active_sets.size(); i += 2) {
      stats_.active_sets[kept++] = stats_.active_sets[i];
    }
    stats_.active_sets.resize(kept);
    active_stride_ *= 2;
    active_next_ = active_next_ - active_next_ % active_stride_ + active_stride_;
  }

  probe_stats stats_;
  std::uint64_t stride_ = kDefaultStride;
  std::uint64_t next_ = kDefaultStride;
  std::uint64_t active_stride_ = kDefaultStride;
  std::uint64_t active_next_ = kDefaultStride;
  // Window ring state (window_len_ == 0 disables all of it).
  std::uint64_t window_len_ = 0;
  std::uint64_t window_next_ = 0;       // step count that closes the window
  std::uint64_t window_index_ = 0;      // ordinal of the open window
  std::uint64_t window_closed_steps_ = 0;   // steps already attributed
  std::uint64_t window_closed_active_ = 0;  // active steps already attributed
  std::uint64_t win_census_moves_ = 0;  // census mass in the open window
  std::uint64_t win_active_pairs_ = 0;  // last active-set sample seen
  census_sample last_census_{};
  bool have_last_census_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace pp::obs
