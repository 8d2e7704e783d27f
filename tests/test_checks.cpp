// expects/ensure (support/expects.h): a passing check never allocates, a
// failing one throws its exception type with the caller's message; and the
// per-draw and per-entry paths that call the checks (rng draws, tuned_runner
// setup, artifact load and validate) allocate O(|Λ|) times, not per call.
//
// This binary replaces the global operator new/delete with a counting
// malloc/free pair, so every heap allocation in the process, and its bytes,
// is counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "core/fast_election.h"
#include "engine/engine.h"
#include "fleet/artifact.h"
#include "graph/generators.h"
#include "support/expects.h"
#include "support/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined into a caller, free() on a pointer the caller got
// from operator new reads to GCC as a mismatched allocation pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pp {
namespace {

// Heap allocations made while `body` runs.
template <typename Body>
std::uint64_t allocations_in(Body&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Heap bytes requested while `body` runs (frees are not subtracted).
template <typename Body>
std::uint64_t bytes_in(Body&& body) {
  const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  body();
  return g_allocated_bytes.load(std::memory_order_relaxed) - before;
}

constexpr int kCalls = 100000;

TEST(Checks, PassingChecksDoNotAllocate) {
  volatile bool holds = true;  // read per call: the checks cannot fold away
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < kCalls; ++i) {
                expects(holds, "expects: a message well over fifteen characters");
              }
            }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < kCalls; ++i) {
                ensure(holds, "ensure: a message well over fifteen characters");
              }
            }),
            0u);
}

TEST(Checks, FailingChecksThrowTheirTypeAndMessage) {
  const std::string built = "expects: built at the call site, n = " + std::to_string(42);
  try {
    expects(false, "expects: a literal message");
    FAIL() << "expects(false) returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "expects: a literal message");
  }
  try {
    expects(false, built);
    FAIL() << "expects(false) returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), built);
  }
  // std::invalid_argument derives from std::logic_error, so pin the exact
  // dynamic type of ensure's exception.
  try {
    ensure(false, "ensure: a literal message");
    FAIL() << "ensure(false) returned";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(typeid(e), typeid(std::logic_error));
    EXPECT_STREQ(e.what(), "ensure: a literal message");
  }
  try {
    ensure(false, "ensure: built at the call site, n = " + std::to_string(7));
    FAIL() << "ensure(false) returned";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(typeid(e), typeid(std::logic_error));
    EXPECT_STREQ(e.what(), "ensure: built at the call site, n = 7");
  }
}

TEST(Checks, RngDrawsDoNotAllocate) {
  rng gen(5);
  std::uint64_t sink = 0;
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < kCalls; ++i) sink += gen.uniform_below(977);
            }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < kCalls; ++i) sink += gen.geometric(0.01);
            }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < kCalls; ++i) sink += gen.bernoulli(0.3) ? 1 : 0;
            }),
            0u);
  EXPECT_GT(sink, 0u);
}

// Setup allocates per state (interning, table growth), never per table entry.
TEST(Checks, TunedSetupAndArtifactAllocateNotPerEntry) {
  rng gen(3);
  const graph g = make_random_regular(1000, 8, gen);
  const fast_params params{4, 8, 32};
  const fast_protocol proto(params);

  std::optional<tuned_runner<fast_protocol>> runner;
  const std::uint64_t setup = allocations_in([&] { runner.emplace(proto, g); });
  ASSERT_TRUE(runner->packed());
  const std::uint64_t states = runner->compiled().num_states();
  EXPECT_EQ(states, 241u);
  EXPECT_LT(setup, 4 * states + 256);

  const auto bytes =
      fleet::artifact_bytes(fleet::make_tuned_artifact(*runner, g, "rr8", fleet::fast_desc(params)));
  std::optional<fleet::sweep_artifact> parsed;
  EXPECT_LT(allocations_in([&] { parsed.emplace(bytes); }), 64u);
  EXPECT_TRUE(fleet::artifact_bytes(*parsed) == bytes);
  EXPECT_LT(allocations_in([&] { fleet::validate_tuned_artifact(*parsed, *runner); }),
            64u);
}

// No process holds a second copy of the runner's tables: save writes them
// from the runner through a fixed stage, loading reads the file in chunks
// and keeps only the small sections, and opening it rebuilds the runner and
// compares the stored sections with it chunk by chunk.  At rr8 n = 1000
// with popsim's resolved fast params the file is ~20 MB, so a whole-file
// buffer or a copy of TABL or PACK on any path breaks its bound.
TEST(Checks, ArtifactSaveValidateAndLoadAllocateWithinTheirBounds) {
  rng gen(3);
  const graph g = make_random_regular(1000, 8, gen);
  const fast_params params{7, 20, 80};  // fast_params::practical at seed 1
  const fast_protocol proto(params);
  const tuned_runner<fast_protocol> runner(proto, g);
  const std::string path = testing::TempDir() + "/checks_artifact.ppaf";

  const std::uint64_t save = bytes_in([&] {
    fleet::save_artifact(fleet::make_tuned_artifact(runner, g, "rr8", fleet::fast_desc(params)),
                         path);
  });
  EXPECT_LT(save, std::uint64_t{1} << 20);

  std::optional<fleet::sweep_artifact> loaded;
  const std::uint64_t load = bytes_in([&] { loaded.emplace(fleet::load_artifact(path)); });
  EXPECT_LT(load, std::uint64_t{1} << 20);

  // What an open must build anyway: the graph from its section, and the
  // runner over it.
  const std::uint64_t rebuild = bytes_in([&] {
    const graph rebuilt = fleet::rebuild_graph(*loaded->graph);
    const tuned_runner<fast_protocol> again(proto, rebuilt);
  });
  bool opened = false;
  const std::uint64_t open = bytes_in([&] {
    fleet::open_sweep(path, [&]<typename S>(const std::shared_ptr<const S>&) {
      opened = S::engine == fleet::artifact_engine::tuned;
    });
  });
  ASSERT_TRUE(opened);
  EXPECT_LE(open, rebuild + (std::uint64_t{1} << 20));

  const std::uint64_t validate =
      bytes_in([&] { fleet::validate_tuned_artifact(*loaded, runner); });
  EXPECT_LT(validate, std::uint64_t{64} << 10);
  const std::uint64_t file = fleet::artifact_bytes(*loaded).size();
  EXPECT_GT(file, std::uint64_t{16} << 20);
  std::printf(
      "file %llu B: save %llu B, load %llu B, open %llu B (graph + runner %llu B), "
      "validate %llu B\n",
      static_cast<unsigned long long>(file), static_cast<unsigned long long>(save),
      static_cast<unsigned long long>(load), static_cast<unsigned long long>(open),
      static_cast<unsigned long long>(rebuild), static_cast<unsigned long long>(validate));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pp
