#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "engine/block_rng.h"

namespace pp {
namespace {

TEST(Rng, SameSeedSameStream) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkIsDeterministic) {
  rng base(7);
  rng f1 = base.fork(3);
  rng f2 = rng(7).fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f1(), f2());
}

TEST(Rng, ForksAreDistinctStreams) {
  rng base(7);
  rng f1 = base.fork(0);
  rng f2 = base.fork(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (f1() == f2()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkDiffersFromParent) {
  rng base(9);
  rng forked = base.fork(0);
  rng parent(9);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent() == forked()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformBelowInRange) {
  rng gen(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.uniform_below(17), 17u);
  }
}

TEST(Rng, UniformBelowOneIsZero) {
  rng gen(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.uniform_below(1), 0u);
}

TEST(Rng, UniformBelowRejectsZeroBound) {
  rng gen(3);
  EXPECT_THROW(gen.uniform_below(0), std::invalid_argument);
}

TEST(Rng, UniformBelowIsApproximatelyUniform) {
  rng gen(11);
  const int buckets = 10;
  const int draws = 100000;
  std::vector<int> count(buckets, 0);
  for (int i = 0; i < draws; ++i) {
    ++count[gen.uniform_below(buckets)];
  }
  // Chi-square with 9 dof: 99.9th percentile ~ 27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(draws) / buckets;
  for (const int c : count) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 30.0);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  rng gen(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, Uniform01InUnitInterval) {
  rng gen(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  rng gen(17);
  double total = 0.0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) total += gen.uniform01();
  EXPECT_NEAR(total / draws, 0.5, 0.005);
}

TEST(Rng, BernoulliMatchesProbability) {
  rng gen(19);
  const int draws = 100000;
  int hits = 0;
  for (int i = 0; i < draws; ++i) {
    if (gen.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  rng gen(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(gen.bernoulli(0.0));
    EXPECT_TRUE(gen.bernoulli(1.0));
  }
}

TEST(Rng, GeometricMeanMatches) {
  rng gen(23);
  const double p = 0.05;
  const int draws = 100000;
  double total = 0.0;
  for (int i = 0; i < draws; ++i) total += static_cast<double>(gen.geometric(p));
  EXPECT_NEAR(total / draws, 1.0 / p, 0.4);
}

TEST(Rng, GeometricSupportsOne) {
  rng gen(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(gen.geometric(0.9), 1u);
}

TEST(Rng, GeometricPOneIsAlwaysOne) {
  rng gen(31);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.geometric(1.0), 1u);
}

TEST(Rng, GeometricTailDecays) {
  rng gen(37);
  const double p = 0.5;
  const int draws = 100000;
  int above_10 = 0;
  for (int i = 0; i < draws; ++i) {
    if (gen.geometric(p) > 10) ++above_10;
  }
  // P[G > 10] = 2^-10 ~ 1e-3.
  EXPECT_NEAR(static_cast<double>(above_10) / draws, std::pow(0.5, 10), 5e-4);
}

TEST(Rng, GeometricRejectsInvalidP) {
  rng gen(41);
  EXPECT_THROW(gen.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(gen.geometric(1.5), std::invalid_argument);
  EXPECT_THROW(gen.geometric(-0.1), std::invalid_argument);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- block_rng
//
// The engine's bit-identical-to-reference guarantee rests on block_rng
// replicating rng::uniform_below draw-for-draw, so the edge cases of the
// shared Lemire kernel get dedicated coverage here: degenerate bound 1,
// non-power-of-two bounds (nonzero rejection threshold), bounds near 2^63
// (threshold close to bound, rejections frequent), and streams that cross
// the 1024-word refill boundary.

TEST(BlockRng, BoundOneIsAlwaysZero) {
  rng reference(71);
  block_rng buffered(rng(71));
  // 3000 draws cross two refill boundaries; bound 1 consumes one raw draw
  // each, exactly like rng::uniform_below.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_EQ(buffered.uniform_below(1), 0u);
    ASSERT_EQ(reference.uniform_below(1), 0u);
  }
  // The two generators consumed the same number of raw draws.
  EXPECT_EQ(reference(), buffered.next());
}

TEST(BlockRng, NonPowerOfTwoBoundsMatchRng) {
  rng reference(72);
  block_rng buffered(rng(72));
  const std::uint64_t bounds[] = {3, 5, 7, 10, 1000003, 6700417, (1ull << 40) - 27};
  for (int round = 0; round < 2000; ++round) {
    for (const std::uint64_t bound : bounds) {
      ASSERT_EQ(reference.uniform_below(bound), buffered.uniform_below(bound));
    }
  }
}

TEST(BlockRng, HugeBoundsNearTwoToSixtyThree) {
  // For bound > 2^63 the Lemire rejection threshold (2^64 mod bound) is
  // bound-sized, so nearly half of all raw draws are rejected — the loop
  // actually exercises its retry path here.
  rng reference(73);
  block_rng buffered(rng(73));
  const std::uint64_t bounds[] = {(1ull << 63) - 1, (1ull << 63) + 1,
                                  (1ull << 63) + (1ull << 62),
                                  UINT64_MAX - 1, UINT64_MAX};
  for (int round = 0; round < 2000; ++round) {
    for (const std::uint64_t bound : bounds) {
      const std::uint64_t expected = reference.uniform_below(bound);
      ASSERT_EQ(expected, buffered.uniform_below(bound));
      ASSERT_LT(expected, bound);
    }
  }
}

TEST(BlockRng, EquivalenceAcrossBlockBoundaries) {
  // Mixed bound sizes for > 3 * 1024 raw draws: every refill boundary is
  // crossed mid-rejection-loop at some point, and the streams must still
  // agree draw-for-draw.
  rng reference(74);
  block_rng buffered(rng(74));
  std::uint64_t mix = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 5000; ++i) {
    mix ^= mix << 13;
    mix ^= mix >> 7;
    mix ^= mix << 17;
    const std::uint64_t bound = (mix % 3 == 0) ? (1ull << 63) + (mix >> 3)
                                : (mix % 3 == 1) ? (mix % 97) + 1
                                                 : (mix % 1000003) + 1;
    ASSERT_EQ(reference.uniform_below(bound), buffered.uniform_below(bound))
        << "diverged at draw " << i << " with bound " << bound;
  }
}

TEST(BlockRng, Uniform01MirrorsRng) {
  rng reference(75);
  block_rng buffered(rng(75));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_DOUBLE_EQ(reference.uniform01(), buffered.uniform01());
  }
}

TEST(Rng, HoistedLogQMatchesGeometric) {
  // A caller that computes geometric_log_q(p) once and inverts uniform01
  // draws with it (binomial_inversion, make_erdos_renyi, the broadcast
  // kernel's table) must get rng::geometric's values draw for draw.
  for (const double p : {1e-9, 0.001, 0.125, 0.5, 0.999}) {
    rng reference(77);
    rng hoisted(77);
    const double log_q = geometric_log_q(p);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(reference.geometric(p), geometric_inversion(hoisted.uniform01(), log_q))
          << "p=" << p << " draw " << i;
    }
  }
}

TEST(BlockRng, GeometricMirrorsRng) {
  rng reference(76);
  block_rng buffered(rng(76));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_EQ(reference.geometric(0.125), buffered.geometric(0.125));
  }
  EXPECT_THROW(buffered.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(buffered.geometric(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace pp
