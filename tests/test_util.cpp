#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace dlsched {
namespace {

// ---------------------------------------------------------------- error --

TEST(Error, CarriesLocationAndMessage) {
  try {
    DLSCHED_FAIL("boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    // The message alone: it ends up on users' one-line `error:` output.
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_NE(std::string(e.file()).find("test_util.cpp"), std::string::npos);
    EXPECT_GT(e.line(), 0);
  }
}

TEST(Error, ExpectPassesOnTrue) {
  EXPECT_NO_THROW(DLSCHED_EXPECT(1 + 1 == 2, "arithmetic"));
}

TEST(Error, ExpectThrowsOnFalse) {
  EXPECT_THROW(DLSCHED_EXPECT(1 + 1 == 3, "arithmetic"), Error);
}

// ---------------------------------------------------------------- stats --

TEST(Stats, MeanOfKnownSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, StdevOfConstantSampleIsZero) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(stdev(xs), 0.0);
}

TEST(Stats, StdevMatchesHandComputation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(stdev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, SummaryAggregatesEverything) {
  const std::vector<double> xs{1.0, 5.0, 3.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> xs{1.0, 4.0};
  EXPECT_NEAR(geometric_mean(xs), 2.0, 1e-12);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  EXPECT_THROW((void)geometric_mean(std::vector<double>{1.0, 0.0}), Error);
}

TEST(Stats, AccumulatorMatchesBatch) {
  const std::vector<double> xs{0.5, 1.5, 2.5, -1.0, 7.0};
  Accumulator acc;
  for (double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(acc.stdev(), stdev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.0);
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo |= x == 1;
    saw_hi |= x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NoiseFactorRespectsFloor) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.noise_factor(10.0, 0.25), 0.25);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  const auto perm = rng.permutation(20);
  std::vector<bool> seen(20, false);
  for (std::size_t v : perm) {
    ASSERT_LT(v, 20u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, ForkSeedsDiffer) {
  Rng rng(13);
  EXPECT_NE(rng.fork_seed(), rng.fork_seed());
}

// ---------------------------------------------------------------- table --

TEST(Table, AlignedOutputContainsHeaderAndCells) {
  Table t({"a", "bb"});
  t.begin_row().cell(std::string("x")).cell(1.5);
  std::ostringstream out;
  t.print_aligned(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("bb"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"v"});
  t.begin_row().cell(std::string("a,b\"c"));
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_NE(out.str().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, IncompleteRowIsRejected) {
  Table t({"a", "b"});
  t.begin_row().cell(std::string("only one"));
  std::ostringstream out;
  EXPECT_THROW(t.print_aligned(out), Error);
}

TEST(Table, OverfullRowIsRejected) {
  Table t({"a"});
  t.begin_row().cell(std::string("one"));
  EXPECT_THROW(t.cell(std::string("two")), Error);
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.50, 4), "1.5");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(-0.0, 4), "0");
  EXPECT_EQ(format_double(0.125, 6), "0.125");
}

// ----------------------------------------------------------- string_util --

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, TrimStripsWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("alpha_P1", "alpha_"));
  EXPECT_FALSE(starts_with("x_P1", "alpha_"));
}

TEST(StringUtil, FormatBytesPicksUnits) {
  EXPECT_EQ(format_bytes(512.0), "512 B");
  EXPECT_EQ(format_bytes(2048.0), "2 KiB");
  EXPECT_EQ(format_bytes(1.5 * 1024 * 1024), "1.5 MiB");
}

TEST(StringUtil, FormatSecondsPicksUnits) {
  EXPECT_EQ(format_seconds(2.0), "2 s");
  EXPECT_EQ(format_seconds(0.002), "2 ms");
  EXPECT_EQ(format_seconds(2e-6), "2 us");
  EXPECT_EQ(format_seconds(3e-9), "3 ns");
}

// ------------------------------------------------------------- parallel --

TEST(ParallelFor, RunsEveryIndexExactlyOnceForAnyThreadCount) {
  for (const std::size_t threads : {0u, 1u, 3u, 64u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for(hits.size(), threads,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
  parallel_for(0, 4, [](std::size_t) { ADD_FAILURE() << "empty range ran"; });
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  // A one-element range never needs a second thread either.
  parallel_for(1, 8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelFor, AThrowingBodyStopsThePoolAndRethrowsAfterTheJoin) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::atomic<int> running{0};
    std::atomic<std::size_t> started{0};
    try {
      parallel_for(1000, threads, [&](std::size_t i) {
        started.fetch_add(1);
        if (i == 2) throw std::runtime_error("body 2");
        running.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        running.fetch_sub(1);
      });
      ADD_FAILURE() << "expected the body's exception, threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "body 2");
    }
    EXPECT_EQ(running.load(), 0) << "a body outlived the call";
    EXPECT_LT(started.load(), 100u) << "the pool kept claiming indices";
  }
}

TEST(ParallelFor, OneOfManyExceptionsPropagates) {
  std::atomic<std::size_t> thrown{0};
  EXPECT_THROW(parallel_for(64, 4,
                            [&](std::size_t) {
                              thrown.fetch_add(1);
                              throw std::logic_error("every body throws");
                            }),
               std::logic_error);
  EXPECT_GE(thrown.load(), 1u);
  EXPECT_LE(thrown.load(), 4u);  // one claim per thread, then the pool stops
}

}  // namespace
}  // namespace dlsched
