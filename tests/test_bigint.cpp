#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>

#include "numeric/bigint.hpp"
#include "numeric/limb_arena.hpp"
#include "util/error.hpp"

namespace dlsched::numeric {
namespace {

BigInt big(const char* s) { return BigInt::from_string(s); }

// ---------------------------------------------------------- construction --

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
}

TEST(BigInt, FromInt64RoundTrips) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{123456789}, std::int64_t{-987654321},
                         INT64_MAX, INT64_MIN}) {
    const BigInt x(v);
    EXPECT_TRUE(x.fits_int64());
    EXPECT_EQ(x.to_int64(), v) << v;
    EXPECT_EQ(x.to_string(), std::to_string(v)) << v;
  }
}

TEST(BigInt, FromStringRoundTrips) {
  for (const char* s :
       {"0", "1", "-1", "4294967296", "18446744073709551616",
        "-340282366920938463463374607431768211456",
        "99999999999999999999999999999999999999999999999999"}) {
    EXPECT_EQ(big(s).to_string(), s) << s;
  }
}

TEST(BigInt, FromStringAcceptsPlusSign) {
  EXPECT_EQ(big("+42").to_int64(), 42);
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW(big(""), dlsched::Error);
  EXPECT_THROW(big("-"), dlsched::Error);
  EXPECT_THROW(big("12a3"), dlsched::Error);
  EXPECT_THROW(big("1.5"), dlsched::Error);
}

// ------------------------------------------------------------ comparison --

TEST(BigInt, CompareOrdersBySignThenMagnitude) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(7), BigInt(7));
  EXPECT_GT(big("18446744073709551616"), big("18446744073709551615"));
}

// ------------------------------------------------------------ arithmetic --

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  EXPECT_EQ((big("4294967295") + BigInt(1)).to_string(), "4294967296");
  EXPECT_EQ((big("18446744073709551615") + BigInt(1)).to_string(),
            "18446744073709551616");
}

TEST(BigInt, MixedSignAddition) {
  EXPECT_EQ((BigInt(5) + BigInt(-8)).to_int64(), -3);
  EXPECT_EQ((BigInt(-5) + BigInt(8)).to_int64(), 3);
  EXPECT_EQ((BigInt(-5) + BigInt(5)).to_int64(), 0);
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  EXPECT_EQ((big("4294967296") - BigInt(1)).to_string(), "4294967295");
  EXPECT_EQ((BigInt(3) - BigInt(10)).to_int64(), -7);
}

TEST(BigInt, MultiplicationKnownValues) {
  EXPECT_EQ((big("123456789") * big("987654321")).to_string(),
            "121932631112635269");
  EXPECT_EQ((big("-123456789") * big("987654321")).to_string(),
            "-121932631112635269");
  EXPECT_TRUE((BigInt(0) * big("987654321")).is_zero());
}

TEST(BigInt, MultiplicationLargeSquare) {
  // (10^20)^2 = 10^40.
  const BigInt x = BigInt(10).pow(20);
  EXPECT_EQ((x * x).to_string(), BigInt(10).pow(40).to_string());
}

TEST(BigInt, DivisionKnownValues) {
  EXPECT_EQ((big("121932631112635269") / big("987654321")).to_string(),
            "123456789");
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_int64(), -3);  // truncation
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_int64(), -1);  // sign of dividend
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), dlsched::Error);
  EXPECT_THROW(BigInt(1) % BigInt(0), dlsched::Error);
}

TEST(BigInt, DivisionSmallerNumerator) {
  EXPECT_TRUE((BigInt(3) / BigInt(10)).is_zero());
  EXPECT_EQ((BigInt(3) % BigInt(10)).to_int64(), 3);
}

TEST(BigInt, KnuthD6AddBackCase) {
  // Constructed to trigger the rare add-back branch of Algorithm D:
  // u = 2^96 - 2^64, v = 2^64 + 3 forces a one-too-big quotient estimate.
  const BigInt u = (BigInt(1) << 96) - (BigInt(1) << 64);
  const BigInt v = (BigInt(1) << 64) + BigInt(3);
  BigInt q;
  BigInt r;
  BigInt::divmod(u, v, q, r);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
  EXPECT_GE(r, BigInt(0));
}

// ---------------------------------------------------------------- shifts --

TEST(BigInt, ShiftLeftMatchesPow2Multiplication) {
  const BigInt x = big("123456789123456789");
  for (std::size_t bits : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(x << bits, x * BigInt(2).pow(bits)) << bits;
  }
}

TEST(BigInt, ShiftRightMatchesPow2Division) {
  const BigInt x = big("123456789123456789123456789");
  for (std::size_t bits : {1u, 31u, 32u, 33u, 64u}) {
    EXPECT_EQ(x >> bits, x / BigInt(2).pow(bits)) << bits;
  }
}

TEST(BigInt, ShiftRightBeyondWidthGivesZero) {
  EXPECT_TRUE((BigInt(5) >> 64).is_zero());
}

// ---------------------------------------------------------------- others --

TEST(BigInt, GcdKnownValues) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(big("1000000007"), big("998244353")).to_int64(), 1);
}

TEST(BigInt, PowKnownValues) {
  EXPECT_EQ(BigInt(2).pow(10).to_int64(), 1024);
  EXPECT_EQ(BigInt(10).pow(0).to_int64(), 1);
  EXPECT_EQ(BigInt(-2).pow(3).to_int64(), -8);
  EXPECT_EQ(BigInt(-2).pow(4).to_int64(), 16);
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ((BigInt(1) << 100).bit_length(), 101u);
}

TEST(BigInt, ToDoubleApproximatesLargeValues) {
  EXPECT_DOUBLE_EQ(BigInt(1234567).to_double(), 1234567.0);
  EXPECT_DOUBLE_EQ(BigInt(-42).to_double(), -42.0);
  const double huge = (BigInt(1) << 200).to_double();
  EXPECT_NEAR(huge, std::ldexp(1.0, 200), std::ldexp(1.0, 150));
}

TEST(BigInt, FitsInt64Boundaries) {
  EXPECT_TRUE(BigInt(INT64_MAX).fits_int64());
  EXPECT_TRUE(BigInt(INT64_MIN).fits_int64());
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).fits_int64());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).fits_int64());
  EXPECT_THROW((void)(BigInt(INT64_MAX) + BigInt(1)).to_int64(),
               dlsched::Error);
}

// ------------------------------------- small-value inline representation --

TEST(BigIntSmall, BoundaryAtTwoPow62) {
  const std::int64_t limit = std::int64_t{1} << 62;
  EXPECT_TRUE(BigInt(limit - 1).is_inline());
  EXPECT_TRUE(BigInt(-(limit - 1)).is_inline());
  EXPECT_FALSE(BigInt(limit).is_inline());
  EXPECT_FALSE(BigInt(-limit).is_inline());
  EXPECT_FALSE(BigInt(INT64_MAX).is_inline());
  EXPECT_FALSE(BigInt(INT64_MIN).is_inline());
  // Values are unaffected by which side of the boundary they live on.
  EXPECT_EQ(BigInt(limit - 1).to_int64(), limit - 1);
  EXPECT_EQ(BigInt(limit).to_int64(), limit);
  EXPECT_EQ(BigInt(-limit).to_int64(), -limit);
}

TEST(BigIntSmall, AdditionPromotesAcrossTheBoundary) {
  const BigInt almost((std::int64_t{1} << 62) - 1);
  const BigInt crossed = almost + BigInt(1);
  EXPECT_FALSE(crossed.is_inline());
  EXPECT_EQ(crossed.to_string(), "4611686018427387904");  // 2^62
  // ... and shrinks back once the value re-enters the inline range.
  const BigInt back = crossed - BigInt(1);
  EXPECT_TRUE(back.is_inline());
  EXPECT_EQ(back, almost);
  EXPECT_EQ(crossed + crossed, BigInt(std::int64_t{1} << 62) * BigInt(2));
}

TEST(BigIntSmall, MultiplicationPromotesOnOverflow) {
  const std::uint64_t raw = (std::uint64_t{1} << 31) + 12345;
  const BigInt a(static_cast<std::int64_t>(raw));
  const BigInt product = a * a;  // just past 2^62: leaves the inline range
  EXPECT_FALSE(product.is_inline());
  EXPECT_EQ(product.to_string(), std::to_string(raw * raw));  // < 2^64
  EXPECT_EQ(product / a, a);
  EXPECT_EQ((-a) * a, -product);
}

TEST(BigIntSmall, MixedSmallTimesLargeMultiply) {
  const BigInt small(123456789);
  const BigInt large = big("340282366920938463463374607431768211456");  // 2^128
  EXPECT_FALSE(large.is_inline());
  const BigInt product = small * large;
  EXPECT_EQ(product.to_string(),
            "42010168373378879565782048137661639978630774784");
  EXPECT_EQ(large * small, product);      // commutes across representations
  EXPECT_EQ(product / large, small);      // large / small dispatching
  EXPECT_EQ(product / small, large);
  EXPECT_TRUE((product % small).is_zero());
}

TEST(BigIntSmall, NegationAndCompareAcrossRepresentations) {
  const BigInt small(42);
  const BigInt large = BigInt(1) << 100;
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(large.is_inline());
  EXPECT_LT(small, large);
  EXPECT_GT(large, small);
  EXPECT_LT(-large, small);
  EXPECT_LT(-large, -small);
  EXPECT_GT(small, -large);
  // Negation keeps each representation and flips only the ordering.
  BigInt negated_large = large;
  negated_large.negate();
  EXPECT_FALSE(negated_large.is_inline());
  EXPECT_EQ(negated_large.compare(large), -1);
  EXPECT_EQ((-small).compare(small), -1);
  EXPECT_EQ((-(-large)), large);
  // Equality never holds across the 2^62 frontier.
  EXPECT_NE(small, large);
  EXPECT_NE(BigInt((std::int64_t{1} << 62) - 1), BigInt(std::int64_t{1} << 62));
}

TEST(BigIntSmall, ShiftsCrossTheBoundaryBothWays) {
  const BigInt x(3);
  const BigInt wide = x << 100;
  EXPECT_FALSE(wide.is_inline());
  const BigInt narrow = wide >> 100;
  EXPECT_TRUE(narrow.is_inline());
  EXPECT_EQ(narrow, x);
  // Magnitude-shift semantics match on both representations.
  EXPECT_EQ((BigInt(-5) >> 1).to_int64(), -2);
  EXPECT_EQ(((BigInt(-5) << 80) >> 81).to_int64(), -2);
}

TEST(BigIntSmall, RandomizedEquivalenceAgainstLimbVectorPath) {
  // Force the same arithmetic through the limb-vector path by scaling the
  // operands by 2^64 (which leaves the inline range) and compare against
  // the inline result:  (a*K) op (b*K) relates to (a op b) by exact
  // identities for K = 2^64.
  std::mt19937_64 rng(20260730);
  for (int iter = 0; iter < 500; ++iter) {
    const std::int64_t bound = (std::int64_t{1} << 62) - 1;
    auto draw = [&]() {
      std::int64_t v = static_cast<std::int64_t>(
          rng() & ((std::uint64_t{1} << 62) - 1));
      if (rng() & 1) v = -v;
      return v;
    };
    const std::int64_t a = draw() % bound;
    std::int64_t b = draw() % bound;
    if (b == 0) b = 1;
    const BigInt sa(a), sb(b);
    ASSERT_TRUE(sa.is_inline());
    ASSERT_TRUE(sb.is_inline());
    const BigInt wa = sa << 64;
    const BigInt wb = sb << 64;
    ASSERT_TRUE(a == 0 || !wa.is_inline());

    EXPECT_EQ((wa + wb) >> 64, sa + sb) << a << " + " << b;
    EXPECT_EQ((wa - wb) >> 64, sa - sb) << a << " - " << b;
    EXPECT_EQ((wa * wb) >> 128, sa * sb) << a << " * " << b;
    EXPECT_EQ(wa / wb, sa / sb) << a << " / " << b;
    EXPECT_EQ((wa % wb) >> 64, sa % sb) << a << " % " << b;
    EXPECT_EQ(wa.compare(wb), sa.compare(sb)) << a << " <=> " << b;
    EXPECT_EQ(BigInt::gcd(wa, wb) >> 64, BigInt::gcd(sa, sb))
        << "gcd(" << a << ", " << b << ")";
    EXPECT_EQ(BigInt::from_string(sa.to_string()), sa);
  }
}

// -------------------------------------------------- randomized properties --

class BigIntRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntRandomized, DivmodReconstructsDividend) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    // Random bit widths exercise every limb-count combination.
    auto random_big = [&](int limbs) {
      BigInt x;
      for (int i = 0; i < limbs; ++i) {
        x <<= 32;
        x += BigInt(static_cast<std::int64_t>(rng() & 0xffffffffULL));
      }
      if (rng() & 1) x.negate();
      return x;
    };
    const BigInt u = random_big(static_cast<int>(rng() % 6) + 1);
    BigInt v = random_big(static_cast<int>(rng() % 4) + 1);
    if (v.is_zero()) v = BigInt(1);
    BigInt q;
    BigInt r;
    BigInt::divmod(u, v, q, r);
    EXPECT_EQ(q * v + r, u);
    EXPECT_LT(r.abs(), v.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), u.sign());
    }
  }
}

TEST_P(BigIntRandomized, RingAxiomsHold) {
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  auto random_big = [&](int limbs) {
    BigInt x;
    for (int i = 0; i < limbs; ++i) {
      x <<= 32;
      x += BigInt(static_cast<std::int64_t>(rng() & 0xffffffffULL));
    }
    if (rng() & 1) x.negate();
    return x;
  };
  for (int iter = 0; iter < 30; ++iter) {
    const BigInt a = random_big(3);
    const BigInt b = random_big(3);
    const BigInt c = random_big(2);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST_P(BigIntRandomized, StringRoundTrip) {
  std::mt19937_64 rng(GetParam() ^ 0x1111);
  for (int iter = 0; iter < 20; ++iter) {
    BigInt x;
    const int limbs = static_cast<int>(rng() % 8) + 1;
    for (int i = 0; i < limbs; ++i) {
      x <<= 32;
      x += BigInt(static_cast<std::int64_t>(rng() & 0xffffffffULL));
    }
    if (rng() & 1) x.negate();
    EXPECT_EQ(BigInt::from_string(x.to_string()), x);
  }
}

TEST_P(BigIntRandomized, KaratsubaAgreesWithSchoolbookViaIdentity) {
  // Force operands past the Karatsuba threshold (32 limbs) and verify
  // (a + b)^2 == a^2 + 2ab + b^2, which mixes karatsuba and schoolbook
  // products of different sizes.
  std::mt19937_64 rng(GetParam() ^ 0x2222);
  auto random_wide = [&](int limbs) {
    BigInt x;
    for (int i = 0; i < limbs; ++i) {
      x <<= 32;
      x += BigInt(static_cast<std::int64_t>(rng() & 0xffffffffULL));
    }
    return x;
  };
  const BigInt a = random_wide(40);
  const BigInt b = random_wide(37);
  const BigInt lhs = (a + b) * (a + b);
  const BigInt rhs = a * a + BigInt(2) * a * b + b * b;
  EXPECT_EQ(lhs, rhs);
}

TEST_P(BigIntRandomized, AgreesWithNativeInt64Arithmetic) {
  // Differential fuzzing against the hardware: on values that fit in
  // 32 bits every operation must match int64 arithmetic exactly.
  std::mt19937_64 rng(GetParam() ^ 0x3333);
  for (int iter = 0; iter < 300; ++iter) {
    const std::int64_t a =
        static_cast<std::int64_t>(rng() % 0xffffffffULL) - 0x7fffffff;
    const std::int64_t b =
        static_cast<std::int64_t>(rng() % 0xffffffffULL) - 0x7fffffff;
    const BigInt ba(a);
    const BigInt bb(b);
    EXPECT_EQ((ba + bb).to_int64(), a + b);
    EXPECT_EQ((ba - bb).to_int64(), a - b);
    // 32-bit operands: |a * b| < 2^62 fits comfortably in int64.
    EXPECT_EQ((ba * bb).to_int64(), a * b);
    if (b != 0) {
      EXPECT_EQ((ba / bb).to_int64(), a / b);
      EXPECT_EQ((ba % bb).to_int64(), a % b);
    }
    EXPECT_EQ(ba < bb, a < b);
    EXPECT_EQ(ba == bb, a == b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomized,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ----------------------------------------------------------- arena totals --

TEST(LimbArena, AggregateSumsAcrossThreads) {
  // The aggregate accessor must fold exited worker threads' counters in
  // and never lose counts relative to the per-thread snapshots.
  const auto before = limb_arena_aggregate_stats();
  std::uint64_t thread_local_acquires = 0;
  std::thread worker([&] {
    // Products well past the inline word force limb storage.
    BigInt x = big("123456789012345678901234567890123456789");
    for (int i = 0; i < 8; ++i) x = x * x / big("98765432109876543210");
    EXPECT_FALSE(x.fits_int64());
    thread_local_acquires = limb_arena_stats().acquires;
  });
  worker.join();
  const auto after = limb_arena_aggregate_stats();
  EXPECT_GT(thread_local_acquires, 0u);
  EXPECT_GE(after.acquires - before.acquires, thread_local_acquires);
  EXPECT_GE(after.pool_hits, before.pool_hits);
}

}  // namespace
}  // namespace dlsched::numeric
