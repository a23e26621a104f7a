// Unit tests for the common substrate: Status, Result, env, random.

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace segdiff {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad eps");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "bad eps");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad eps");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status original = Status::Corruption("bits flipped");
  Status copy = original;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bits flipped");
  Status moved = std::move(original);
  EXPECT_TRUE(moved.IsCorruption());

  Status ok;
  copy = ok;
  EXPECT_TRUE(copy.ok());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::NotFound("gone"); };
  auto wrapper = [&]() -> Status {
    SEGDIFF_RETURN_IF_ERROR(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::IOError("disk");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    SEGDIFF_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  ASSERT_TRUE(outer(false).ok());
  EXPECT_EQ(*outer(false), 10);
  EXPECT_TRUE(outer(true).status().IsIOError());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(3));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 3);
}

TEST(EnvTest, ParsesIntegers) {
  ::setenv("SEGDIFF_TEST_INT", "123", 1);
  EXPECT_EQ(GetEnvInt64("SEGDIFF_TEST_INT", 7), 123);
  ::setenv("SEGDIFF_TEST_INT", "not a number", 1);
  EXPECT_EQ(GetEnvInt64("SEGDIFF_TEST_INT", 7), 7);
  ::unsetenv("SEGDIFF_TEST_INT");
  EXPECT_EQ(GetEnvInt64("SEGDIFF_TEST_INT", 7), 7);
}

TEST(EnvTest, ParsesDoubles) {
  ::setenv("SEGDIFF_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("SEGDIFF_TEST_DBL", 1.0), 2.5);
  ::setenv("SEGDIFF_TEST_DBL", "2.5x", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("SEGDIFF_TEST_DBL", 1.0), 1.0);
  ::unsetenv("SEGDIFF_TEST_DBL");
}

// One strict parser behind the environment helpers and segdiff_cli's
// numeric flags: the whole string, in range for the target type.
TEST(EnvTest, ParseNumberIsStrict) {
  EXPECT_EQ(ParseNumber<int>("42"), 42);
  EXPECT_EQ(ParseNumber<int>("-7"), -7);
  EXPECT_EQ(ParseNumber<int>("2147483647"), 2147483647);
  for (const char* bad : {"", "abc", "3x", " 3", "3 ", "+3", "2147483648",
                          "-2147483649", "1e3"}) {
    EXPECT_FALSE(ParseNumber<int>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615"),
            UINT64_C(18446744073709551615));
  for (const char* bad : {"-1", "-0", "18446744073709551616", "0x10"}) {
    EXPECT_FALSE(ParseNumber<uint64_t>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseNumber<int64_t>("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(ParseNumber<double>("-2.5e-3"), -2.5e-3);
  for (const char* bad : {"", "1.5x", "inf", "nan", "1e400", " 1"}) {
    EXPECT_FALSE(ParseNumber<double>(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(EnvTest, ReadsStrings) {
  ::setenv("SEGDIFF_TEST_STR", "hello", 1);
  EXPECT_EQ(GetEnvString("SEGDIFF_TEST_STR", "d"), "hello");
  ::unsetenv("SEGDIFF_TEST_STR");
  EXPECT_EQ(GetEnvString("SEGDIFF_TEST_STR", "d"), "d");
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    saw_lo |= v == 0;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace segdiff
