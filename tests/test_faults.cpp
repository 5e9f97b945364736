// Unit tests for the fault model: RetryPolicy arithmetic, FaultPlan
// parsing/validation, and FaultInjector runtime behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "faults/retry.hpp"

namespace micco {
namespace {

// ---------------------------------------------------------------- RetryPolicy

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy p;
  p.base_backoff_s = 1e-4;
  p.max_backoff_s = 1.0;
  EXPECT_DOUBLE_EQ(p.backoff(1), 1e-4);
  EXPECT_DOUBLE_EQ(p.backoff(2), 2e-4);
  EXPECT_DOUBLE_EQ(p.backoff(3), 4e-4);
  EXPECT_DOUBLE_EQ(p.backoff(4), 8e-4);
}

TEST(RetryPolicy, BackoffCappedAtMax) {
  RetryPolicy p;
  p.base_backoff_s = 0.05;
  p.max_backoff_s = 0.1;
  EXPECT_DOUBLE_EQ(p.backoff(1), 0.05);
  EXPECT_DOUBLE_EQ(p.backoff(2), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff(10), 0.1);
}

TEST(RetryPolicy, BackoffSaturatesAtHighAttemptCounts) {
  // attempt 64 would compute base * 2^63 — far past double's comfort zone
  // with a naive loop; the closed form must clamp to max_backoff_s and stay
  // finite at any attempt count.
  RetryPolicy p;
  p.base_backoff_s = 1e-4;
  p.max_backoff_s = 0.1;
  EXPECT_DOUBLE_EQ(p.backoff(64), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff(1 << 20), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff(std::numeric_limits<int>::max()), 0.1);
  EXPECT_TRUE(std::isfinite(p.backoff(4096)));
}

TEST(RetryPolicy, BackoffDegenerateBaseAndMultiplier) {
  // base 0: every backoff is zero, at any attempt, in O(1).
  RetryPolicy zero;
  zero.base_backoff_s = 0.0;
  EXPECT_DOUBLE_EQ(zero.backoff(1), 0.0);
  EXPECT_DOUBLE_EQ(zero.backoff(1 << 30), 0.0);
}

TEST(RetryPolicy, DefaultsAreValid) {
  EXPECT_TRUE(RetryPolicy{}.validate().empty());
}

TEST(RetryPolicy, ValidateRejectsBadFields) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_FALSE(p.validate().empty());

  p = RetryPolicy{};
  p.base_backoff_s = -1.0;
  EXPECT_FALSE(p.validate().empty());

  p = RetryPolicy{};
  p.base_backoff_s = 0.5;
  p.max_backoff_s = 0.1;
  EXPECT_FALSE(p.validate().empty());

  // Every comparison with NaN is false, so range checks alone let it pass.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    p = RetryPolicy{};
    p.base_backoff_s = bad;
    EXPECT_FALSE(p.validate().empty()) << bad;
    p = RetryPolicy{};
    p.max_backoff_s = bad;
    EXPECT_FALSE(p.validate().empty()) << bad;
  }
}

// ------------------------------------------------------------------ FaultPlan

FaultPlan parse_ok(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  const std::optional<FaultPlan> plan = parse_fault_plan(in, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(FaultPlan{});
}

TEST(FaultPlan, ParsesAllDirectives) {
  const FaultPlan plan = parse_ok(
      "# a comment\n"
      "\n"
      "fail 1 0.5\n"
      "transfer-faults 0.25 99\n"
      "slowdown 2 1.5 0.1\n"
      "capacity-loss 0 4096 0.2\n");
  ASSERT_EQ(plan.device_failures.size(), 1u);
  EXPECT_EQ(plan.device_failures[0].device, 1);
  EXPECT_DOUBLE_EQ(plan.device_failures[0].time_s, 0.5);
  EXPECT_DOUBLE_EQ(plan.transfer.probability, 0.25);
  EXPECT_EQ(plan.transfer.seed, 99u);
  ASSERT_EQ(plan.slowdowns.size(), 1u);
  EXPECT_EQ(plan.slowdowns[0].device, 2);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].factor, 1.5);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].from_time_s, 0.1);
  ASSERT_EQ(plan.capacity_losses.size(), 1u);
  EXPECT_EQ(plan.capacity_losses[0].bytes, 4096u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, OptionalFieldsKeepDefaults) {
  const FaultPlan plan = parse_ok(
      "transfer-faults 0.1\n"
      "slowdown 0 2.0\n");
  EXPECT_EQ(plan.transfer.seed, TransferFaultModel{}.seed);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].from_time_s, 0.0);
}

TEST(FaultPlan, EmptyInputIsEmptyPlan) {
  const FaultPlan plan = parse_ok("# only comments\n\n");
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, MalformedLinesReportLineNumber) {
  const char* bad[] = {
      "fail 1\n",                // missing time
      "transfer-faults\n",       // missing probability
      "slowdown 0\n",            // missing factor
      "capacity-loss 0 1024\n",  // missing time
      "frobnicate 1 2\n",        // unknown directive
      "capacity-loss 0 -5 1.0\n",     // signed byte count
      "capacity-loss 0 +4096 1.0\n",  // signed byte count
      "transfer-faults 0.5 x7\n",     // unreadable optional seed
      "slowdown 1 2.0 soon\n",        // unreadable optional onset
      "fail 2 0.5x\n",                // trailing text in a field
      "fail 2 0.5 extra words\n",     // tokens after the last field
      "fail 1 nan\n",                 // not a finite time
      "slowdown 0 inf\n",             // not a finite factor
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(parse_fault_plan(in, &error).has_value()) << text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

TEST(FaultPlan, ValidateAcceptsConsistentPlan) {
  const FaultPlan plan = parse_ok(
      "fail 3 0.5\n"
      "transfer-faults 0.9\n"
      "slowdown 0 4.0\n"
      "capacity-loss 1 1024 0.0\n");
  EXPECT_EQ(plan.validate(4), "");
}

TEST(FaultPlan, ValidateRejectsBadEntries) {
  EXPECT_NE(parse_ok("fail 4 0.5\n").validate(4), "");     // device range
  EXPECT_NE(parse_ok("fail -1 0.5\n").validate(4), "");    // negative device
  EXPECT_NE(parse_ok("fail 0 -0.5\n").validate(4), "");    // negative time
  EXPECT_NE(parse_ok("transfer-faults 1.0\n").validate(4),
            "");                                           // p == 1 forbidden
  EXPECT_NE(parse_ok("slowdown 0 0.5\n").validate(4), "");  // factor < 1
  EXPECT_NE(parse_ok("capacity-loss 0 0 0.1\n").validate(4),
            "");                                           // zero bytes
  EXPECT_NE(parse_ok("fail 0 0.1\nfail 0 0.2\n").validate(4),
            "");                                           // duplicate device
}

TEST(FaultPlan, SummaryMentionsEveryEvent) {
  const FaultPlan plan = parse_ok(
      "fail 1 0.5\n"
      "transfer-faults 0.25\n");
  const std::string s = plan.summary();
  EXPECT_NE(s.find("fail device 1"), std::string::npos);
  EXPECT_NE(s.find("transfer faults"), std::string::npos);
  EXPECT_NE(FaultPlan{}.summary().find("empty plan"), std::string::npos);
}

TEST(FaultPlan, LoadFileReportsMissingPath) {
  std::string error;
  EXPECT_FALSE(
      load_fault_plan_file("/nonexistent/plan.txt", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// -------------------------------------------------------------- FaultInjector

TEST(FaultInjector, EmptyPlanIsInactiveAndNeverFaults) {
  FaultInjector inj{FaultPlan{}};
  EXPECT_FALSE(inj.active());
  EXPECT_FALSE(inj.failure_time(0).has_value());
  EXPECT_DOUBLE_EQ(inj.slowdown(0, 100.0), 1.0);
  EXPECT_EQ(inj.take_capacity_loss(0, 100.0), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(inj.transfer_attempt_fails());
}

TEST(FaultInjector, FailureTimeConsumedByMarkFailed) {
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{2, 0.75});
  FaultInjector inj{plan};
  EXPECT_TRUE(inj.active());
  ASSERT_TRUE(inj.failure_time(2).has_value());
  EXPECT_DOUBLE_EQ(*inj.failure_time(2), 0.75);
  EXPECT_FALSE(inj.failure_time(0).has_value());
  inj.mark_failed(2);
  EXPECT_FALSE(inj.failure_time(2).has_value());
}

TEST(FaultInjector, SlowdownRespectsOnsetAndCompounds) {
  FaultPlan plan;
  plan.slowdowns.push_back(DeviceSlowdown{0, 2.0, 1.0});
  plan.slowdowns.push_back(DeviceSlowdown{0, 3.0, 2.0});
  plan.slowdowns.push_back(DeviceSlowdown{1, 10.0, 0.0});
  FaultInjector inj{plan};
  EXPECT_DOUBLE_EQ(inj.slowdown(0, 0.5), 1.0);   // before onset
  EXPECT_DOUBLE_EQ(inj.slowdown(0, 1.5), 2.0);   // first entry only
  EXPECT_DOUBLE_EQ(inj.slowdown(0, 2.5), 6.0);   // overlapping compound
  EXPECT_DOUBLE_EQ(inj.slowdown(1, 0.0), 10.0);  // from t=0
  EXPECT_DOUBLE_EQ(inj.slowdown(2, 5.0), 1.0);   // untouched device
}

TEST(FaultInjector, CapacityLossConsumedOnce) {
  FaultPlan plan;
  plan.capacity_losses.push_back(CapacityLoss{0, 1024, 1.0});
  plan.capacity_losses.push_back(CapacityLoss{0, 512, 2.0});
  FaultInjector inj{plan};
  EXPECT_EQ(inj.take_capacity_loss(0, 0.5), 0u);     // nothing due yet
  EXPECT_EQ(inj.take_capacity_loss(0, 1.5), 1024u);  // first entry due
  EXPECT_EQ(inj.take_capacity_loss(0, 1.5), 0u);     // consumed
  EXPECT_EQ(inj.take_capacity_loss(0, 3.0), 512u);   // second entry due
  EXPECT_EQ(inj.take_capacity_loss(1, 3.0), 0u);     // other device clean
}

TEST(FaultInjector, TransferDrawsAreSeedDeterministic) {
  FaultPlan plan;
  plan.transfer.probability = 0.3;
  plan.transfer.seed = 1234;
  FaultInjector a{plan};
  FaultInjector b{plan};
  int faults = 0;
  for (int i = 0; i < 500; ++i) {
    const bool fa = a.transfer_attempt_fails();
    EXPECT_EQ(fa, b.transfer_attempt_fails());
    faults += fa ? 1 : 0;
  }
  // ~30% of 500 draws; generous bounds, just not degenerate.
  EXPECT_GT(faults, 75);
  EXPECT_LT(faults, 300);
}

TEST(FaultInjector, HighProbabilityDrawsDoFail) {
  FaultPlan plan;
  plan.transfer.probability = 0.999;
  FaultInjector inj{plan};
  int faults = 0;
  for (int i = 0; i < 100; ++i) faults += inj.transfer_attempt_fails() ? 1 : 0;
  EXPECT_GT(faults, 90);
}

}  // namespace
}  // namespace micco
