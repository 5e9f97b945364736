// Tests for the runtime lock-rank discipline (common/mutex.hpp,
// DESIGN.md §10.4): ranks must strictly decrease along every acquisition
// chain; an inversion aborts with both lock names. The checks are compiled
// in when !NDEBUG or -DMICCO_MUTEX_RANKS=1 (ci.sh's Debug build); in a
// plain Release build the enforcement-path tests skip rather than assert
// behaviour that was compiled out.
#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"

#include <gtest/gtest.h>

namespace micco {
namespace {

TEST(MutexRank, DescendingAcquisitionIsQuiet) {
  Mutex outer("test.outer", 40);
  Mutex inner("test.inner", 4);
  const MutexLock hold_outer(outer);
  const MutexLock hold_inner(inner);
}

TEST(MutexRank, UnrankedMutexesAreExempt) {
  Mutex ranked("test.ranked", 5);
  Mutex plain;
  // An unranked mutex may be taken under a ranked one (and vice versa)
  // without tripping the discipline: it simply does not participate.
  const MutexLock hold_ranked(ranked);
  const MutexLock hold_plain(plain);
}

TEST(MutexRank, ReleaseRestoresHeadroom) {
  Mutex low("test.low", 20);
  Mutex high("test.high", 30);
  {
    const MutexLock hold_low(low);
  }
  // low is released, so acquiring the higher rank afterwards is ordered.
  const MutexLock hold_high(high);
}

TEST(MutexRank, GlobalRankTableIsStrictlyLayered) {
  // The table itself must keep its documented ordering: config above pool
  // above loop; jobs above journal; sinks above metrics above histogram;
  // and the service layer entirely above the obs leaves.
  EXPECT_GT(kLockRankParallelConfig, kLockRankPool);
  EXPECT_GT(kLockRankPool, kLockRankLoop);
  EXPECT_GT(kLockRankJobManager, kLockRankJournal);
  EXPECT_GT(kLockRankEventSink, kLockRankSpanSink);
  EXPECT_GT(kLockRankSpanSink, kLockRankMetrics);
  EXPECT_GT(kLockRankMetrics, kLockRankHistogram);
  EXPECT_GT(kLockRankJournal, kLockRankEventSink);
}

#if MICCO_MUTEX_RANK_CHECKS

TEST(MutexRankDeathTest, InvertedAcquisitionAbortsWithBothNames) {
  EXPECT_DEATH(
      {
        Mutex low("test.low", 5);
        Mutex high("test.high", 50);
        const MutexLock hold_low(low);
        const MutexLock hold_high(high);  // 50 while holding 5: inversion
      },
      "lock-rank inversion.*test\\.high.*test\\.low");
}

TEST(MutexRankDeathTest, EqualRankAcquisitionAborts) {
  // Strictly decreasing: two locks sharing a rank must never nest, in
  // either order — that is exactly the symmetric pattern that deadlocks.
  EXPECT_DEATH(
      {
        Mutex first("test.first", 7);
        Mutex second("test.second", 7);
        const MutexLock hold_first(first);
        const MutexLock hold_second(second);
      },
      "lock-rank inversion");
}

TEST(MutexRankDeathTest, TryLockSuccessCountsTowardTheHeldSet) {
  EXPECT_DEATH(
      {
        Mutex low("test.low", 5);
        Mutex high("test.high", 50);
        if (low.try_lock()) {
          const MutexLock hold_high(high);  // inversion over the try_lock
        }
      },
      "lock-rank inversion");
}

#else

TEST(MutexRankDeathTest, ChecksCompiledOut) {
  GTEST_SKIP() << "lock-rank checks compiled out (NDEBUG build without "
                  "MICCO_MUTEX_RANKS=1); ci.sh's Debug build runs the "
                  "death tests";
}

#endif  // MICCO_MUTEX_RANK_CHECKS

}  // namespace
}  // namespace micco
