// Tests for the benchmark's own helpers: the tail-percentile rule, span
// self time, and the serve-sweep request generator.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness/serve_gen.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"

namespace nspbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int k = 1; k <= n; ++k) v.push_back(k);
  return v;
}

// ---- percentile rule -----------------------------------------------------

TEST(Stats, PercentileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5}, 0.95), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

TEST(Stats, P95NeedsTenSamplesBeyond) {
  // 1..182: p95 = 172.95, so 173..182 lie beyond it: exactly ten.
  const Tail ok = tail(ramp(182), 0.95);
  EXPECT_EQ(ok.beyond, 10u);
  EXPECT_TRUE(ok.reportable);
  // One sample fewer: p95 = 172, and only 173..181 lie beyond it.
  const Tail short_run = tail(ramp(181), 0.95);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.reportable);
  EXPECT_EQ(short_run.samples, 181u);
}

TEST(Stats, TiesAtThePercentileAreNotBeyond) {
  std::vector<double> v(300, 1.0);
  const Tail t = tail(v, 0.95);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_FALSE(t.reportable);
}

TEST(Stats, BlockRateIsTheMedianBlock) {
  // Ten 1 ms ops and two 10 ms stalls in ten blocks: the stalled blocks
  // are outvoted, unlike in 12 ops / 30 ms.
  std::vector<double> ms(12, 1.0);
  ms[3] = ms[9] = 10.0;
  EXPECT_DOUBLE_EQ(block_rate(ms, 10), 1.0);
  EXPECT_DOUBLE_EQ(block_rate({2, 2, 2, 2}, 2), 0.5);
  EXPECT_DOUBLE_EQ(block_rate({4}, 10), 0.25);  // fewer ops than blocks
  EXPECT_DOUBLE_EQ(block_rate({}, 10), 0.0);
}

// ---- span self time ------------------------------------------------------

Span span(double a, double b, int parent) { return Span{"s", a, b, parent, -1}; }

TEST(Trace, SelfTimeSubtractsChildren) {
  const std::vector<Span> s = {span(0, 100, -1), span(10, 30, 0), span(50, 60, 0)};
  const std::vector<double> self = self_times_us(s);
  EXPECT_DOUBLE_EQ(self[0], 70.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 10.0);
}

TEST(Trace, OverlappingChildrenCountOnce) {
  const std::vector<Span> s = {span(0, 100, -1), span(10, 40, 0), span(30, 50, 0)};
  EXPECT_DOUBLE_EQ(self_times_us(s)[0], 60.0);
}

TEST(Trace, ChildTimeOutsideParentIsIgnored) {
  const std::vector<Span> s = {span(10, 20, -1), span(15, 40, 0)};
  EXPECT_DOUBLE_EQ(self_times_us(s)[0], 5.0);
}

TEST(Trace, GrandchildrenOnlyReduceTheirParent) {
  const std::vector<Span> s = {span(0, 100, -1), span(0, 50, 0), span(0, 40, 1)};
  const std::vector<double> self = self_times_us(s);
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 10.0);
  EXPECT_DOUBLE_EQ(self[2], 40.0);
}

TEST(Trace, ScopesNestAndInheritTheOp) {
  Tracer tr;
  {
    Tracer::Scope op(&tr, "op", 7);
    Tracer::Scope child(&tr, "child");
  }
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[1].op, 7);
  EXPECT_LE(tr.spans()[0].start_us, tr.spans()[1].start_us);
  EXPECT_GE(tr.spans()[0].end_us, tr.spans()[1].end_us);
  EXPECT_NE(tr.chrome_json().find("\"traceEvents\""), std::string::npos);
  Tracer::Scope off(nullptr, "ignored");  // a null tracer records nothing
  EXPECT_EQ(tr.spans().size(), 2u);
}

// ---- serve-sweep generator -----------------------------------------------

TEST(ServeGen, SameSeedSameLines) {
  ServeSweepGen a(42), b(42), c(43);
  EXPECT_EQ(a.hot_lines(), b.hot_lines());
  EXPECT_EQ(a.fill_lines(50), b.fill_lines(50));
  bool differs = false;
  for (int op = 0; op < 20; ++op) {
    const auto ba = a.next_batch();
    const auto bb = b.next_batch();
    const auto bc = c.next_batch();
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
      EXPECT_EQ(ba[i].line, bb[i].line);
      differs |= ba[i].line != bc[i].line;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ServeGen, EveryBatchIsEightFreshFourDuplicatesFourHits) {
  ServeSweepGen g(7);
  std::set<std::string> hot;
  for (const std::string& l : g.hot_lines()) hot.insert(l);
  EXPECT_EQ(hot.size(), static_cast<std::size_t>(kHotSet));
  for (int op = 0; op < 50; ++op) {
    std::set<std::string> fresh, dup_cells, hot_cells;
    int n_fresh = 0, n_dup = 0, n_hot = 0;
    const std::vector<BatchLine> batch = g.next_batch();
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(kBatch));
    for (const BatchLine& l : batch) {
      const std::string cell = ServeSweepGen::scenario_of(l.line);
      ASSERT_FALSE(cell.empty());
      ASSERT_NE(cell.find("\"sim_steps\":" + std::to_string(kCell.sim_steps)),
                std::string::npos);
      switch (l.kind) {
        case LineKind::Fresh: ++n_fresh; fresh.insert(cell); break;
        case LineKind::Duplicate: ++n_dup; dup_cells.insert(cell); break;
        case LineKind::Hot:
          ++n_hot;
          hot_cells.insert(cell);
          EXPECT_TRUE(hot.count(l.line));
          break;
      }
    }
    EXPECT_EQ(n_fresh, kFresh);
    EXPECT_EQ(n_dup, kDup);
    EXPECT_EQ(n_hot, kHot);
    EXPECT_EQ(fresh.size(), static_cast<std::size_t>(kFresh));  // 8 distinct cells
    EXPECT_EQ(dup_cells.size(), static_cast<std::size_t>(kDup));
    EXPECT_EQ(hot_cells.size(), static_cast<std::size_t>(kHot));
    for (const std::string& d : dup_cells) EXPECT_TRUE(fresh.count(d)) << d;
  }
}

TEST(ServeGen, FreshKeysNeverRepeatWithinARun) {
  ServeSweepGen g(3);
  std::set<std::string> seen;
  for (const std::string& l : g.hot_lines()) seen.insert(ServeSweepGen::scenario_of(l));
  for (const std::string& l : g.fill_lines(1000)) {
    EXPECT_TRUE(seen.insert(ServeSweepGen::scenario_of(l)).second) << l;
  }
  for (int op = 0; op < 2000; ++op) {
    for (const BatchLine& l : g.next_batch()) {
      if (l.kind != LineKind::Fresh) continue;
      EXPECT_TRUE(seen.insert(ServeSweepGen::scenario_of(l.line)).second) << l.line;
    }
  }
}

TEST(ServeGen, FreshCellsCoverTheFourPlatformsAtTwoSizes) {
  std::set<std::string> plats;
  for (int k = 0; k < kCellTypes; ++k) plats.insert(cell_platform(k));
  EXPECT_EQ(plats.size(), static_cast<std::size_t>(kCellTypes));
  EXPECT_EQ(cell_procs(0), 4);
  EXPECT_EQ(cell_procs(1), 8);
}

}  // namespace
}  // namespace nspbench
