// SlotLedger unit tests: the slot grid per scheme, group membership, the
// release rule, handle reuse and the ordering contract (DESIGN.md §15.1).
#include "batching/slot_ledger.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/check.hpp"

namespace tcb {
namespace {

using Handle = SlotLedger::Handle;

/// Two slotted rows (z = 4): row 0 is 10 wide with request 10 in slot 0
/// and requests 11, 12 sharing slot 1 (slot 2 empty); row 1 is 6 wide with
/// request 13 in slot 1. Handles 0..3 are requests 10..13.
BatchPlan slotted_plan() {
  BatchPlan plan;
  plan.scheme = Scheme::kConcatSlotted;
  plan.slot_len = 4;
  plan.row_capacity = 10;
  RowLayout row0;
  row0.width = 10;
  row0.segments = {Segment{10, 0, 3, 0}, Segment{11, 4, 2, 1},
                   Segment{12, 6, 2, 1}};
  RowLayout row1;
  row1.width = 6;
  row1.segments = {Segment{13, 4, 2, 1}};
  plan.rows = {row0, row1};
  return plan;
}

void expect_span(const SlotSpan& span, Index row, Index slot, Index begin,
                 Index width) {
  EXPECT_EQ(span.row.value(), row);
  EXPECT_EQ(span.slot.value(), slot);
  EXPECT_EQ(span.begin.value(), begin);
  EXPECT_EQ(span.width, width);
}

std::vector<Handle> handles_of(std::span<const Handle> group) {
  return {group.begin(), group.end()};
}

/// Steps `ledger` once, finishing exactly the handles in `finishing`.
/// Returns the handles advanced, in visiting order.
std::vector<Handle> step(SlotLedger& ledger, const std::set<Handle>& finishing,
                         std::vector<SlotRelease>& released) {
  std::vector<Handle> visited;
  ledger.step(
      [&](Handle h) {
        visited.push_back(h);
        return finishing.contains(h);
      },
      [&](std::size_t, std::span<const Handle> members) {
        for (const Handle h : members)
          EXPECT_TRUE(ledger.finished(h)) << "released with live handle " << h;
      },
      released);
  return visited;
}

TEST(SlotLedgerTest, SlottedGridClipsTheTailSlotToTheRow) {
  const auto grid = slot_grid(slotted_plan(), /*slotted=*/true);
  ASSERT_EQ(grid.size(), 5u);
  expect_span(grid[0], 0, 0, 0, 4);
  expect_span(grid[1], 0, 1, 4, 4);
  expect_span(grid[2], 0, 2, 8, 2);
  expect_span(grid[3], 1, 0, 0, 4);
  expect_span(grid[4], 1, 1, 4, 2);
}

TEST(SlotLedgerTest, UnslottedGridIsOneSpanPerRow) {
  BatchPlan plan = slotted_plan();
  const auto grid = slot_grid(plan, /*slotted=*/false);
  ASSERT_EQ(grid.size(), 2u);
  expect_span(grid[0], 0, 0, 0, 10);
  expect_span(grid[1], 1, 0, 0, 6);

  // No slot length means no slots finer than rows, and a row of no width
  // gets no slot at all.
  plan.slot_len = 0;
  plan.rows.insert(plan.rows.begin() + 1, RowLayout{});
  const auto rows = slot_grid(plan, /*slotted=*/true);
  ASSERT_EQ(rows.size(), 2u);
  expect_span(rows[0], 0, 0, 0, 10);
  expect_span(rows[1], 2, 0, 0, 6);
}

TEST(SlotLedgerTest, EmptyPlanHasNoSlotsAndNothingToStep) {
  const BatchPlan plan;
  EXPECT_TRUE(slot_grid(plan, true).empty());
  const SlotLedger ledger(plan, true);
  EXPECT_TRUE(ledger.done());
  EXPECT_EQ(ledger.slot_count(), 0u);
  EXPECT_EQ(ledger.handles(), 0u);
  EXPECT_EQ(ledger.groups(), 0u);
}

TEST(SlotLedgerTest, FormationGroupsFollowTheGrid) {
  const SlotLedger slotted(slotted_plan(), true);
  EXPECT_TRUE(slotted.slotted());
  EXPECT_EQ(slotted.handles(), 4u);
  EXPECT_EQ(slotted.groups(), 3u);
  EXPECT_EQ(handles_of(slotted.group(0)), std::vector<Handle>{0});
  EXPECT_EQ(handles_of(slotted.group(2)), (std::vector<Handle>{1, 2}));
  EXPECT_EQ(handles_of(slotted.members(slotted.slot_index(Row{1}, Slot{1}))),
            std::vector<Handle>{3});
  EXPECT_TRUE(slotted.members(slotted.slot_index(Row{0}, Slot{2})).empty());
  EXPECT_EQ(slotted.request_id(3), 13);

  // Unslotted, the row is the group and the slot argument is ignored.
  const SlotLedger rows(slotted_plan(), false);
  EXPECT_FALSE(rows.slotted());
  EXPECT_EQ(rows.groups(), 2u);
  EXPECT_EQ(handles_of(rows.group(1)), (std::vector<Handle>{0, 1, 2}));
  EXPECT_EQ(rows.slot_index(Row{1}, Slot{7}), 1u);
}

TEST(SlotLedgerTest, ReleasesOnceWhenTheLastMemberFinishes) {
  SlotLedger ledger(slotted_plan(), true);
  std::vector<SlotRelease> released;

  // Handle 1 finishes while its slot-mate 2 decodes on: no release.
  EXPECT_EQ(step(ledger, {1}, released), (std::vector<Handle>{0, 1, 2, 3}));
  EXPECT_TRUE(released.empty());
  EXPECT_TRUE(ledger.finished(1));
  EXPECT_EQ(ledger.unfinished(), 3u);

  // The finished handle is not advanced again; its mate's finish releases
  // the slot, exactly once.
  EXPECT_EQ(step(ledger, {2}, released), (std::vector<Handle>{0, 2, 3}));
  ASSERT_EQ(released.size(), 1u);
  expect_span(SlotSpan{released[0].row, released[0].slot, released[0].begin,
                       released[0].width},
              0, 1, 4, 4);
  EXPECT_EQ(released[0].finished, (std::vector<RequestId>{11, 12}));
  EXPECT_EQ(ledger.groups(), 2u);

  EXPECT_EQ(step(ledger, {}, released), (std::vector<Handle>{0, 3}));
  EXPECT_EQ(released.size(), 1u);
}

TEST(SlotLedgerTest, OneStepsReleasesComeOutInGroupAdmissionOrder) {
  SlotLedger ledger(slotted_plan(), true);
  std::vector<SlotRelease> released;
  (void)step(ledger, {0}, released);
  ASSERT_EQ(released.size(), 1u);

  // A cohort spliced into grid slot 0 joins the walk after every formation
  // group, and its release follows theirs within one step.
  const std::vector<RequestId> cohort = {20};
  (void)ledger.admit(Row{0}, Slot{0}, Col{0}, 4, cohort);
  released.clear();
  EXPECT_EQ(step(ledger, {0, 1, 2, 3}, released),
            (std::vector<Handle>{1, 2, 3, 0}));
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0].finished, (std::vector<RequestId>{11, 12}));
  EXPECT_EQ(released[1].finished, std::vector<RequestId>{13});
  EXPECT_EQ(released[2].finished, std::vector<RequestId>{20});
  EXPECT_TRUE(ledger.done());
}

TEST(SlotLedgerTest, HandlesAreReusedOnlyAfterTheirSlotReleases) {
  SlotLedger ledger(slotted_plan(), true);
  std::vector<SlotRelease> released;
  // Slot 0 releases handle 0; handle 1 finishes but slot-mate 2 is live.
  (void)step(ledger, {0, 1}, released);
  ASSERT_EQ(released.size(), 1u);

  const std::vector<RequestId> two = {20, 21};
  EXPECT_EQ(handles_of(ledger.admit(Row{0}, Slot{0}, Col{0}, 4, two)),
            (std::vector<Handle>{0, 4}));
  EXPECT_EQ(ledger.handles(), 5u);
  EXPECT_EQ(ledger.request_id(1), 11) << "a finished handle stays readable";

  // Once slot 1 releases, its handles 1 and 2 serve the next admission.
  (void)step(ledger, {2}, released);
  ASSERT_EQ(released.size(), 2u);
  const auto reused = handles_of(ledger.admit(Row{0}, Slot{1}, Col{4}, 4, two));
  EXPECT_EQ(std::set<Handle>(reused.begin(), reused.end()),
            (std::set<Handle>{1, 2}));
  EXPECT_EQ(ledger.handles(), 5u);
  EXPECT_EQ(ledger.unfinished(), 5u);
}

TEST(SlotLedgerTest, AdmittingIntoASlotWithALiveMemberIsRejected) {
  SlotLedger ledger(slotted_plan(), true);
  std::vector<SlotRelease> released;
  (void)step(ledger, {1}, released);
  const std::vector<RequestId> one = {20};
  EXPECT_THROW((void)ledger.admit(Row{0}, Slot{1}, Col{4}, 4, one),
               CheckError);
  EXPECT_THROW((void)ledger.admit(Row{1}, Slot{2}, Col{8}, 2, one),
               CheckError)
      << "slot outside the row's grid";
  EXPECT_EQ(ledger.handles(), 4u);
  EXPECT_EQ(ledger.unfinished(), 3u);

  // A slot left empty at formation admits from the start.
  EXPECT_EQ(handles_of(ledger.admit(Row{0}, Slot{2}, Col{8}, 2, one)),
            std::vector<Handle>{4});
}

}  // namespace
}  // namespace tcb
