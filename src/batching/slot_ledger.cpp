#include "batching/slot_ledger.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace tcb {

std::vector<SlotSpan> slot_grid(const BatchPlan& plan, bool slotted) {
  std::vector<SlotSpan> grid;
  for (std::size_t r = 0; r < plan.rows.size(); ++r) {
    const Index width = plan.rows[r].width;
    const Index z = slotted && plan.slot_len > 0 ? plan.slot_len : width;
    for (Index begin = 0; begin < width; begin += z)
      grid.push_back(SlotSpan{Row{static_cast<Index>(r)}, Slot{begin / z},
                              Col{begin}, std::min(z, width - begin)});
  }
  return grid;
}

SlotLedger::SlotLedger(const BatchPlan& plan, bool slotted)
    : slotted_(slotted && plan.slot_len > 0) {
  for (const SlotSpan& span : slot_grid(plan, slotted_))
    slots_.push_back(Group{span, {}, 0});
  for (std::size_t r = 0; r < plan.rows.size(); ++r)
    for (const Segment& seg : plan.rows[r].segments) {
      const std::size_t s =
          slot_index(Row{static_cast<Index>(r)}, seg.slot_index());
      if (slots_[s].members.empty()) occupied_.push_back(s);
      bind(s, seg.request_id);
    }
}

std::size_t SlotLedger::slot_index(Row row, Slot slot) const {
  if (!slotted_) slot = Slot{0};
  std::size_t s = 0;
  while (s < slots_.size() &&
         (slots_[s].span.row != row || slots_[s].span.slot != slot))
    ++s;
  TCB_CHECK(s < slots_.size(), "SlotLedger: slot outside the grid");
  return s;
}

void SlotLedger::bind(std::size_t slot, RequestId id) {
  if (free_.empty()) {
    free_.push_back(tracks_.size());
    tracks_.emplace_back();
  }
  const Handle h = free_.back();
  free_.pop_back();
  tracks_[h] = Track{slot, id, false};
  slots_[slot].members.push_back(h);
  slots_[slot].unfinished += 1;
  unfinished_ += 1;
}

std::span<const SlotLedger::Handle> SlotLedger::admit(
    Row row, Slot slot, Col begin, Index width,
    std::span<const RequestId> ids) {
  TCB_CHECK(!ids.empty(), "SlotLedger::admit: empty cohort");
  const std::size_t s = slot_index(row, slot);
  Group& g = slots_[s];
  TCB_CHECK(g.unfinished == 0,
            "SlotLedger::admit: slot still has live decode tracks");
  g.span = SlotSpan{row, slotted_ ? slot : Slot{0}, begin, width};
  g.members.clear();
  for (const RequestId id : ids) bind(s, id);
  occupied_.push_back(s);
  return g.members;
}

SlotRelease SlotLedger::release(const Group& g) {
  SlotRelease rel{g.span.row, g.span.slot, g.span.begin, g.span.width, {}};
  for (const Handle h : g.members) {
    rel.finished.push_back(tracks_[h].id);
    free_.push_back(h);
  }
  return rel;
}

}  // namespace tcb
