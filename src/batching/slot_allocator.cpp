#include "batching/slot_allocator.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace tcb {

SlotAllocator::SlotAllocator(const BatchPlan& plan) {
  const bool slotted =
      plan.scheme == Scheme::kConcatSlotted && plan.slot_len > 0;
  grid_ = slot_grid(plan, slotted);
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    const auto& segs = plan.rows[grid_[i].row.usize()].segments;
    if (std::none_of(segs.begin(), segs.end(), [&](const Segment& seg) {
          return !slotted || seg.slot_index() == grid_[i].slot;
        }))
      free_list_.push_back(i);
  }
}

std::size_t SlotAllocator::find(Row row, Slot slot) const {
  for (std::size_t i = 0; i < grid_.size(); ++i)
    if (grid_[i].row == row && grid_[i].slot == slot) return i;
  TCB_CHECK(false, "SlotAllocator: unknown slot");
  return grid_.size();
}

bool SlotAllocator::release(Row row, Slot slot) {
  const std::size_t i = find(row, slot);
  if (std::find(free_list_.begin(), free_list_.end(), i) != free_list_.end())
    return false;
  free_list_.push_back(i);
  releases_ += 1;
  return true;
}

bool SlotAllocator::acquire(Row row, Slot slot) {
  const auto it =
      std::find(free_list_.begin(), free_list_.end(), find(row, slot));
  if (it == free_list_.end()) return false;
  free_list_.erase(it);
  acquires_ += 1;
  return true;
}

std::vector<SlotSpan> SlotAllocator::vacant() const {
  std::vector<SlotSpan> out;
  out.reserve(free_list_.size());
  for (const auto i : free_list_) out.push_back(grid_[i]);
  return out;
}

Index SlotAllocator::max_span_width() const {
  Index widest = 0;
  for (const auto& span : grid_) widest = std::max(widest, span.width);
  return widest;
}

double SlotAllocator::occupied_fraction() const {
  if (grid_.empty()) return 1.0;
  return static_cast<double>(stats().occupied_slots) /
         static_cast<double>(grid_.size());
}

}  // namespace tcb
