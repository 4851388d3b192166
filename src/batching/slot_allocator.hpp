// First-class slot allocator for continuous iteration-level batching
// (DESIGN.md §15).
//
// A formed BatchPlan fixes a grid of slots (slot_grid in slot_ledger.hpp):
// under Slotted ConcatBatching every row divides into fixed-size slots of
// length z; under the other schemes each row is one slot spanning its full
// width. The paper's early memory cleaning (§4.2.2) frees a slot's K/V
// caches the moment its last decode track finishes — this allocator is what
// turns that *memory* event into a *scheduling* event: the serving
// coordinator releases the vacated slot here, asks for the vacant spans, and
// splices newly-admitted requests into them between decoder iterations.
//
// Only the serving coordinator calls it: ServingPipeline steps every live
// batch inline, multi-worker runs included, so it takes no lock. Vacancy
// order is the release order (FIFO, a free list of the vacant slots), which
// keeps continuous-mode runs deterministic: the coordinator processes step
// events in a canonical order, so the free list's history is a pure function
// of the trace.
#pragma once

#include <cstddef>
#include <vector>

#include "batching/batch_plan.hpp"
#include "batching/slot_ledger.hpp"

namespace tcb {

/// Aggregate occupancy/lifetime counters (a point-in-time snapshot).
struct SlotAllocatorStats {
  Index total_slots = 0;
  Index occupied_slots = 0;
  /// Lifetime occupied -> vacant transitions (slot releases).
  std::size_t releases = 0;
  /// Lifetime vacant -> occupied transitions (splice admissions).
  std::size_t acquires = 0;
};

/// Free-list allocator over the fixed slot grid of one formed batch.
///
/// Slots holding at least one segment start occupied; slots the batcher left
/// empty (a slotted row with unfilled slots) start vacant and are available
/// for splicing from the first iteration.
class SlotAllocator {
 public:
  explicit SlotAllocator(const BatchPlan& plan);

  /// Slot-grid size; fixed at construction.
  [[nodiscard]] Index total_slots() const noexcept {
    return static_cast<Index>(grid_.size());
  }

  /// Marks (row, slot) vacant and appends it to the free list. Returns false
  /// (and changes nothing) if the slot was already vacant — release events
  /// are idempotent per occupancy period.
  bool release(Row row, Slot slot);

  /// Marks (row, slot) occupied and removes it from the free list, returning
  /// its span. Returns false if the slot is not currently vacant.
  bool acquire(Row row, Slot slot);

  /// Snapshot of the vacant spans in free-list (release) order — the order
  /// the coordinator offers slots to the scheduler.
  [[nodiscard]] std::vector<SlotSpan> vacant() const;

  /// Widest span in the grid (occupied or not) — the largest request this
  /// batch's frozen geometry could ever admit. The coordinator compares it
  /// against the pending mix to decide when a live batch's geometry has
  /// drifted too far from the arrivals to keep splicing (0 for an empty
  /// grid).
  [[nodiscard]] Index max_span_width() const;

  [[nodiscard]] SlotAllocatorStats stats() const noexcept {
    const auto vacant = static_cast<Index>(free_list_.size());
    return {total_slots(), total_slots() - vacant, releases_, acquires_};
  }

  /// occupied / total, in [0, 1]; 1.0 for an empty grid (nothing to fill).
  [[nodiscard]] double occupied_fraction() const;

 private:
  /// Index into grid_ of (row, slot); throws for a slot outside the grid.
  [[nodiscard]] std::size_t find(Row row, Slot slot) const;

  std::vector<SlotSpan> grid_;
  /// Vacant slots (grid_ indices), oldest release first.
  std::vector<std::size_t> free_list_;
  std::size_t releases_ = 0;
  std::size_t acquires_ = 0;
};

}  // namespace tcb
