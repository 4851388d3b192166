// First-class slot allocator for continuous iteration-level batching
// (DESIGN.md §15).
//
// A formed BatchPlan fixes a grid of slots: under Slotted ConcatBatching
// every row divides into fixed-size slots of length z; under the other
// schemes each row is one slot spanning its full width. The paper's early
// memory cleaning (§4.2.2) frees a slot's K/V caches the moment its last
// decode track finishes — this allocator is what turns that *memory* event
// into a *scheduling* event: the serving coordinator releases the vacated
// slot here, asks for the vacant spans, and splices newly-admitted requests
// into them between decoder iterations.
//
// Thread-safety: in practice only the serving coordinator calls the
// allocator. ServingPipeline steps every live batch inline, multi-worker
// runs included, so releases and acquires both happen on the coordinator
// thread. Every transition still goes through one annotated mutex, kept so
// the allocator stays safe should a caller surface releases from worker
// threads; no caller or test does today. A free list keeps
// release/allocate at O(1)/O(k).
// Vacancy order is the release order (FIFO), which keeps continuous-mode
// runs deterministic: the coordinator processes step events in a canonical
// order, so the free list's history is a pure function of the trace.
#pragma once

#include <cstddef>
#include <vector>

#include "batching/batch_plan.hpp"
#include "parallel/sync.hpp"
#include "util/lifetime.hpp"

namespace tcb {

/// Identity + geometry of one allocatable slot: the reusable column span
/// [begin, begin + width) of `row`.
struct SlotSpan {
  Row row{0};
  Slot slot{0};
  Col begin{0};
  Index width = 0;
};

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
  [[nodiscard]] Index total_slots() const noexcept { return total_slots_; }

  /// Marks (row, slot) vacant and appends it to the free list. Returns false
  /// (and changes nothing) if the slot was already vacant — release events
  /// are idempotent per occupancy period.
  bool release(Row row, Slot slot) TCB_EXCLUDES(mutex_);

  /// Marks (row, slot) occupied and removes it from the free list, returning
  /// its span. Returns false if the slot is not currently vacant.
  bool acquire(Row row, Slot slot) TCB_EXCLUDES(mutex_);

  /// Snapshot of the vacant spans in free-list (release) order — the order
  /// the coordinator offers slots to the scheduler.
  [[nodiscard]] std::vector<SlotSpan> vacant() const TCB_EXCLUDES(mutex_);

  /// Widest span in the grid (occupied or not) — the largest request this
  /// batch's frozen geometry could ever admit. The coordinator compares it
  /// against the pending mix to decide when a live batch's geometry has
  /// drifted too far from the arrivals to keep splicing (0 for an empty
  /// grid).
  [[nodiscard]] Index max_span_width() const TCB_EXCLUDES(mutex_);

  [[nodiscard]] SlotAllocatorStats stats() const TCB_EXCLUDES(mutex_);

  /// occupied / total, in [0, 1]; 1.0 for an empty grid (nothing to fill).
  [[nodiscard]] double occupied_fraction() const TCB_EXCLUDES(mutex_);

 private:
  struct Entry {
    SlotSpan span;
    bool occupied = false;
  };

  /// Index into entries_ for (row, slot), or entries_.size() if unknown.
  [[nodiscard]] std::size_t find(Row row, Slot slot) const
      TCB_REQUIRES(mutex_);

  Index total_slots_ = 0;  ///< immutable after construction

  /// Guards the occupancy grid and free list. Leaf lock of the execution
  /// stage: taken by the serving coordinator around release/splice events,
  /// never while acquiring any other lock.
  mutable Mutex mutex_ TCB_GUARDS(entries_, free_list_, stats_)
      TCB_ACQUIRED_AFTER(lock_order::execution);
  std::vector<Entry> entries_ TCB_GUARDED_BY(mutex_);
  /// Vacant entries, oldest release first.
  std::vector<std::size_t> free_list_ TCB_GUARDED_BY(mutex_);
  SlotAllocatorStats stats_ TCB_GUARDED_BY(mutex_);
};

}  // namespace tcb
