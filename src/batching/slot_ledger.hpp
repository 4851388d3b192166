// Slot ledger: the slot grid of one formed batch (slot_grid, the one copy of
// that rule), the group of decode tracks in each slot, and the release of a
// slot when its last unfinished member finishes (paper §4.2.2). Owners keep
// per-track payload indexed by handle; a released slot's handles are reused
// by later admissions. Handle lifetime and the ordering contract: DESIGN.md
// §15.1.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "batching/batch_plan.hpp"

namespace tcb {

/// Identity + geometry of one allocatable slot: the reusable column span
/// [begin, begin + width) of `row`.
struct SlotSpan {
  Row row{0};
  Slot slot{0};
  Col begin{0};
  Index width = 0;
};

/// A slot whose every track finished — vacated and ready for re-use by the
/// continuous-batching coordinator. `begin`/`width` give the reusable column
/// span of the row (the slot span under kSlotted, the whole row otherwise).
struct SlotRelease {
  Row row{0};
  Slot slot{0};
  Col begin{0};
  Index width = 0;
  std::vector<RequestId> finished;  ///< the requests that occupied it
};

/// The slot grid of `plan`, row-major. When `slotted` and plan.slot_len > 0,
/// each row of positive width is cut into slots of slot_len columns, the
/// tail slot clipped to the row; otherwise each such row is one slot.
[[nodiscard]] std::vector<SlotSpan> slot_grid(const BatchPlan& plan,
                                              bool slotted);

class SlotLedger {
 public:
  using Handle = std::size_t;

  /// Admits every segment of `plan` in plan order (handle i is the i-th
  /// segment); segments sharing a grid slot form one group.
  SlotLedger(const BatchPlan& plan, bool slotted);

  [[nodiscard]] bool slotted() const noexcept { return slotted_; }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  /// Occupied slots: groups with an unfinished member.
  [[nodiscard]] std::size_t groups() const noexcept { return occupied_.size(); }
  /// Handles minted so far, bound or free.
  [[nodiscard]] std::size_t handles() const noexcept { return tracks_.size(); }
  [[nodiscard]] std::size_t unfinished() const noexcept { return unfinished_; }
  [[nodiscard]] bool done() const noexcept { return unfinished_ == 0; }
  [[nodiscard]] bool finished(Handle h) const { return tracks_[h].finished; }
  /// The request bound to `h` (the last one, once `h` is free).
  [[nodiscard]] RequestId request_id(Handle h) const { return tracks_[h].id; }

  /// Index of (row, slot) in slot_grid() order; `slot` is ignored when
  /// unslotted. Throws for a slot outside the grid.
  [[nodiscard]] std::size_t slot_index(Row row, Slot slot) const;
  /// Slot `index`'s current group, finished members included.
  [[nodiscard]] std::span<const Handle> members(std::size_t index) const
      TCB_LIFETIME_BOUND {
    return slots_[index].members;
  }
  [[nodiscard]] std::span<const Handle> group(Handle h) const
      TCB_LIFETIME_BOUND {
    return members(tracks_[h].slot);
  }

  /// Calls f(group) for every occupied slot, in contract order.
  template <class F>
  void for_each_group(F&& f) const {
    for (const std::size_t s : occupied_) f(members(s));
  }
  /// Calls f(h) for every unfinished track, in contract order.
  template <class F>
  void for_each_unfinished(F&& f) const {
    for (const std::size_t s : occupied_)
      for (const Handle h : slots_[s].members)
        if (!tracks_[h].finished) f(h);
  }

  /// Binds `ids`, in order, as slot (row, slot)'s new group over [begin,
  /// begin + width) and returns it. Throws if the slot has a live member.
  std::span<const Handle> admit(Row row, Slot slot, Col begin, Index width,
                                std::span<const RequestId> ids)
      TCB_LIFETIME_BOUND;

  /// One step's bookkeeping: advance(h) runs for every unfinished track in
  /// contract order and returns true when h emitted its last token. A slot
  /// whose last unfinished member finished is released: on_release(slot
  /// index, group) runs while the group is still bound, its SlotRelease is
  /// appended to `released`, and its handles become free.
  template <class Advance, class OnRelease>
  void step(Advance&& advance, OnRelease&& on_release,
            std::vector<SlotRelease>& released) {
    std::size_t kept = 0;
    for (const std::size_t s : occupied_) {
      Group& g = slots_[s];
      for (const Handle h : g.members)
        if (!tracks_[h].finished && advance(h)) {
          tracks_[h].finished = true;
          g.unfinished -= 1;
          unfinished_ -= 1;
        }
      if (g.unfinished > 0) {
        occupied_[kept++] = s;
        continue;
      }
      on_release(s, std::span<const Handle>(g.members));
      released.push_back(release(g));
    }
    occupied_.resize(kept);
  }

 private:
  struct Group {
    SlotSpan span;
    std::vector<Handle> members;
    std::size_t unfinished = 0;
  };
  struct Track {
    std::size_t slot = 0;
    RequestId id = -1;
    bool finished = false;
  };

  /// g's release event; its handles join the free list.
  SlotRelease release(const Group& g);
  void bind(std::size_t slot, RequestId id);

  bool slotted_ = false;
  std::vector<Group> slots_;            ///< slot_grid() order
  std::vector<std::size_t> occupied_;   ///< contract order
  std::vector<Track> tracks_;           ///< per handle
  std::vector<Handle> free_;
  std::size_t unfinished_ = 0;
};

}  // namespace tcb
