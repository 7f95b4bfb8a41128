#ifndef MODB_INDEX_OID_SLOT_MAP_H_
#define MODB_INDEX_OID_SLOT_MAP_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "trajectory/trajectory.h"

namespace modb {

// ObjectId → dense uint32_t slot, in one flat array: open addressing with
// linear probing and backward-shift erase (no tombstones). Inserting or
// erasing allocates only when the table doubles, so a sweep that maps N
// objects to slots makes O(log N) allocations instead of N hash nodes.
class OidSlotMap {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  size_t size() const { return size_; }

  // The slot stored for `oid`, or kAbsent.
  uint32_t Find(ObjectId oid) const {
    if (cells_.empty()) return kAbsent;
    for (size_t i = Home(oid);; i = (i + 1) & mask_) {
      const Cell& cell = cells_[i];
      if (cell.slot == kAbsent) return kAbsent;
      if (cell.oid == oid) return cell.slot;
    }
  }

  // Maps `oid` (absent) to `slot` (not kAbsent).
  void Insert(ObjectId oid, uint32_t slot) {
    MODB_CHECK_NE(slot, kAbsent);
    Reserve(size_ + 1);
    size_t i = Home(oid);
    for (; cells_[i].slot != kAbsent; i = (i + 1) & mask_) {
      MODB_CHECK_NE(cells_[i].oid, oid) << "oid " << oid << " already mapped";
    }
    cells_[i] = Cell{oid, slot};
    ++size_;
  }

  // Unmaps `oid` (present).
  void Erase(ObjectId oid) {
    MODB_CHECK(!cells_.empty());
    size_t hole = Home(oid);
    while (cells_[hole].oid != oid || cells_[hole].slot == kAbsent) {
      MODB_CHECK_NE(cells_[hole].slot, kAbsent) << "oid " << oid
                                                << " not mapped";
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later cell of the probe run into the hole
    // unless its home lies cyclically after the hole.
    for (size_t j = (hole + 1) & mask_; cells_[j].slot != kAbsent;
         j = (j + 1) & mask_) {
      const size_t home = Home(cells_[j].oid);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].slot = kAbsent;
    --size_;
  }

  // Grows the table so `n` entries keep the load factor at most 1/2.
  void Reserve(size_t n) {
    if (2 * n <= cells_.size()) return;
    size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(capacity, Cell{0, kAbsent});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Cell& cell : old) {
      if (cell.slot == kAbsent) continue;
      size_t i = Home(cell.oid);
      while (cells_[i].slot != kAbsent) i = (i + 1) & mask_;
      cells_[i] = cell;
    }
  }

 private:
  struct Cell {
    ObjectId oid;
    uint32_t slot;  // kAbsent marks an empty cell.
  };

  // Fibonacci hashing: the top bits of oid · 2^64/φ.
  size_t Home(ObjectId oid) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(oid) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<Cell> cells_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace modb

#endif  // MODB_INDEX_OID_SLOT_MAP_H_
