#ifndef MODB_COMMON_SLOT_GROWTH_H_
#define MODB_COMMON_SLOT_GROWTH_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace modb {

// Makes room in slot-indexed `v` for `n` entries. Capacity grows by an
// eighth (or to `n`, if more), not doubled: after a founding sizes a
// sweep's slot arrays exactly, slots are handed out one at a time (a
// sentinel, a new object), and doubling a founded fleet's arrays for one
// of those would hold the fleet's whole size again in slack. Still
// geometric, so appends stay amortized O(1).
template <typename T>
void ReserveSlots(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) {
    v->reserve(std::max(n, v->capacity() + v->capacity() / 8));
  }
}

}  // namespace modb

#endif  // MODB_COMMON_SLOT_GROWTH_H_
