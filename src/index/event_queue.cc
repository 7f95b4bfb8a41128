#include "index/event_queue.h"

#include <algorithm>
#include <bit>

namespace modb {

void LeftistEventQueue::Push(const SweepEvent& event) {
  const PairKey key{event.left, event.right};
  MODB_CHECK(handles_.find(key) == handles_.end())
      << "pair (" << event.left << ", " << event.right
      << ") already has an event";
  handles_[key] = heap_.Push(event);
}

bool LeftistEventQueue::ErasePair(ObjectId left, ObjectId right) {
  auto it = handles_.find(PairKey{left, right});
  if (it == handles_.end()) return false;
  heap_.Erase(it->second);
  handles_.erase(it);
  return true;
}

bool LeftistEventQueue::HasPair(ObjectId left, ObjectId right) const {
  return handles_.count(PairKey{left, right}) > 0;
}

const SweepEvent& LeftistEventQueue::Min() const { return heap_.Min(); }

SweepEvent LeftistEventQueue::PopMin() {
  SweepEvent event = heap_.PopMin();
  handles_.erase(PairKey{event.left, event.right});
  return event;
}

void LeftistEventQueue::BulkBuild(std::vector<SweepEvent> events) {
  handles_.clear();
  std::vector<Heap::Handle> handles = heap_.BulkBuild(std::move(events));
  for (Heap::Handle handle : handles) {
    const SweepEvent& event = handle->value;
    const PairKey key{event.left, event.right};
    MODB_CHECK(handles_.find(key) == handles_.end())
        << "duplicate pair in BulkBuild";
    handles_[key] = handle;
  }
}

std::vector<SweepEvent> LeftistEventQueue::Snapshot() const {
  std::vector<SweepEvent> events;
  events.reserve(handles_.size());
  for (const auto& [key, handle] : handles_) events.push_back(handle->value);
  std::sort(events.begin(), events.end(), SweepEventLess());
  return events;
}

uint32_t IndexedEventQueue::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void IndexedEventQueue::SiftUp(uint32_t pos) {
  const uint32_t slot = heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / kArity;
    if (!Less(slot, heap_[parent])) break;
    MoveTo(heap_[parent], pos);
    pos = parent;
  }
  MoveTo(slot, pos);
}

void IndexedEventQueue::SiftDown(uint32_t pos) {
  const uint32_t slot = heap_[pos];
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  for (;;) {
    const uint32_t first = pos * kArity + 1;
    if (first >= n) break;
    uint32_t best = first;
    const uint32_t last = std::min(first + kArity, n);
    for (uint32_t c = first + 1; c < last; ++c) {
      if (Less(heap_[c], heap_[best])) best = c;
    }
    if (!Less(heap_[best], slot)) break;
    MoveTo(heap_[best], pos);
    pos = best;
  }
  MoveTo(slot, pos);
}

void IndexedEventQueue::RemoveAt(uint32_t pos) {
  const uint32_t last_slot = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  MoveTo(last_slot, pos);
  if (pos > 0 && Less(last_slot, heap_[(pos - 1) / kArity])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void IndexedEventQueue::Push(const SweepEvent& event) {
  auto [it, inserted] = slot_of_.try_emplace(event.left, 0);
  MODB_CHECK(inserted) << "pair (" << event.left << ", " << event.right
                       << ") already has an event (the indexed queue holds "
                          "at most one event per left object)";
  const uint32_t slot = AllocSlot();
  it->second = slot;
  slots_[slot].event = event;
  heap_.push_back(slot);
  slots_[slot].heap_pos = static_cast<uint32_t>(heap_.size() - 1);
  SiftUp(slots_[slot].heap_pos);
}

bool IndexedEventQueue::ErasePair(ObjectId left, ObjectId right) {
  auto it = slot_of_.find(left);
  if (it == slot_of_.end()) return false;
  const uint32_t slot = it->second;
  if (slots_[slot].event.right != right) return false;
  RemoveAt(slots_[slot].heap_pos);
  slot_of_.erase(it);
  free_slots_.push_back(slot);
  return true;
}

bool IndexedEventQueue::HasPair(ObjectId left, ObjectId right) const {
  auto it = slot_of_.find(left);
  return it != slot_of_.end() && slots_[it->second].event.right == right;
}

const SweepEvent& IndexedEventQueue::Min() const {
  MODB_CHECK(!heap_.empty());
  return slots_[heap_[0]].event;
}

SweepEvent IndexedEventQueue::PopMin() {
  MODB_CHECK(!heap_.empty());
  const uint32_t slot = heap_[0];
  SweepEvent event = slots_[slot].event;
  RemoveAt(0);
  slot_of_.erase(event.left);
  free_slots_.push_back(slot);
  return event;
}

void IndexedEventQueue::BulkBuild(std::vector<SweepEvent> events) {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  slot_of_.clear();
  const uint32_t n = static_cast<uint32_t>(events.size());
  // The capacity n pushes would have grown to: an exact fit would double
  // at the first push after the build.
  const size_t capacity = std::bit_ceil(static_cast<size_t>(n));
  slots_.reserve(capacity);
  heap_.reserve(capacity);
  slots_.resize(n);
  heap_.resize(n);
  slot_of_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    slots_[i].event = events[i];
    slots_[i].heap_pos = i;
    heap_[i] = i;
    MODB_CHECK(slot_of_.emplace(events[i].left, i).second)
        << "duplicate pair in BulkBuild";
  }
  if (n > 1) {
    // Floyd heapify: sift down every internal node.
    for (uint32_t i = (n - 2) / kArity + 1; i-- > 0;) SiftDown(i);
  }
}

std::vector<SweepEvent> IndexedEventQueue::Snapshot() const {
  std::vector<SweepEvent> events;
  events.reserve(heap_.size());
  for (uint32_t slot : heap_) events.push_back(slots_[slot].event);
  std::sort(events.begin(), events.end(), SweepEventLess());
  return events;
}

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind) {
  switch (kind) {
    case EventQueueKind::kLeftist:
      return std::make_unique<LeftistEventQueue>();
    case EventQueueKind::kIndexed:
      return std::make_unique<IndexedEventQueue>();
  }
  MODB_CHECK(false) << "unknown event queue kind";
  return nullptr;
}

}  // namespace modb
