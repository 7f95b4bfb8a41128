#include "index/event_queue.h"

#include <algorithm>
#include <bit>

namespace modb {

void LeftistEventQueue::Index(Heap::Handle handle) {
  const KeyedEvent& entry = handle->value;
  if (entry.key >= handles_.size()) handles_.resize(entry.key + 1, nullptr);
  MODB_CHECK(handles_[entry.key] == nullptr)
      << "pair (" << entry.event.left << ", " << entry.event.right
      << ") under key " << entry.key
      << ": key already has an event (at most one event per key)";
  handles_[entry.key] = handle;
}

void LeftistEventQueue::Push(const SweepEvent& event, Key key) {
  Index(heap_.Push(KeyedEvent{event, key}));
}

bool LeftistEventQueue::ErasePair(Key key, ObjectId left, ObjectId right) {
  if (!HasPair(key, left, right)) return false;
  heap_.Erase(handles_[key]);
  handles_[key] = nullptr;
  return true;
}

bool LeftistEventQueue::HasPair(Key key, ObjectId left, ObjectId right) const {
  const Heap::Handle handle = HandleOf(key);
  return handle != nullptr && handle->value.event.left == left &&
         handle->value.event.right == right;
}

KeyedEvent LeftistEventQueue::PopMin() {
  KeyedEvent min = heap_.PopMin();
  handles_[min.key] = nullptr;
  return min;
}

void LeftistEventQueue::BulkBuild(std::vector<KeyedEvent> events) {
  std::fill(handles_.begin(), handles_.end(), nullptr);
  for (Heap::Handle handle : heap_.BulkBuild(std::move(events))) {
    Index(handle);
  }
}

std::vector<SweepEvent> LeftistEventQueue::Snapshot() const {
  std::vector<SweepEvent> events;
  events.reserve(heap_.size());
  for (const Heap::Handle handle : handles_) {
    if (handle != nullptr) events.push_back(handle->value.event);
  }
  std::sort(events.begin(), events.end(), SweepEventLess());
  return events;
}

void IndexedEventQueue::Cover(Key key) {
  if (key >= pos_.size()) pos_.resize(key + 1, kNone);
}

void IndexedEventQueue::SiftUp(uint32_t pos, KeyedEvent entry) {
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / kArity;
    if (!Less(entry, heap_[parent])) break;
    Place(heap_[parent], pos);
    pos = parent;
  }
  Place(entry, pos);
}

void IndexedEventQueue::SiftDown(uint32_t pos, KeyedEvent entry) {
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  for (;;) {
    const uint32_t first = pos * kArity + 1;
    if (first >= n) break;
    uint32_t best = first;
    const uint32_t last = std::min(first + kArity, n);
    for (uint32_t c = first + 1; c < last; ++c) {
      if (Less(heap_[c], heap_[best])) best = c;
    }
    if (!Less(heap_[best], entry)) break;
    Place(heap_[best], pos);
    pos = best;
  }
  Place(entry, pos);
}

void IndexedEventQueue::RemoveAt(uint32_t pos) {
  const KeyedEvent last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && Less(last, heap_[(pos - 1) / kArity])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void IndexedEventQueue::Push(const SweepEvent& event, Key key) {
  Cover(key);
  MODB_CHECK(pos_[key] == kNone)
      << "pair (" << event.left << ", " << event.right << ") under key "
      << key << ": key already has an event (at most one event per key)";
  heap_.emplace_back();
  SiftUp(static_cast<uint32_t>(heap_.size() - 1), KeyedEvent{event, key});
}

bool IndexedEventQueue::ErasePair(Key key, ObjectId left, ObjectId right) {
  if (!HasPair(key, left, right)) return false;
  const uint32_t pos = pos_[key];
  pos_[key] = kNone;
  RemoveAt(pos);
  return true;
}

bool IndexedEventQueue::HasPair(Key key, ObjectId left, ObjectId right) const {
  const uint32_t pos = PosOf(key);
  return pos != kNone && heap_[pos].event.left == left &&
         heap_[pos].event.right == right;
}

const SweepEvent& IndexedEventQueue::Min() const {
  MODB_CHECK(!heap_.empty());
  return heap_[0].event;
}

KeyedEvent IndexedEventQueue::PopMin() {
  MODB_CHECK(!heap_.empty());
  const KeyedEvent min = heap_[0];
  pos_[min.key] = kNone;
  RemoveAt(0);
  return min;
}

void IndexedEventQueue::BulkBuild(std::vector<KeyedEvent> events) {
  std::fill(pos_.begin(), pos_.end(), kNone);
  const uint32_t n = static_cast<uint32_t>(events.size());
  // The capacity n pushes would have grown to: an exact fit would double
  // at the first push after the build.
  heap_.clear();
  heap_.reserve(std::bit_ceil(static_cast<size_t>(n)));
  heap_.assign(events.begin(), events.end());
  for (uint32_t i = 0; i < n; ++i) {
    const Key key = heap_[i].key;
    Cover(key);
    MODB_CHECK(pos_[key] == kNone) << "duplicate key " << key
                                   << " in BulkBuild";
    pos_[key] = i;
  }
  if (n > 1) {
    // Floyd heapify: sift down every internal node.
    for (uint32_t i = (n - 2) / kArity + 1; i-- > 0;) SiftDown(i, heap_[i]);
  }
}

std::vector<SweepEvent> IndexedEventQueue::Snapshot() const {
  std::vector<SweepEvent> events;
  events.reserve(heap_.size());
  for (const KeyedEvent& entry : heap_) events.push_back(entry.event);
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
