#ifndef MODB_INDEX_EVENT_QUEUE_H_
#define MODB_INDEX_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "index/leftist_heap.h"
#include "trajectory/trajectory.h"

namespace modb {

// An intersection event: the g-distance curves of `left` and `right` —
// currently adjacent, with `left` preceding — cross at `time`.
struct SweepEvent {
  double time = 0.0;
  ObjectId left = kInvalidObjectId;
  ObjectId right = kInvalidObjectId;

  friend bool operator==(const SweepEvent& a, const SweepEvent& b) {
    return a.time == b.time && a.left == b.left && a.right == b.right;
  }
};

// Deterministic ordering: by time, ties broken by the pair.
struct SweepEventLess {
  bool operator()(const SweepEvent& a, const SweepEvent& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  }
};

// The event queue E of §5, keyed by adjacent pair. Per Lemma 9's scheme it
// holds at most one event per pair of *currently adjacent* objects (their
// earliest future intersection); when two objects cease to be adjacent their
// event is deleted. This bounds the queue length by N - 1.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  // Inserts an event for the pair (event.left, event.right); the pair must
  // not already have an event.
  virtual void Push(const SweepEvent& event) = 0;

  // Removes the pair's event if present; returns whether one was removed.
  virtual bool ErasePair(ObjectId left, ObjectId right) = 0;

  virtual bool HasPair(ObjectId left, ObjectId right) const = 0;

  // The earliest event (queue must be nonempty).
  virtual const SweepEvent& Min() const = 0;

  // Removes and returns the earliest event.
  virtual SweepEvent PopMin() = 0;

  // Replaces the queue contents with `events` (at most one per pair).
  // O(|events|) for the leftist implementation — the Theorem 10 fast path.
  virtual void BulkBuild(std::vector<SweepEvent> events) = 0;

  // Every queued event, sorted by SweepEventLess. O(N log N); audit and
  // debugging only — not on the sweep's hot path.
  virtual std::vector<SweepEvent> Snapshot() const = 0;

  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  virtual std::string name() const = 0;
};

// Lemma 9's implementation: a height-biased leftist tree with handles kept
// in a pair-keyed map ("bi-directional pointers").
class LeftistEventQueue : public EventQueue {
 public:
  void Push(const SweepEvent& event) override;
  bool ErasePair(ObjectId left, ObjectId right) override;
  bool HasPair(ObjectId left, ObjectId right) const override;
  const SweepEvent& Min() const override;
  SweepEvent PopMin() override;
  void BulkBuild(std::vector<SweepEvent> events) override;
  std::vector<SweepEvent> Snapshot() const override;
  size_t size() const override { return heap_.size(); }
  std::string name() const override { return "leftist"; }

 private:
  using Heap = LeftistHeap<SweepEvent, SweepEventLess>;
  using PairKey = std::pair<ObjectId, ObjectId>;

  Heap heap_;
  std::map<PairKey, Heap::Handle> handles_;
};

// The sweep's workhorse: a 4-ary array min-heap indexed by the event's
// *left* object. Lemma 9 keys events by adjacent pair, but the sweep only
// ever queues an event for a pair (l, r) while r is l's current successor —
// so each object is the left endpoint of at most one queued event, and a
// dense slot per left object replaces the pair-keyed map of handles. No
// per-node allocation, no tree rebalancing: Push/ErasePair are one hash
// probe plus a short sift in a flat array. Requires the one-event-per-left
// invariant (Push CHECK-fails on a second event for the same left object);
// SweepState maintains it at every schedule site.
class IndexedEventQueue : public EventQueue {
 public:
  void Push(const SweepEvent& event) override;
  bool ErasePair(ObjectId left, ObjectId right) override;
  bool HasPair(ObjectId left, ObjectId right) const override;
  const SweepEvent& Min() const override;
  SweepEvent PopMin() override;
  void BulkBuild(std::vector<SweepEvent> events) override;
  std::vector<SweepEvent> Snapshot() const override;
  size_t size() const override { return heap_.size(); }
  std::string name() const override { return "indexed"; }

 private:
  static constexpr uint32_t kArity = 4;

  struct Slot {
    SweepEvent event;
    uint32_t heap_pos = 0;
  };

  bool Less(uint32_t a, uint32_t b) const {
    return SweepEventLess()(slots_[a].event, slots_[b].event);
  }
  void MoveTo(uint32_t slot, uint32_t pos) {
    heap_[pos] = slot;
    slots_[slot].heap_pos = pos;
  }
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);
  void RemoveAt(uint32_t pos);
  uint32_t AllocSlot();

  std::vector<uint32_t> heap_;   // Slot indices, heap-ordered by event.
  std::vector<Slot> slots_;      // Stable storage; freed entries recycled.
  std::vector<uint32_t> free_slots_;
  std::unordered_map<ObjectId, uint32_t> slot_of_;  // left -> slot index.
};

// Which EventQueue implementation an engine should use.
enum class EventQueueKind { kLeftist, kIndexed };

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind);

}  // namespace modb

#endif  // MODB_INDEX_EVENT_QUEUE_H_
