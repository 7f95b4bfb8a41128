#ifndef MODB_INDEX_EVENT_QUEUE_H_
#define MODB_INDEX_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

// A queued event with its key. The sweep keys each event by its left
// object's OrderedSequence slot, so a key holds at most one event.
struct KeyedEvent {
  SweepEvent event;
  uint32_t key = 0;

  friend bool operator==(const KeyedEvent& a, const KeyedEvent& b) {
    return a.event == b.event && a.key == b.key;
  }
};

// The event queue E of §5. Per Lemma 9's scheme it holds at most one event
// per pair of *currently adjacent* objects (their earliest future
// intersection); when two objects cease to be adjacent their event is
// deleted. This bounds the queue length by N - 1.
//
// Every event is queued under a caller-chosen dense key, at most one event
// per key. The sweep uses the left object's slot: it only queues (l, r)
// while r is l's successor, so each object is the left end of at most one
// event. The order stays SweepEventLess, by oids, never by key: with one
// event per left object, (time, left) is already a strict total order over
// the queue, so the pop sequence does not depend on the keys.
class EventQueue {
 public:
  using Key = uint32_t;

  virtual ~EventQueue() = default;

  // Inserts `event` under `key`, which must hold no event.
  virtual void Push(const SweepEvent& event, Key key) = 0;

  // Removes the event under `key` if it is the pair (left, right)'s;
  // returns whether one was removed.
  virtual bool ErasePair(Key key, ObjectId left, ObjectId right) = 0;

  // Whether the event under `key` is the pair (left, right)'s.
  virtual bool HasPair(Key key, ObjectId left, ObjectId right) const = 0;

  // Whether any event is queued under `key`.
  virtual bool HasKey(Key key) const = 0;

  // The earliest event (queue must be nonempty).
  virtual const SweepEvent& Min() const = 0;

  // Removes and returns the earliest event with its key.
  virtual KeyedEvent PopMin() = 0;

  // Replaces the queue contents with `events` (at most one per key).
  // O(|events|) plus the key index's size — the Theorem 10 fast path.
  virtual void BulkBuild(std::vector<KeyedEvent> events) = 0;

  // Every queued event, sorted by SweepEventLess. O(N log N); audit and
  // debugging only — not on the sweep's hot path.
  virtual std::vector<SweepEvent> Snapshot() const = 0;

  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  virtual std::string name() const = 0;
};

// Lemma 9's implementation: a height-biased leftist tree whose nodes hold
// each event beside its key, with a key-indexed vector of node handles as
// the "bi-directional pointers". One node is allocated per push; kept as
// the paper's structure for the E10 ablation.
class LeftistEventQueue : public EventQueue {
 public:
  void Push(const SweepEvent& event, Key key) override;
  bool ErasePair(Key key, ObjectId left, ObjectId right) override;
  bool HasPair(Key key, ObjectId left, ObjectId right) const override;
  bool HasKey(Key key) const override { return HandleOf(key) != nullptr; }
  const SweepEvent& Min() const override { return heap_.Min().event; }
  KeyedEvent PopMin() override;
  void BulkBuild(std::vector<KeyedEvent> events) override;
  std::vector<SweepEvent> Snapshot() const override;
  size_t size() const override { return heap_.size(); }
  std::string name() const override { return "leftist"; }

 private:
  struct KeyedLess {
    bool operator()(const KeyedEvent& a, const KeyedEvent& b) const {
      return SweepEventLess()(a.event, b.event);
    }
  };
  using Heap = LeftistHeap<KeyedEvent, KeyedLess>;

  Heap::Handle HandleOf(Key key) const {
    return key < handles_.size() ? handles_[key] : nullptr;
  }
  // Records `handle` under its event's key, which must hold none.
  void Index(Heap::Handle handle);

  Heap heap_;
  std::vector<Heap::Handle> handles_;  // key -> node; null when empty.
};

// The sweep's workhorse: a 4-ary array min-heap of KeyedEvents stored
// inline, plus a flat key -> heap position vector. Push/ErasePair are one
// array read plus a short sift over 32-byte entries; nothing is hashed and
// nothing is allocated per event (the two vectors grow with the largest
// key and the queue length, and keep their capacity).
class IndexedEventQueue : public EventQueue {
 public:
  void Push(const SweepEvent& event, Key key) override;
  bool ErasePair(Key key, ObjectId left, ObjectId right) override;
  bool HasPair(Key key, ObjectId left, ObjectId right) const override;
  bool HasKey(Key key) const override { return PosOf(key) != kNone; }
  const SweepEvent& Min() const override;
  KeyedEvent PopMin() override;
  void BulkBuild(std::vector<KeyedEvent> events) override;
  std::vector<SweepEvent> Snapshot() const override;
  size_t size() const override { return heap_.size(); }
  std::string name() const override { return "indexed"; }

 private:
  static constexpr uint32_t kArity = 4;
  static constexpr uint32_t kNone = UINT32_MAX;

  static bool Less(const KeyedEvent& a, const KeyedEvent& b) {
    return SweepEventLess()(a.event, b.event);
  }
  uint32_t PosOf(Key key) const {
    return key < pos_.size() ? pos_[key] : kNone;
  }
  void Place(const KeyedEvent& entry, uint32_t pos) {
    heap_[pos] = entry;
    pos_[entry.key] = pos;
  }
  // Move `entry` from the hole at `pos` up or down to its place.
  void SiftUp(uint32_t pos, KeyedEvent entry);
  void SiftDown(uint32_t pos, KeyedEvent entry);
  // Removes the entry at `pos` (its key already unindexed).
  void RemoveAt(uint32_t pos);
  // Grows pos_ so `key` indexes it.
  void Cover(Key key);

  std::vector<KeyedEvent> heap_;  // Heap-ordered by event.
  std::vector<uint32_t> pos_;     // key -> heap position; kNone when empty.
};

// Which EventQueue implementation an engine should use.
enum class EventQueueKind { kLeftist, kIndexed };

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind);

}  // namespace modb

#endif  // MODB_INDEX_EVENT_QUEUE_H_
