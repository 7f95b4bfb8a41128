#ifndef MODB_INDEX_ORDERED_SEQUENCE_H_
#define MODB_INDEX_ORDERED_SEQUENCE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "trajectory/trajectory.h"

namespace modb {

// The sweep's "object list L": a balanced search tree maintaining objects in
// precedence order (≤_τ, Definition 7). The order — not any stored key — is
// the invariant: curve values drift continuously with time, but the relative
// order only changes at curve intersections, which the sweep applies as
// adjacent swaps. The paper prescribes "a balanced binary search tree (such
// as AVL or red-black tree)"; we use a treap with subtree sizes, which adds
// O(log N) rank/select needed by the k-NN kernel, plus intrusive prev/next
// threading for O(1) neighbor access.
//
// Operations and costs (N = size):
//   Insert        O(log N) expected (descends using caller-supplied values)
//   AssignSorted  O(N) (rebuilds the whole order from a sorted sequence)
//   Erase         O(log N) expected
//   Prev/Next     O(1)
//   SwapAdjacent  O(1)
//   Rank/At       O(log N)
class OrderedSequence {
 public:
  // `seed` fixes treap priorities for reproducibility.
  explicit OrderedSequence(uint64_t seed = 0x9E3779B97F4A7C15ull);
  ~OrderedSequence();

  OrderedSequence(const OrderedSequence&) = delete;
  OrderedSequence& operator=(const OrderedSequence&) = delete;

  size_t size() const { return by_oid_.size(); }
  bool empty() const { return by_oid_.empty(); }
  bool Contains(ObjectId oid) const { return by_oid_.count(oid) > 0; }

  // Inserts `oid` at the position determined by `value` relative to the
  // current values of resident objects, obtained via `value_of`. Ties place
  // the new object after existing equals. `oid` must not be present.
  void Insert(ObjectId oid, double value,
              const std::function<double(ObjectId)>& value_of);

  // Replaces the order with `sequence`, front to back: O(N). It must hold
  // every resident exactly once (residents keep their nodes and
  // priorities) plus any number of new oids. The treap is rebuilt as the
  // Cartesian tree of the priorities in one stack pass — the Theorem 5.1
  // founding, which sorts once instead of descending N times.
  void AssignSorted(const std::vector<ObjectId>& sequence);

  // Removes `oid` (must be present).
  void Erase(ObjectId oid);

  // The neighbor before/after `oid` in precedence order; nullopt at the
  // ends. O(1).
  std::optional<ObjectId> Prev(ObjectId oid) const;
  std::optional<ObjectId> Next(ObjectId oid) const;

  // Exchanges two *adjacent* objects (left must immediately precede right):
  // the two-step order switch the sweep performs when their curves cross.
  // O(1).
  void SwapAdjacent(ObjectId left, ObjectId right);

  // 0-based position of `oid` in precedence order. O(log N).
  size_t Rank(ObjectId oid) const;

  // The object at 0-based position `rank`. O(log N).
  ObjectId At(size_t rank) const;

  // First (minimal) and last objects; the sequence must be nonempty.
  ObjectId Front() const;
  ObjectId Back() const;

  // The full order, front to back. O(N).
  std::vector<ObjectId> ToVector() const;

  // Depth of the BST descent the most recent Insert performed (root = 1;
  // 0 until the first insert). Tracked in O(1) during the existing
  // descent, so instrumentation can watch treap balance without an O(N)
  // walk on the hot path.
  size_t last_insert_depth() const { return last_insert_depth_; }

  // Exact height of the tree (root = 1; 0 when empty). O(N) — for
  // diagnostics/exports only, never the hot path.
  size_t Depth() const;

  // Verifies structural invariants (sizes, threading, heap property);
  // aborts on violation. For tests.
  void CheckInvariants() const;

 private:
  struct Node;

  Node* NodeFor(ObjectId oid) const;
  void RotateUp(Node* node);
  size_t SubtreeSize(const Node* node) const;
  void PullSize(Node* node);
  uint64_t NextPriority();

  Node* root_ = nullptr;
  // Threading sentinels would complicate payload swaps; head/tail pointers
  // suffice.
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::unordered_map<ObjectId, Node*> by_oid_;
  uint64_t rng_state_;
  size_t last_insert_depth_ = 0;
};

}  // namespace modb

#endif  // MODB_INDEX_ORDERED_SEQUENCE_H_
