#ifndef MODB_INDEX_ORDERED_SEQUENCE_H_
#define MODB_INDEX_ORDERED_SEQUENCE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/check.h"
#include "index/oid_slot_map.h"
#include "trajectory/trajectory.h"

namespace modb {

// The sweep's "object list L": a balanced search tree maintaining objects in
// precedence order (≤_τ, Definition 7). The order — not any stored key — is
// the invariant: curve values drift continuously with time, but the relative
// order only changes at curve intersections, which the sweep applies as
// adjacent swaps. The paper prescribes "a balanced binary search tree (such
// as AVL or red-black tree)"; we use a treap with subtree sizes, which adds
// O(log N) rank/select needed by the k-NN kernel, plus prev/next threading
// by slot for O(1) neighbor access.
//
// Operations and costs (N = size):
//   Insert        O(log N) expected (descends using caller-supplied values)
//   AssignSorted  O(N) (rebuilds the whole order from a sorted sequence)
//   Erase         O(log N) expected
//   Prev/Next     O(1) (PrevSlot/NextSlot: O(1) with no oid probe)
//   SwapAdjacent  O(1)
//   Rank/At       O(log N)
//
// Storage: each resident gets a dense slot, stable from its insertion to
// its erase and reused afterwards, so an owner (SweepState) can keep its
// per-object state in slot-indexed vectors. One flat OidSlotMap resolves
// oid → slot; nodes live in one vector with a free list, and slot → node
// is one more vector. The in-order threading is slot-indexed too: each
// slot holds its neighbours' slots, so PrevSlot/NextSlot are one load and
// the tree nodes carry no threading. Nothing is allocated per object: a
// founding grows a handful of vectors and a teardown frees them. The
// slot-keyed methods (PrevSlot, NextSlot, SwapAdjacent, Erase) touch no
// hash table, which is what the sweep's per-event path runs on.
class OrderedSequence {
 public:
  using Slot = uint32_t;
  // No slot: PrevSlot/NextSlot at the ends, FindSlot of a non-resident.
  static constexpr Slot kNoSlot = OidSlotMap::kAbsent;

  // `seed` fixes treap priorities for reproducibility.
  explicit OrderedSequence(uint64_t seed = 0x9E3779B97F4A7C15ull);

  OrderedSequence(const OrderedSequence&) = delete;
  OrderedSequence& operator=(const OrderedSequence&) = delete;

  size_t size() const { return slot_of_.size(); }
  bool empty() const { return size() == 0; }
  bool Contains(ObjectId oid) const { return FindSlot(oid) != kNoSlot; }

  // The slot of resident `oid`, in [0, slot_bound()).
  Slot SlotOf(ObjectId oid) const;
  // The slot of `oid`, or kNoSlot if it is not resident.
  Slot FindSlot(ObjectId oid) const { return slot_of_.Find(oid); }
  // The resident in `slot`.
  ObjectId OidOf(Slot slot) const { return oid_of_[slot]; }
  // One past the largest slot ever handed out.
  size_t slot_bound() const { return oid_of_.size(); }

  // Inserts `oid` at the position determined by `value` relative to the
  // current values of resident objects, obtained by slot via `value_of`.
  // Ties place the new object after existing equals. `oid` must not be
  // present. Returns its slot.
  Slot Insert(ObjectId oid, double value,
              const std::function<double(Slot)>& value_of);

  // Replaces the order with `sequence`, front to back: O(N). It must hold
  // every resident exactly once (residents keep their slots, nodes and
  // priorities) plus any number of new oids. The treap is rebuilt as the
  // Cartesian tree of the priorities in one stack pass — the Theorem 5.1
  // founding, which sorts once instead of descending N times.
  void AssignSorted(const std::vector<ObjectId>& sequence);

  // Removes the resident in `slot`; the slot may be reused.
  void Erase(Slot slot);

  // The neighbor before/after `oid` in precedence order; nullopt at the
  // ends. O(1).
  std::optional<ObjectId> Prev(ObjectId oid) const;
  std::optional<ObjectId> Next(ObjectId oid) const;

  // The slot of the resident before/after the one in `slot` (a resident's
  // slot); kNoSlot at the ends. O(1).
  Slot PrevSlot(Slot slot) const { return links_[slot].prev; }
  Slot NextSlot(Slot slot) const { return links_[slot].next; }

  // Exchanges the residents in two *adjacent* slots (`left`'s must
  // immediately precede `right`'s): the two-step order switch the sweep
  // performs when their curves cross. O(1): the two nodes exchange their
  // slots, slot → node follows, and the six link fields around the pair
  // are rewired; each resident keeps its slot.
  void SwapAdjacent(Slot left, Slot right);

  // 0-based position of `oid` in precedence order. O(log N).
  size_t Rank(ObjectId oid) const;

  // The object at 0-based position `rank`. O(log N).
  ObjectId At(size_t rank) const;

  // First (minimal) and last objects; the sequence must be nonempty.
  ObjectId Front() const;
  ObjectId Back() const;

  // The full order, front to back. O(N).
  std::vector<ObjectId> ToVector() const;
  // The residents' slots in the same order. O(N).
  std::vector<Slot> ToSlots() const;

  // The deepest tree level seen so far (root = 1; 0 before anything was
  // placed): the height of every tree AssignSorted built, and the depth
  // of every Insert's descent. Kept in O(1) on those paths, so
  // instrumentation watches treap balance without walking the tree.
  size_t depth_watermark() const { return depth_watermark_; }

  // Verifies structural invariants (sizes, the slot links, heap property,
  // the slot maps); aborts on violation. For tests.
  void CheckInvariants() const;

 private:
  using NodeId = uint32_t;
  static constexpr NodeId kNil = UINT32_MAX;

  struct Node {
    uint64_t priority;
    Slot slot;
    uint32_t size;
    NodeId parent;
    NodeId left;
    NodeId right;
  };

  // A slot's in-order neighbours (kNoSlot at the ends).
  struct Links {
    Slot prev;
    Slot next;
  };

  NodeId NodeOf(ObjectId oid) const { return node_of_[SlotOf(oid)]; }
  ObjectId OidAtNode(NodeId node) const { return oid_of_[nodes_[node].slot]; }
  // Gives `oid` a slot and a fresh unlinked node (free lists first).
  NodeId Allocate(ObjectId oid);
  void RotateUp(NodeId node);
  uint32_t SubtreeSize(NodeId node) const;
  void PullSize(NodeId node);
  uint64_t NextPriority();

  NodeId root_ = kNil;
  // The first and last residents' slots.
  Slot head_ = kNoSlot;
  Slot tail_ = kNoSlot;
  std::vector<Node> nodes_;
  std::vector<NodeId> free_nodes_;
  OidSlotMap slot_of_;
  std::vector<ObjectId> oid_of_;   // slot -> oid
  std::vector<NodeId> node_of_;    // slot -> node
  std::vector<Links> links_;       // slot -> in-order neighbours
  std::vector<Slot> free_slots_;
  uint64_t rng_state_;
  size_t depth_watermark_ = 0;
};

}  // namespace modb

#endif  // MODB_INDEX_ORDERED_SEQUENCE_H_
