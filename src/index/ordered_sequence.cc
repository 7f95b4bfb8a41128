#include "index/ordered_sequence.h"

#include <algorithm>

#include "common/slot_growth.h"

namespace modb {

OrderedSequence::OrderedSequence(uint64_t seed) : rng_state_(seed | 1) {}

uint64_t OrderedSequence::NextPriority() {
  // xorshift64*: cheap, deterministic, good enough for treap priorities.
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return x * 0x2545F4914F6CDD1Dull;
}

OrderedSequence::Slot OrderedSequence::SlotOf(ObjectId oid) const {
  const Slot slot = slot_of_.Find(oid);
  MODB_CHECK(slot != OidSlotMap::kAbsent) << "oid " << oid
                                          << " not in sequence";
  return slot;
}

OrderedSequence::NodeId OrderedSequence::Allocate(ObjectId oid) {
  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(oid_of_.size());
    ReserveSlots(&oid_of_, slot + 1);
    ReserveSlots(&node_of_, slot + 1);
    ReserveSlots(&links_, slot + 1);
    oid_of_.push_back(oid);
    node_of_.push_back(kNil);
    links_.push_back(Links{kNoSlot, kNoSlot});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    oid_of_[slot] = oid;
  }
  slot_of_.Insert(oid, slot);
  NodeId node;
  if (free_nodes_.empty()) {
    node = static_cast<NodeId>(nodes_.size());
    ReserveSlots(&nodes_, nodes_.size() + 1);
    nodes_.emplace_back();
  } else {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  }
  nodes_[node] = Node{NextPriority(), slot, 1, kNil, kNil, kNil};
  node_of_[slot] = node;
  return node;
}

uint32_t OrderedSequence::SubtreeSize(NodeId node) const {
  return node == kNil ? 0 : nodes_[node].size;
}

void OrderedSequence::PullSize(NodeId node) {
  Node& n = nodes_[node];
  n.size = 1 + SubtreeSize(n.left) + SubtreeSize(n.right);
}

// Rotates `node` above its parent, preserving in-order sequence and sizes.
void OrderedSequence::RotateUp(NodeId node) {
  Node& n = nodes_[node];
  const NodeId parent = n.parent;
  MODB_CHECK(parent != kNil);
  Node& p = nodes_[parent];
  const NodeId grand = p.parent;

  if (p.left == node) {
    p.left = n.right;
    if (n.right != kNil) nodes_[n.right].parent = parent;
    n.right = parent;
  } else {
    MODB_CHECK(p.right == node);
    p.right = n.left;
    if (n.left != kNil) nodes_[n.left].parent = parent;
    n.left = parent;
  }
  p.parent = node;
  n.parent = grand;
  if (grand != kNil) {
    Node& g = nodes_[grand];
    if (g.left == parent) {
      g.left = node;
    } else {
      g.right = node;
    }
  } else {
    root_ = node;
  }
  PullSize(parent);
  PullSize(node);
}

OrderedSequence::Slot OrderedSequence::Insert(
    ObjectId oid, double value, const std::function<double(Slot)>& value_of) {
  MODB_CHECK(!Contains(oid)) << "duplicate insert of oid " << oid;
  const NodeId node = Allocate(oid);

  // BST descent by comparing values at the current sweep time. Ties go
  // right (insert after existing equals).
  NodeId parent = kNil;
  NodeId pred = kNil;  // Last node we descended right from.
  NodeId succ = kNil;  // Last node we descended left from.
  NodeId cursor = root_;
  bool went_left = false;
  size_t depth = 1;
  while (cursor != kNil) {
    parent = cursor;
    ++depth;
    const Node& c = nodes_[cursor];
    if (value < value_of(c.slot)) {
      succ = cursor;
      cursor = c.left;
      went_left = true;
    } else {
      pred = cursor;
      cursor = c.right;
      went_left = false;
    }
  }
  depth_watermark_ = std::max(depth_watermark_, parent == kNil ? 1 : depth);
  nodes_[node].parent = parent;
  if (parent == kNil) {
    root_ = node;
  } else if (went_left) {
    nodes_[parent].left = node;
  } else {
    nodes_[parent].right = node;
  }
  // Update sizes along the path.
  for (NodeId up = parent; up != kNil; up = nodes_[up].parent) {
    ++nodes_[up].size;
  }
  // Restore the heap property.
  while (nodes_[node].parent != kNil &&
         nodes_[node].priority < nodes_[nodes_[node].parent].priority) {
    RotateUp(node);
  }
  // Thread into the in-order list.
  const Slot slot = nodes_[node].slot;
  const Slot prev = pred == kNil ? kNoSlot : nodes_[pred].slot;
  const Slot next = succ == kNil ? kNoSlot : nodes_[succ].slot;
  links_[slot] = Links{prev, next};
  (prev != kNoSlot ? links_[prev].next : head_) = slot;
  (next != kNoSlot ? links_[next].prev : tail_) = slot;
  return slot;
}

void OrderedSequence::AssignSorted(const std::vector<ObjectId>& sequence) {
  // size 0 marks a resident not yet placed, so a repeat or a missing
  // resident is caught below.
  for (Slot slot = head_; slot != kNoSlot; slot = links_[slot].next) {
    nodes_[node_of_[slot]].size = 0;
  }
  slot_of_.Reserve(sequence.size());
  nodes_.reserve(nodes_.size() + sequence.size());
  oid_of_.reserve(oid_of_.size() + sequence.size());
  node_of_.reserve(node_of_.size() + sequence.size());
  links_.reserve(links_.size() + sequence.size());
  // The right spine of the tree built so far, each with its subtree's
  // height. Each new node pops the spine nodes of larger priority (they
  // become its left subtree, now complete, so their sizes are final) and
  // hangs as the right child of the spine node left standing.
  struct Spine {
    NodeId node;
    size_t height;
  };
  std::vector<Spine> spine;
  size_t height = 0;
  Slot prev = kNoSlot;
  for (const ObjectId oid : sequence) {
    Slot slot = slot_of_.Find(oid);
    NodeId node;
    if (slot != OidSlotMap::kAbsent) {
      node = node_of_[slot];
      MODB_CHECK_EQ(nodes_[node].size, 0u) << "oid " << oid << " repeated";
    } else {
      node = Allocate(oid);
      slot = nodes_[node].slot;
    }
    Node& n = nodes_[node];
    n.size = 1;
    n.parent = n.left = n.right = kNil;
    links_[slot] = Links{prev, kNoSlot};
    (prev != kNoSlot ? links_[prev].next : head_) = slot;
    prev = slot;
    // A popped node's subtree is its left child's plus its right spine
    // successor's, so heights fold up the stack as sizes do.
    NodeId popped = kNil;
    size_t popped_height = 0;
    while (!spine.empty() && nodes_[spine.back().node].priority > n.priority) {
      popped = spine.back().node;
      popped_height = std::max(spine.back().height, popped_height + 1);
      spine.pop_back();
      PullSize(popped);
    }
    n.left = popped;
    if (popped != kNil) nodes_[popped].parent = node;
    if (!spine.empty()) {
      nodes_[spine.back().node].right = node;
      n.parent = spine.back().node;
    }
    spine.push_back(Spine{node, popped_height + 1});
  }
  tail_ = prev;
  root_ = spine.empty() ? kNil : spine.front().node;
  while (!spine.empty()) {
    PullSize(spine.back().node);
    height = std::max(spine.back().height, height + 1);
    spine.pop_back();
  }
  depth_watermark_ = std::max(depth_watermark_, height);
  MODB_CHECK_EQ(size(), sequence.size())
      << "AssignSorted must keep every resident";
}

void OrderedSequence::Erase(Slot slot) {
  MODB_CHECK(slot < node_of_.size() && node_of_[slot] != kNil)
      << "slot " << slot << " holds no resident";
  const NodeId node = node_of_[slot];
  // Unthread.
  const auto [prev, next] = links_[slot];
  (prev != kNoSlot ? links_[prev].next : head_) = next;
  (next != kNoSlot ? links_[next].prev : tail_) = prev;
  // Rotate down to a leaf, then unlink.
  while (nodes_[node].left != kNil || nodes_[node].right != kNil) {
    const Node& n = nodes_[node];
    NodeId child;
    if (n.left == kNil) {
      child = n.right;
    } else if (n.right == kNil) {
      child = n.left;
    } else {
      child = (nodes_[n.left].priority < nodes_[n.right].priority) ? n.left
                                                                   : n.right;
    }
    RotateUp(child);
  }
  const NodeId parent = nodes_[node].parent;
  if (parent == kNil) {
    root_ = kNil;
  } else if (nodes_[parent].left == node) {
    nodes_[parent].left = kNil;
  } else {
    nodes_[parent].right = kNil;
  }
  for (NodeId up = parent; up != kNil; up = nodes_[up].parent) {
    --nodes_[up].size;
  }
  slot_of_.Erase(oid_of_[slot]);
  node_of_[slot] = kNil;
  free_slots_.push_back(slot);
  free_nodes_.push_back(node);
}

std::optional<ObjectId> OrderedSequence::Prev(ObjectId oid) const {
  const Slot prev = PrevSlot(SlotOf(oid));
  if (prev == kNoSlot) return std::nullopt;
  return oid_of_[prev];
}

std::optional<ObjectId> OrderedSequence::Next(ObjectId oid) const {
  const Slot next = NextSlot(SlotOf(oid));
  if (next == kNoSlot) return std::nullopt;
  return oid_of_[next];
}

void OrderedSequence::SwapAdjacent(Slot left, Slot right) {
  const NodeId a = node_of_[left];
  const NodeId b = node_of_[right];
  MODB_CHECK(a != kNil && b != kNil && links_[left].next == right)
      << "SwapAdjacent on non-adjacent slots " << left << ", " << right;
  // Payload swap: tree shape and sizes are order-positional and stay put;
  // only the slots exchange nodes.
  std::swap(nodes_[a].slot, nodes_[b].slot);
  std::swap(node_of_[left], node_of_[right]);
  // prev, left, right, next becomes prev, right, left, next.
  const Slot prev = links_[left].prev;
  const Slot next = links_[right].next;
  (prev != kNoSlot ? links_[prev].next : head_) = right;
  (next != kNoSlot ? links_[next].prev : tail_) = left;
  links_[right] = Links{prev, left};
  links_[left] = Links{right, next};
}

size_t OrderedSequence::Rank(ObjectId oid) const {
  NodeId node = NodeOf(oid);
  size_t rank = SubtreeSize(nodes_[node].left);
  while (nodes_[node].parent != kNil) {
    const NodeId parent = nodes_[node].parent;
    if (nodes_[parent].right == node) {
      rank += SubtreeSize(nodes_[parent].left) + 1;
    }
    node = parent;
  }
  return rank;
}

ObjectId OrderedSequence::At(size_t rank) const {
  MODB_CHECK_LT(rank, size());
  NodeId node = root_;
  while (true) {
    const size_t left_size = SubtreeSize(nodes_[node].left);
    if (rank < left_size) {
      node = nodes_[node].left;
    } else if (rank == left_size) {
      return OidAtNode(node);
    } else {
      rank -= left_size + 1;
      node = nodes_[node].right;
    }
  }
}

ObjectId OrderedSequence::Front() const {
  MODB_CHECK(head_ != kNoSlot);
  return oid_of_[head_];
}

ObjectId OrderedSequence::Back() const {
  MODB_CHECK(tail_ != kNoSlot);
  return oid_of_[tail_];
}

std::vector<ObjectId> OrderedSequence::ToVector() const {
  std::vector<ObjectId> order;
  order.reserve(size());
  for (Slot slot = head_; slot != kNoSlot; slot = links_[slot].next) {
    order.push_back(oid_of_[slot]);
  }
  return order;
}

std::vector<OrderedSequence::Slot> OrderedSequence::ToSlots() const {
  std::vector<Slot> slots;
  slots.reserve(size());
  for (Slot slot = head_; slot != kNoSlot; slot = links_[slot].next) {
    slots.push_back(slot);
  }
  return slots;
}

void OrderedSequence::CheckInvariants() const {
  // The links must enumerate exactly the map's population, each slot's
  // prev must be the slot before it, and each slot's node must map back to
  // it and to its oid.
  size_t count = 0;
  Slot prev = kNoSlot;
  for (Slot slot = head_; slot != kNoSlot; slot = links_[slot].next) {
    MODB_CHECK_LT(slot, links_.size());
    MODB_CHECK(links_[slot].prev == prev);
    const NodeId node = node_of_[slot];
    MODB_CHECK(node != kNil && nodes_[node].slot == slot);
    MODB_CHECK_EQ(slot_of_.Find(oid_of_[slot]), slot);
    prev = slot;
    MODB_CHECK_LE(++count, size()) << "the slot links cycle";
  }
  MODB_CHECK(prev == tail_);
  MODB_CHECK_EQ(count, size());
  MODB_CHECK_EQ(count + free_slots_.size(), oid_of_.size());
  MODB_CHECK_EQ(count + free_nodes_.size(), nodes_.size());
  // Tree: sizes, parent links, heap property, and in-order agreement with
  // the threading.
  std::vector<ObjectId> inorder;
  // Iterative in-order without recursion (sequences can be large).
  std::vector<NodeId> stack;
  NodeId cursor = root_;
  while (cursor != kNil || !stack.empty()) {
    while (cursor != kNil) {
      const Node& c = nodes_[cursor];
      if (c.parent != kNil) {
        const Node& p = nodes_[c.parent];
        MODB_CHECK(p.left == cursor || p.right == cursor);
        MODB_CHECK(c.priority >= p.priority);
      }
      MODB_CHECK_EQ(c.size, 1 + SubtreeSize(c.left) + SubtreeSize(c.right));
      stack.push_back(cursor);
      cursor = c.left;
    }
    cursor = stack.back();
    stack.pop_back();
    inorder.push_back(OidAtNode(cursor));
    cursor = nodes_[cursor].right;
  }
  MODB_CHECK(inorder == ToVector());
}

}  // namespace modb
