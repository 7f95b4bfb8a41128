#include "index/ordered_sequence.h"

#include <algorithm>

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
    oid_of_.push_back(oid);
    node_of_.push_back(kNil);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    oid_of_[slot] = oid;
  }
  slot_of_.Insert(oid, slot);
  NodeId node;
  if (free_nodes_.empty()) {
    node = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
  } else {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  }
  nodes_[node] = Node{NextPriority(), slot, 1, kNil, kNil, kNil, kNil, kNil};
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
  nodes_[node].prev = pred;
  nodes_[node].next = succ;
  if (pred != kNil) {
    nodes_[pred].next = node;
  } else {
    head_ = node;
  }
  if (succ != kNil) {
    nodes_[succ].prev = node;
  } else {
    tail_ = node;
  }
  return nodes_[node].slot;
}

void OrderedSequence::AssignSorted(const std::vector<ObjectId>& sequence) {
  // size 0 marks a resident not yet placed, so a repeat or a missing
  // resident is caught below.
  for (NodeId node = head_; node != kNil; node = nodes_[node].next) {
    nodes_[node].size = 0;
  }
  slot_of_.Reserve(sequence.size());
  nodes_.reserve(nodes_.size() + sequence.size());
  oid_of_.reserve(oid_of_.size() + sequence.size());
  node_of_.reserve(node_of_.size() + sequence.size());
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
  NodeId prev = kNil;
  for (const ObjectId oid : sequence) {
    NodeId node;
    if (const Slot slot = slot_of_.Find(oid); slot != OidSlotMap::kAbsent) {
      node = node_of_[slot];
      MODB_CHECK_EQ(nodes_[node].size, 0u) << "oid " << oid << " repeated";
    } else {
      node = Allocate(oid);
    }
    Node& n = nodes_[node];
    n.size = 1;
    n.parent = n.left = n.right = kNil;
    n.prev = prev;
    n.next = kNil;
    if (prev != kNil) {
      nodes_[prev].next = node;
    } else {
      head_ = node;
    }
    prev = node;
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
  {
    const Node& n = nodes_[node];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }
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
  const NodeId prev = nodes_[NodeOf(oid)].prev;
  if (prev == kNil) return std::nullopt;
  return OidAtNode(prev);
}

std::optional<ObjectId> OrderedSequence::Next(ObjectId oid) const {
  const NodeId next = nodes_[NodeOf(oid)].next;
  if (next == kNil) return std::nullopt;
  return OidAtNode(next);
}

void OrderedSequence::SwapAdjacent(Slot left, Slot right) {
  const NodeId a = node_of_[left];
  const NodeId b = node_of_[right];
  MODB_CHECK(a != kNil && b != kNil && nodes_[a].next == b)
      << "SwapAdjacent on non-adjacent slots " << left << ", " << right;
  // Payload swap: tree shape, threading and sizes are order-positional and
  // stay put; only the slots exchange nodes.
  std::swap(nodes_[a].slot, nodes_[b].slot);
  std::swap(node_of_[left], node_of_[right]);
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
  MODB_CHECK(head_ != kNil);
  return OidAtNode(head_);
}

ObjectId OrderedSequence::Back() const {
  MODB_CHECK(tail_ != kNil);
  return OidAtNode(tail_);
}

std::vector<ObjectId> OrderedSequence::ToVector() const {
  std::vector<ObjectId> order;
  order.reserve(size());
  for (NodeId node = head_; node != kNil; node = nodes_[node].next) {
    order.push_back(OidAtNode(node));
  }
  return order;
}

std::vector<OrderedSequence::Slot> OrderedSequence::ToSlots() const {
  std::vector<Slot> slots;
  slots.reserve(size());
  for (NodeId node = head_; node != kNil; node = nodes_[node].next) {
    slots.push_back(nodes_[node].slot);
  }
  return slots;
}

void OrderedSequence::CheckInvariants() const {
  // Threading must enumerate exactly the map's population, and each
  // node's slot must map back to it and to its oid.
  size_t count = 0;
  NodeId prev = kNil;
  for (NodeId node = head_; node != kNil; node = nodes_[node].next) {
    const Node& n = nodes_[node];
    MODB_CHECK(n.prev == prev);
    MODB_CHECK_EQ(node_of_[n.slot], node);
    MODB_CHECK_EQ(slot_of_.Find(oid_of_[n.slot]), n.slot);
    prev = node;
    ++count;
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
