#include "index/ordered_sequence.h"

namespace modb {

struct OrderedSequence::Node {
  ObjectId oid;
  uint64_t priority;
  size_t size = 1;
  Node* parent = nullptr;
  Node* left = nullptr;
  Node* right = nullptr;
  // Intrusive in-order threading for O(1) neighbor access.
  Node* prev = nullptr;
  Node* next = nullptr;
};

OrderedSequence::OrderedSequence(uint64_t seed) : rng_state_(seed | 1) {}

OrderedSequence::~OrderedSequence() {
  // Iterative post-order-free via the threading list.
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->next;
    delete node;
    node = next;
  }
}

uint64_t OrderedSequence::NextPriority() {
  // xorshift64*: cheap, deterministic, good enough for treap priorities.
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return x * 0x2545F4914F6CDD1Dull;
}

OrderedSequence::Node* OrderedSequence::NodeFor(ObjectId oid) const {
  auto it = by_oid_.find(oid);
  MODB_CHECK(it != by_oid_.end()) << "oid " << oid << " not in sequence";
  return it->second;
}

size_t OrderedSequence::SubtreeSize(const Node* node) const {
  return node == nullptr ? 0 : node->size;
}

void OrderedSequence::PullSize(Node* node) {
  node->size = 1 + SubtreeSize(node->left) + SubtreeSize(node->right);
}

// Rotates `node` above its parent, preserving in-order sequence and sizes.
void OrderedSequence::RotateUp(Node* node) {
  Node* parent = node->parent;
  MODB_CHECK(parent != nullptr);
  Node* grand = parent->parent;

  if (parent->left == node) {
    parent->left = node->right;
    if (node->right != nullptr) node->right->parent = parent;
    node->right = parent;
  } else {
    MODB_CHECK(parent->right == node);
    parent->right = node->left;
    if (node->left != nullptr) node->left->parent = parent;
    node->left = parent;
  }
  parent->parent = node;
  node->parent = grand;
  if (grand != nullptr) {
    if (grand->left == parent) {
      grand->left = node;
    } else {
      grand->right = node;
    }
  } else {
    root_ = node;
  }
  PullSize(parent);
  PullSize(node);
}

void OrderedSequence::Insert(
    ObjectId oid, double value,
    const std::function<double(ObjectId)>& value_of) {
  MODB_CHECK(!Contains(oid)) << "duplicate insert of oid " << oid;
  Node* node = new Node;
  node->oid = oid;
  node->priority = NextPriority();
  by_oid_.emplace(oid, node);

  // BST descent by comparing values at the current sweep time. Ties go
  // right (insert after existing equals).
  Node* parent = nullptr;
  Node* pred = nullptr;  // Last node we descended right from.
  Node* succ = nullptr;  // Last node we descended left from.
  Node* cursor = root_;
  bool went_left = false;
  size_t depth = 1;
  while (cursor != nullptr) {
    parent = cursor;
    ++depth;
    if (value < value_of(cursor->oid)) {
      succ = cursor;
      cursor = cursor->left;
      went_left = true;
    } else {
      pred = cursor;
      cursor = cursor->right;
      went_left = false;
    }
  }
  last_insert_depth_ = parent == nullptr ? 1 : depth;
  node->parent = parent;
  if (parent == nullptr) {
    root_ = node;
  } else if (went_left) {
    parent->left = node;
  } else {
    parent->right = node;
  }
  // Update sizes along the path.
  for (Node* up = parent; up != nullptr; up = up->parent) ++up->size;
  // Restore the heap property.
  while (node->parent != nullptr && node->priority < node->parent->priority) {
    RotateUp(node);
  }
  // Thread into the in-order list.
  node->prev = pred;
  node->next = succ;
  if (pred != nullptr) {
    pred->next = node;
  } else {
    head_ = node;
  }
  if (succ != nullptr) {
    succ->prev = node;
  } else {
    tail_ = node;
  }
}

void OrderedSequence::AssignSorted(const std::vector<ObjectId>& sequence) {
  // size 0 marks a resident not yet placed, so a repeat or a missing
  // resident is caught below.
  for (Node* node = head_; node != nullptr; node = node->next) node->size = 0;
  by_oid_.reserve(sequence.size());
  // The right spine of the tree built so far. Each new node pops the
  // spine nodes of larger priority (they become its left subtree, now
  // complete, so their sizes are final) and hangs as the right child of
  // the spine node left standing.
  std::vector<Node*> spine;
  Node* prev = nullptr;
  for (const ObjectId oid : sequence) {
    auto [it, fresh] = by_oid_.try_emplace(oid, nullptr);
    if (fresh) {
      it->second = new Node;
      it->second->oid = oid;
      it->second->priority = NextPriority();
    } else {
      MODB_CHECK_EQ(it->second->size, 0u) << "oid " << oid << " repeated";
    }
    Node* node = it->second;
    node->size = 1;
    node->parent = node->left = node->right = nullptr;
    node->prev = prev;
    node->next = nullptr;
    if (prev != nullptr) {
      prev->next = node;
    } else {
      head_ = node;
    }
    prev = node;
    Node* popped = nullptr;
    while (!spine.empty() && spine.back()->priority > node->priority) {
      popped = spine.back();
      spine.pop_back();
      PullSize(popped);
    }
    node->left = popped;
    if (popped != nullptr) popped->parent = node;
    if (!spine.empty()) {
      spine.back()->right = node;
      node->parent = spine.back();
    }
    spine.push_back(node);
  }
  tail_ = prev;
  root_ = spine.empty() ? nullptr : spine.front();
  while (!spine.empty()) {
    PullSize(spine.back());
    spine.pop_back();
  }
  MODB_CHECK_EQ(by_oid_.size(), sequence.size())
      << "AssignSorted must keep every resident";
}

void OrderedSequence::Erase(ObjectId oid) {
  Node* node = NodeFor(oid);
  // Unthread.
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    head_ = node->next;
  }
  if (node->next != nullptr) {
    node->next->prev = node->prev;
  } else {
    tail_ = node->prev;
  }
  // Rotate down to a leaf, then unlink.
  while (node->left != nullptr || node->right != nullptr) {
    Node* child;
    if (node->left == nullptr) {
      child = node->right;
    } else if (node->right == nullptr) {
      child = node->left;
    } else {
      child = (node->left->priority < node->right->priority) ? node->left
                                                             : node->right;
    }
    RotateUp(child);
  }
  Node* parent = node->parent;
  if (parent == nullptr) {
    root_ = nullptr;
  } else if (parent->left == node) {
    parent->left = nullptr;
  } else {
    parent->right = nullptr;
  }
  for (Node* up = parent; up != nullptr; up = up->parent) --up->size;
  by_oid_.erase(oid);
  delete node;
}

std::optional<ObjectId> OrderedSequence::Prev(ObjectId oid) const {
  const Node* node = NodeFor(oid);
  if (node->prev == nullptr) return std::nullopt;
  return node->prev->oid;
}

std::optional<ObjectId> OrderedSequence::Next(ObjectId oid) const {
  const Node* node = NodeFor(oid);
  if (node->next == nullptr) return std::nullopt;
  return node->next->oid;
}

void OrderedSequence::SwapAdjacent(ObjectId left, ObjectId right) {
  Node* a = NodeFor(left);
  Node* b = NodeFor(right);
  MODB_CHECK(a->next == b) << "SwapAdjacent on non-adjacent objects " << left
                           << ", " << right;
  // Payload swap: tree shape, threading and sizes are order-positional and
  // stay put; only the identities exchange.
  std::swap(a->oid, b->oid);
  by_oid_[a->oid] = a;
  by_oid_[b->oid] = b;
}

size_t OrderedSequence::Rank(ObjectId oid) const {
  const Node* node = NodeFor(oid);
  size_t rank = SubtreeSize(node->left);
  while (node->parent != nullptr) {
    if (node->parent->right == node) {
      rank += SubtreeSize(node->parent->left) + 1;
    }
    node = node->parent;
  }
  return rank;
}

ObjectId OrderedSequence::At(size_t rank) const {
  MODB_CHECK_LT(rank, size());
  const Node* node = root_;
  while (true) {
    const size_t left_size = SubtreeSize(node->left);
    if (rank < left_size) {
      node = node->left;
    } else if (rank == left_size) {
      return node->oid;
    } else {
      rank -= left_size + 1;
      node = node->right;
    }
  }
}

ObjectId OrderedSequence::Front() const {
  MODB_CHECK(head_ != nullptr);
  return head_->oid;
}

ObjectId OrderedSequence::Back() const {
  MODB_CHECK(tail_ != nullptr);
  return tail_->oid;
}

std::vector<ObjectId> OrderedSequence::ToVector() const {
  std::vector<ObjectId> order;
  order.reserve(size());
  for (const Node* node = head_; node != nullptr; node = node->next) {
    order.push_back(node->oid);
  }
  return order;
}

size_t OrderedSequence::Depth() const {
  size_t depth = 0;
  std::vector<std::pair<const Node*, size_t>> stack;
  if (root_ != nullptr) stack.emplace_back(root_, 1);
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    if (d > depth) depth = d;
    if (node->left != nullptr) stack.emplace_back(node->left, d + 1);
    if (node->right != nullptr) stack.emplace_back(node->right, d + 1);
  }
  return depth;
}

void OrderedSequence::CheckInvariants() const {
  // Threading must enumerate exactly the map's population.
  size_t count = 0;
  const Node* prev = nullptr;
  for (const Node* node = head_; node != nullptr; node = node->next) {
    MODB_CHECK(node->prev == prev);
    MODB_CHECK(by_oid_.at(node->oid) == node);
    prev = node;
    ++count;
  }
  MODB_CHECK(prev == tail_);
  MODB_CHECK_EQ(count, by_oid_.size());
  // Tree: sizes, parent links, heap property, and in-order agreement with
  // the threading.
  std::vector<ObjectId> inorder;
  // Iterative in-order without recursion (sequences can be large).
  std::vector<const Node*> stack;
  const Node* cursor = root_;
  while (cursor != nullptr || !stack.empty()) {
    while (cursor != nullptr) {
      if (cursor->parent != nullptr) {
        MODB_CHECK(cursor->parent->left == cursor ||
                   cursor->parent->right == cursor);
        MODB_CHECK(cursor->priority >= cursor->parent->priority);
      }
      MODB_CHECK_EQ(cursor->size, 1 + SubtreeSize(cursor->left) +
                                      SubtreeSize(cursor->right));
      stack.push_back(cursor);
      cursor = cursor->left;
    }
    cursor = stack.back();
    stack.pop_back();
    inorder.push_back(cursor->oid);
    cursor = cursor->right;
  }
  MODB_CHECK(inorder == ToVector());
}

}  // namespace modb
