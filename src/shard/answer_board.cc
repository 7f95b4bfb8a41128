#include "shard/answer_board.h"

#include <bit>

#include "common/check.h"
#include "obs/modb_metrics.h"

namespace modb {

namespace {
constexpr size_t kInitialWords = 16;

std::unique_ptr<std::atomic<uint64_t>[]> NewWordArray(size_t words) {
  auto array = std::make_unique<std::atomic<uint64_t>[]>(words);
  for (size_t i = 0; i < words; ++i) {
    array[i].store(0, std::memory_order_relaxed);
  }
  return array;
}
}  // namespace

AnswerCell::AnswerCell() : capacity_words_(kInitialWords) {
  live_ = NewWordArray(capacity_words_);
  // Word [0] = bits of time 0.0 = 0, word [1] = count 0: the cell is born
  // readable as "empty answer at t=0".
  words_.store(live_.get(), std::memory_order_release);
}

AnswerCell::~AnswerCell() = default;

void AnswerCell::Reserve(size_t words) {
  if (words <= capacity_words_) return;
  size_t capacity = capacity_words_;
  while (capacity < words) capacity *= 2;
  auto grown = NewWordArray(capacity);
  // Readers may still hold the old pointer: keep it allocated until the
  // cell dies. Their seq re-check rejects whatever they copied from it.
  retired_.push_back(std::move(live_));
  live_ = std::move(grown);
  capacity_words_ = capacity;
  // Release so a reader that acquires this pointer sees the array fully
  // constructed — its loads may still be torn vs the in-flight publish,
  // but the seq re-check handles that; construction must not race.
  words_.store(live_.get(), std::memory_order_release);
}

void AnswerCell::Publish(double time,
                         const std::vector<RankedCandidate>& entries) {
  const uint64_t stable = seq_.load(std::memory_order_relaxed);
  MODB_CHECK(stable % 2 == 0) << "AnswerCell has more than one writer";
  // Open the odd window: any reader that copies words we are about to
  // overwrite is guaranteed to observe a changed seq and retry.
  seq_.store(stable + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);

  Reserve(kHeaderWords + 2 * entries.size());
  std::atomic<uint64_t>* words = live_.get();
  words[0].store(std::bit_cast<uint64_t>(time), std::memory_order_relaxed);
  words[1].store(static_cast<uint64_t>(entries.size()),
                 std::memory_order_relaxed);
  for (size_t i = 0; i < entries.size(); ++i) {
    words[kHeaderWords + 2 * i].store(
        std::bit_cast<uint64_t>(static_cast<int64_t>(entries[i].oid)),
        std::memory_order_relaxed);
    words[kHeaderWords + 2 * i + 1].store(
        std::bit_cast<uint64_t>(entries[i].value), std::memory_order_relaxed);
  }
  seq_.store(stable + 2, std::memory_order_release);
}

void AnswerCell::Read(double* time,
                      std::vector<RankedCandidate>* entries) const {
  for (;;) {
    const uint64_t before = seq_.load(std::memory_order_acquire);
    if (before % 2 == 1) {
      obs::M().shard_answer_retries->Increment();
      continue;
    }
    const std::atomic<uint64_t>* words =
        words_.load(std::memory_order_acquire);
    const double t =
        std::bit_cast<double>(words[0].load(std::memory_order_relaxed));
    const uint64_t count = words[1].load(std::memory_order_relaxed);
    entries->clear();
    entries->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      RankedCandidate entry;
      entry.oid = static_cast<ObjectId>(std::bit_cast<int64_t>(
          words[kHeaderWords + 2 * i].load(std::memory_order_relaxed)));
      entry.value = std::bit_cast<double>(
          words[kHeaderWords + 2 * i + 1].load(std::memory_order_relaxed));
      entries->push_back(entry);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == before) {
      *time = t;
      return;
    }
    obs::M().shard_answer_retries->Increment();
  }
}

}  // namespace modb
