#ifndef MODB_SHARD_ANSWER_BOARD_H_
#define MODB_SHARD_ANSWER_BOARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "queries/merge.h"

namespace modb {

// A single-writer seqlock cell carrying one shard's current answer for one
// standing query: the members as RankedCandidates (each with its
// g-distance value at the publish instant, so the cross-shard k-NN merge
// ranks without touching any shard state) plus that instant. It is the
// per-slot seqlock technique proven in FlightRecorder, applied to a
// variable-length payload. The owning shard task publishes after every
// batch it applies; any number of reader threads snapshot concurrently
// without taking a lock, without blocking the writer, and without ever
// dereferencing freed memory:
//
//   writer   seq -> odd (relaxed), release fence, payload word stores
//            (relaxed), seq -> even (release)
//   reader   seq (acquire; retry while odd), payload word loads
//            (relaxed), acquire fence, seq re-read (relaxed); a change
//            means the copy may be torn -> retry
//
// The payload is a heap array of atomic words: [0] the publish time's
// bits, [1] the entry count, then (oid bits, value bits) per entry. When
// an answer outgrows the array the writer allocates a doubled one inside
// the odd window, publishes the new pointer release (readers acquire it,
// so they never touch an array whose construction is not yet visible)
// and RETIRES the old array to a writer-only list freed at cell
// destruction — a reader still holding the stale pointer reads
// stale-but-allocated memory and its seq re-check sends it around again.
// Retired memory is bounded by the doubling series (< 2x the final
// capacity). Entry counts never overflow the array they are read from:
// each array only ever holds counts that fit it.
class AnswerCell {
 public:
  AnswerCell();
  AnswerCell(const AnswerCell&) = delete;
  AnswerCell& operator=(const AnswerCell&) = delete;
  ~AnswerCell();

  // Publishes `entries` as the answer at `time`. Entries must already be
  // in canonical (value, oid) order (merge.h). Single writer only.
  void Publish(double time, const std::vector<RankedCandidate>& entries);

  // Lock-free consistent snapshot: fills `*time` and `*entries` (replaced)
  // with some published answer — torn copies are detected and retried.
  // Safe from any thread, any number of concurrent readers.
  void Read(double* time, std::vector<RankedCandidate>* entries) const;

  // Number of Publish() calls observed so far (any thread).
  uint64_t version() const {
    return seq_.load(std::memory_order_acquire) / 2;
  }

 private:
  static constexpr size_t kHeaderWords = 2;  // time bits, entry count.

  // Ensures the live array holds `words` words; grows inside the odd
  // window by doubling, retiring the old array.
  void Reserve(size_t words);

  std::atomic<uint64_t> seq_{0};  // Even: stable; odd: write in progress.
  std::atomic<std::atomic<uint64_t>*> words_;
  // Writer-only bookkeeping.
  size_t capacity_words_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> retired_;
  std::unique_ptr<std::atomic<uint64_t>[]> live_;
};

}  // namespace modb

#endif  // MODB_SHARD_ANSWER_BOARD_H_
