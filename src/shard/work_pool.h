#ifndef MODB_SHARD_WORK_POOL_H_
#define MODB_SHARD_WORK_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace modb {

// The fork/join pool behind the sharded server's per-shard fan-outs.
// Run(n, body) calls body(0) ... body(n - 1), each exactly once, and
// returns when all of them have finished, so the caller may read what the
// bodies wrote as soon as it returns. The calling thread claims indices
// itself and wakes at most n - 1 workers: a job of one index runs inline
// with no handoff. Idle workers park on a condition variable; they never
// spin.
//
// Several threads may Run at once (a Commit racing an AdvanceTo), and a
// body may call Run again. A thread only waits for indices other threads
// are already running, and every unclaimed index can be run by its own
// caller, so nesting cannot deadlock, even on a 1-thread pool.
//
// Bodies must not throw (the codebase is exception-free; see DESIGN.md).
class WorkPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit WorkPool(size_t threads);
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;
  // Joins the workers; Run is synchronous, so no job is in flight.
  ~WorkPool();

  void Run(size_t n, const std::function<void(size_t)>& body);

 private:
  struct Job;

  void WorkerLoop();
  // Hands out `job`'s next index; the job leaves queue_ with its last
  // one. Caller holds mu_.
  size_t ClaimLocked(Job& job);

  std::mutex mu_;
  std::condition_variable work_cv_;  // Idle workers park here.
  std::deque<Job*> queue_;  // Jobs with unclaimed indices, oldest first.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace modb

#endif  // MODB_SHARD_WORK_POOL_H_
