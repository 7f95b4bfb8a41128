#include "shard/work_pool.h"

#include <algorithm>

#include "common/check.h"

namespace modb {

// One Run call, on its caller's stack. A worker touches it only while it
// holds an index it claimed, and the caller does not return before every
// such index has finished. The counters are guarded by WorkPool::mu_.
struct WorkPool::Job {
  Job(const std::function<void(size_t)>& body, size_t n) : body(body), n(n) {}

  const std::function<void(size_t)>& body;
  const size_t n;
  size_t next = 0;      // The next index to hand out.
  size_t running = 0;   // Indices workers claimed and have not finished.
  size_t finished = 0;  // Indices whose body returned.
  std::condition_variable workers_done;  // running fell to 0.
};

WorkPool::WorkPool(size_t threads) {
  const size_t n = threads < 1 ? 1 : threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t WorkPool::ClaimLocked(Job& job) {
  const size_t index = job.next++;
  if (job.next == job.n) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
  }
  return index;
}

void WorkPool::Run(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  Job job(body, n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(&job);
  }
  const size_t wake = std::min(n - 1, workers_.size());
  for (size_t i = 0; i < wake; ++i) work_cv_.notify_one();

  std::unique_lock<std::mutex> lock(mu_);
  while (job.next < n) {
    const size_t index = ClaimLocked(job);
    lock.unlock();
    body(index);
    lock.lock();
    ++job.finished;
  }
  job.workers_done.wait(lock, [&job] { return job.running == 0; });
  // Every index was handed out and no worker still runs one, so each
  // must have finished; a lost index would otherwise acknowledge a
  // shard's work that never happened.
  MODB_CHECK(job.finished == n) << "fork/join pool dropped an index";
}

void WorkPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // Stopping, and no job is in flight.
    Job& job = *queue_.front();
    const size_t index = ClaimLocked(job);
    ++job.running;
    lock.unlock();
    job.body(index);
    lock.lock();
    ++job.finished;
    if (--job.running == 0) job.workers_done.notify_one();
  }
}

}  // namespace modb
