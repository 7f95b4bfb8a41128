#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstring>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/check.h"
#include "obs/flight_recorder.h"

namespace modb {
namespace obs {
namespace {

struct SpanNameInfo {
  const char* name;
  bool instant;
};

// Indexed by SpanName; tests/trace_test.cc diffs these names against the
// taxonomy table in docs/TRACING.md.
constexpr SpanNameInfo kSpanNames[] = {
    {"durable.update", false},
    {"commit.group", false},
    {"commit.batch", false},
    {"wal.append", false},
    {"wal.sync", false},
    {"checkpoint", false},
    {"recovery", false},
    {"server.update", false},
    {"server.advance", false},
    {"query.register", false},
    {"update.apply", false},
    {"engine.start", false},
    {"query.chdir", false},
    {"past.run", false},
    {"shard.dispatch", false},
    {"shard.merge", false},
    {"shard.recover", false},
    {"sweep.insert", false},
    {"sweep.erase", false},
    {"sweep.curve", false},
    {"sweep.rebuild", false},
    {"sweep.cascade", false},
    {"sweep.swap", true},
    {"sweep.schedule", true},
    {"sweep.cancel", true},
    {"answer.change", true},
    {"degraded.entry", true},
    {"audit.violation", true},
    {"fuzz.failure", true},
    {"slowlog.admit", true},
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) == kSpanNameCount,
              "kSpanNames must cover every SpanName value");

// Ambient propagation: the current root's trace id, the innermost open
// span, and the thread's last captured wall timestamp (what coarse
// instants reuse).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t coarse_now_us = 0;
  uint32_t tid = 0;
};

TraceContext& Context() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local TraceContext context{
      0, 0, 0, next_tid.fetch_add(1, std::memory_order_relaxed)};
  return context;
}

uint64_t NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

#if !defined(__x86_64__)
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}
#endif

#if defined(__x86_64__)
// steady_clock::now() is ~30 ns through the vDSO — too dear for a read
// per support change (see the cost model in trace.h). On x86-64 the
// invariant TSC gives the same monotonic microseconds for ~8 ns: anchor
// the counter once against steady_clock and convert ticks with a Q32
// fixed-point multiply (exact to ~0.5% over the calibration window,
// which is plenty for trace timestamps).
struct TscClock {
  uint64_t tsc0;
  uint64_t micros_per_tick_q32;  // 2^32 * microseconds per TSC tick.
};

TscClock CalibrateTsc() {
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t c0 = __rdtsc();
  for (;;) {
    const auto t1 = std::chrono::steady_clock::now();
    if (t1 - t0 < std::chrono::microseconds(200)) continue;
    const uint64_t c1 = __rdtsc();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const double per_tick = us / static_cast<double>(c1 - c0);
    return {c0, static_cast<uint64_t>(per_tick * 4294967296.0)};
  }
}

const TscClock& Tsc() {
  static const TscClock clock = CalibrateTsc();
  return clock;
}
#endif

// Sub-word packing for FlightRecorder::Record7 (the offset asserts next
// to Record7 pin the layout; little-endian assumed, as everywhere else
// in the on-disk formats).
uint64_t PackSpanWord(uint64_t span_id, uint64_t parent_span_id) {
  return static_cast<uint32_t>(span_id) |
         (static_cast<uint64_t>(static_cast<uint32_t>(parent_span_id)) << 32);
}

uint64_t PackTailWord(uint32_t dur_us, uint32_t tid, SpanName name,
                      char phase) {
  return static_cast<uint64_t>(dur_us) |
         (static_cast<uint64_t>(static_cast<uint16_t>(tid)) << 32) |
         (static_cast<uint64_t>(static_cast<uint8_t>(name)) << 48) |
         (static_cast<uint64_t>(static_cast<uint8_t>(phase)) << 56);
}

uint64_t BitCast(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  const uint8_t index = static_cast<uint8_t>(name);
  MODB_CHECK(index < kSpanNameCount);
  return kSpanNames[index].name;
}

bool SpanNameIsInstant(SpanName name) {
  const uint8_t index = static_cast<uint8_t>(name);
  MODB_CHECK(index < kSpanNameCount);
  return kSpanNames[index].instant;
}

uint64_t TraceNowMicros() {
#if defined(__x86_64__)
  const TscClock& clock = Tsc();
  const uint64_t now = __rdtsc();
  // A thread migrating between cores can observe a tick or two of TSC
  // skew; clamp rather than wrap.
  if (now <= clock.tsc0) return 0;
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(now - clock.tsc0) *
       clock.micros_per_tick_q32) >>
      32);
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ProcessEpoch())
          .count());
#endif
}

uint64_t CurrentTraceId() { return Context().trace_id; }

TraceSpan::TraceSpan(SpanName name, int64_t oid, double model_time,
                     uint64_t arg)
    : name_(name), oid_(oid), model_time_(model_time), arg_(arg) {
  TraceContext& context = Context();
  parent_span_id_ = context.span_id;
  trace_id_ = context.trace_id != 0 ? context.trace_id : NextId();
  span_id_ = NextId();
  context.trace_id = trace_id_;
  context.span_id = span_id_;
  start_us_ = TraceNowMicros();
  context.coarse_now_us = start_us_;
}

TraceSpan::~TraceSpan() {
  if (!closed_) Close();
}

uint64_t TraceSpan::Close() {
  MODB_CHECK(!closed_) << "TraceSpan closed twice";
  closed_ = true;
  const uint64_t end_us = TraceNowMicros();
  TraceContext& context = Context();
  context.coarse_now_us = end_us;
  context.span_id = parent_span_id_;
  if (parent_span_id_ == 0) context.trace_id = 0;  // Root closed.
  const uint64_t elapsed_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  const uint32_t dur_us = elapsed_us > UINT32_MAX
                              ? UINT32_MAX
                              : static_cast<uint32_t>(elapsed_us);
  FlightRecorder::Global().Record7(
      trace_id_, start_us_, static_cast<uint64_t>(oid_), BitCast(model_time_),
      arg_, PackSpanWord(span_id_, parent_span_id_),
      PackTailWord(dur_us, context.tid, name_, 'X'));
  return dur_us;
}

void TraceInstant(SpanName name, int64_t oid, double model_time,
                  uint64_t arg, bool coarse) {
  TraceContext& context = Context();
  const uint64_t now_us = coarse ? context.coarse_now_us : TraceNowMicros();
  if (!coarse) context.coarse_now_us = now_us;
  FlightRecorder::Global().Record7(
      context.trace_id, now_us, static_cast<uint64_t>(oid),
      BitCast(model_time), arg, PackSpanWord(0, context.span_id),
      PackTailWord(0, context.tid, name, 'i'));
}

}  // namespace obs
}  // namespace modb
