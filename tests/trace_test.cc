#include "obs/trace.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/future_engine.h"
#include "core/sweep_state.h"
#include "durability/durable_server.h"
#include "gdist/builtin.h"
#include "obs/flight_recorder.h"
#include "trajectory/mod.h"
#include "verify/audit.h"
#include "verify/fault_env.h"

namespace modb {
namespace obs {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("modb_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---- minimal strict JSON parser -------------------------------------------
// Just enough to prove the exporter's output *parses* and to walk it; any
// syntax error fails the parse (and with it the schema tests below).

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(Json* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();  // No trailing garbage.
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t n) {
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(Json* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = Json::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = Json::kBool;
      out->boolean = true;
      return Literal("true", 4);
    }
    if (c == 'f') {
      out->kind = Json::kBool;
      out->boolean = false;
      return Literal("false", 5);
    }
    if (c == 'n') {
      out->kind = Json::kNull;
      return Literal("null", 4);
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        ++pos_;  // The exporter only ever escapes '"' and '\\'.
      }
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::kNumber;
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->number = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  bool ParseObject(Json* out) {
    out->kind = Json::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      Json value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(Json* out) {
    out->kind = Json::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Validates one document against the Chrome trace-event schema subset the
// exporter promises: displayTimeUnit + a traceEvents array whose entries
// all carry name/cat/ph/ts/pid/tid, with dur on complete spans and a
// scope on instants. Returns the parsed document through `out`.
void ValidateChromeTrace(const std::string& text, Json* out) {
  ASSERT_TRUE(JsonParser(text).Parse(out)) << "not valid JSON:\n" << text;
  ASSERT_EQ(out->kind, Json::kObject);
  const Json* unit = out->Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const Json* events = out->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::kArray);
  for (const Json& event : events->array) {
    ASSERT_EQ(event.kind, Json::kObject);
    const Json* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->kind, Json::kString);
    const Json* cat = event.Find("cat");
    ASSERT_NE(cat, nullptr);
    EXPECT_EQ(cat->str, "modb");
    const Json* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->str == "X" || ph->str == "i") << ph->str;
    const Json* ts = event.Find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->kind, Json::kNumber);
    const Json* pid = event.Find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->number, 1.0);
    const Json* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    EXPECT_EQ(tid->kind, Json::kNumber);
    if (ph->str == "X") {
      const Json* dur = event.Find("dur");
      ASSERT_NE(dur, nullptr) << "complete span without dur";
      EXPECT_EQ(dur->kind, Json::kNumber);
    } else {
      const Json* scope = event.Find("s");
      ASSERT_NE(scope, nullptr) << "instant without scope";
      EXPECT_EQ(scope->str, "t");
    }
    const Json* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_EQ(args->kind, Json::kObject);
    EXPECT_NE(args->Find("trace"), nullptr);
  }
}

// Finds events by exported name; never nullptr entries.
std::vector<const Json*> EventsNamed(const Json& doc,
                                     const std::string& name) {
  std::vector<const Json*> found;
  for (const Json& event : doc.Find("traceEvents")->array) {
    if (event.Find("name")->str == name) found.push_back(&event);
  }
  return found;
}

// ---- span name table -------------------------------------------------------

TEST(SpanNameTest, TableIsCompleteAndUnique) {
  std::set<std::string> seen;
  for (uint8_t i = 0; i < kSpanNameCount; ++i) {
    const char* name = SpanNameString(static_cast<SpanName>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate span name " << name;
  }
  EXPECT_EQ(seen.size(), kSpanNameCount);
  // The export split: structural operations are complete spans, the
  // per-support-change hot path and failure markers are instants.
  EXPECT_FALSE(SpanNameIsInstant(SpanName::kDurableUpdate));
  EXPECT_FALSE(SpanNameIsInstant(SpanName::kSweepInsert));
  EXPECT_TRUE(SpanNameIsInstant(SpanName::kSweepSwap));
  EXPECT_TRUE(SpanNameIsInstant(SpanName::kFuzzFailure));
}

// Every enum row must appear in docs/TRACING.md's taxonomy table and vice
// versa — the same lockstep pattern obs_test applies to METRICS.md.
TEST(SpanNameTest, TracingDocMatchesSpanTable) {
  const std::string doc_path =
      std::string(MODB_SOURCE_DIR) + "/docs/TRACING.md";
  std::ifstream doc(doc_path);
  ASSERT_TRUE(doc.is_open()) << "cannot open " << doc_path;

  // Taxonomy rows look like: | `sweep.swap` | instant | ... |
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.insert(line.substr(3, end - 3));
  }

  std::set<std::string> defined;
  for (uint8_t i = 0; i < kSpanNameCount; ++i) {
    defined.insert(SpanNameString(static_cast<SpanName>(i)));
  }
  for (const std::string& name : defined) {
    EXPECT_TRUE(documented.count(name))
        << "span missing from docs/TRACING.md taxonomy: " << name;
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(defined.count(name))
        << "docs/TRACING.md documents unknown span: " << name;
  }
}

// ---- context propagation ---------------------------------------------------

TEST(TraceSpanTest, NestedSpansInheritTheRootTraceId) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  uint64_t root_trace = 0;
  {
    TraceSpan root(SpanName::kServerUpdate, 7, 1.0);
    root_trace = root.trace_id();
    EXPECT_NE(root_trace, 0u);
    EXPECT_EQ(CurrentTraceId(), root_trace);
    {
      TraceSpan child(SpanName::kSweepInsert, 7, 1.0);
      EXPECT_EQ(child.trace_id(), root_trace);
      EXPECT_NE(child.span_id(), root.span_id());
    }
    EXPECT_EQ(CurrentTraceId(), root_trace);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  // A new root draws a fresh trace id.
  TraceSpan next(SpanName::kServerUpdate, 8, 2.0);
  EXPECT_NE(next.trace_id(), root_trace);
}

TEST(TraceSpanTest, SiblingRootsOnDifferentThreadsGetDistinctIds) {
  constexpr int kThreads = 4;
  std::vector<uint64_t> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      TraceSpan span(SpanName::kPastRun);
      ids[t] = span.trace_id();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()).size(),
            static_cast<size_t>(kThreads));
}

// ---- ring buffer -----------------------------------------------------------

TraceEvent MakeEvent(uint64_t arg, uint32_t tid) {
  TraceEvent event;
  event.trace_id = 1;
  event.span_id = arg + 1;
  event.start_us = arg;
  event.oid = static_cast<int64_t>(arg);
  event.arg = arg;
  event.tid = tid;
  event.name = static_cast<uint8_t>(SpanName::kSweepSwap);
  event.phase = 'i';
  return event;
}

// Concurrent writers into a ring large enough to hold everything: every
// record must come back exactly once (under TSan this is also the proof
// the write path is race-free).
TEST(FlightRecorderTest, ConcurrentWritersExactAccounting) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 2048;
  FlightRecorder recorder(kThreads * kPerThread);
  ASSERT_GE(recorder.capacity(), kThreads * kPerThread);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeEvent(i, static_cast<uint32_t>(t)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recorder.recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  // Exact per-thread accounting: each (tid, arg) pair exactly once.
  std::map<uint32_t, std::set<uint64_t>> per_thread;
  for (const TraceEvent& event : events) {
    EXPECT_TRUE(per_thread[event.tid].insert(event.arg).second)
        << "duplicate record tid=" << event.tid << " arg=" << event.arg;
  }
  ASSERT_EQ(per_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, args] : per_thread) {
    EXPECT_EQ(args.size(), kPerThread) << "tid " << tid;
  }
}

TEST(FlightRecorderTest, WraparoundOverwritesOldestRecords) {
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.capacity(), 8u);
  constexpr uint64_t kTotal = 21;
  for (uint64_t i = 0; i < kTotal; ++i) {
    recorder.Record(MakeEvent(i, 0));
  }
  EXPECT_EQ(recorder.recorded(), kTotal);
  EXPECT_EQ(recorder.dropped(), kTotal - 8);

  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and exactly the last capacity() records survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, kTotal - 8 + i);
  }

  recorder.Reset();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

// Snapshot must tolerate writers racing it: it may drop torn slots but
// never return garbage (checked via the known arg pattern).
TEST(FlightRecorderTest, SnapshotUnderConcurrentWritesIsNeverTorn) {
  FlightRecorder recorder(64);
  std::atomic<bool> stop{false};
  std::thread writer([&recorder, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Record(MakeEvent(i++, 1));
    }
  });
  for (int round = 0; round < 200; ++round) {
    for (const TraceEvent& event : recorder.Snapshot()) {
      EXPECT_EQ(event.span_id, event.arg + 1) << "torn record escaped";
      EXPECT_EQ(event.tid, 1u);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---- exporter --------------------------------------------------------------

TEST(TraceExporterTest, EmitsValidChromeTraceJson) {
  FlightRecorder recorder(16);
  {
    // One real nested operation recorded through the public API.
    TraceSpan root(SpanName::kServerUpdate, 5, 3.5, 2);
    TraceInstant(SpanName::kSweepSwap, 5, 3.5, 6);
    TraceSpan child(SpanName::kSweepInsert, 5, 3.5);
    // Routed into the local ring by hand so the test does not depend on
    // (or pollute) the global recorder.
    TraceEvent instant;
    instant.trace_id = root.trace_id();
    instant.parent_span_id = root.span_id();
    instant.start_us = TraceNowMicros();
    instant.oid = 5;
    instant.model_time = 3.5;
    instant.arg = 6;
    instant.name = static_cast<uint8_t>(SpanName::kSweepSwap);
    instant.phase = 'i';
    recorder.Record(instant);
    TraceEvent span;
    span.trace_id = root.trace_id();
    span.span_id = child.span_id();
    span.parent_span_id = root.span_id();
    span.start_us = TraceNowMicros();
    span.dur_us = 2;
    span.oid = 5;
    span.model_time = 3.5;
    span.name = static_cast<uint8_t>(SpanName::kSweepInsert);
    span.phase = 'X';
    recorder.Record(span);
  }
  std::ostringstream out;
  recorder.WriteJson(out);

  Json doc;
  ValidateChromeTrace(out.str(), &doc);
  ASSERT_EQ(doc.Find("traceEvents")->array.size(), 2u);
  ASSERT_EQ(EventsNamed(doc, "sweep.swap").size(), 1u);
  const Json& instant = *EventsNamed(doc, "sweep.swap")[0];
  EXPECT_EQ(instant.Find("ph")->str, "i");
  EXPECT_EQ(instant.Find("args")->Find("oid")->number, 5.0);
  EXPECT_EQ(instant.Find("args")->Find("t")->number, 3.5);
  EXPECT_EQ(instant.Find("args")->Find("arg")->number, 6.0);
  ASSERT_EQ(EventsNamed(doc, "sweep.insert").size(), 1u);
  const Json& span = *EventsNamed(doc, "sweep.insert")[0];
  EXPECT_EQ(span.Find("ph")->str, "X");
  EXPECT_EQ(span.Find("dur")->number, 2.0);
  // Parent linkage survives the round trip.
  EXPECT_EQ(span.Find("args")->Find("parent")->number,
            instant.Find("args")->Find("parent")->number);
}

TEST(TraceExporterTest, OmitsAbsentOidAndNonFiniteModelTime) {
  TraceEvent event;
  event.trace_id = 1;
  event.span_id = 2;
  event.oid = kTraceNoId;
  event.model_time = std::numeric_limits<double>::quiet_NaN();
  event.name = static_cast<uint8_t>(SpanName::kRecovery);
  event.phase = 'X';
  std::ostringstream out;
  TraceExporter::WriteJson({event}, out);
  Json doc;
  ValidateChromeTrace(out.str(), &doc);
  const Json& exported = doc.Find("traceEvents")->array[0];
  EXPECT_EQ(exported.Find("args")->Find("oid"), nullptr);
  EXPECT_EQ(exported.Find("args")->Find("t"), nullptr);
}

// Sets the per-event sweep detail switch for one scope and restores it.
class SweepDetailScope {
 public:
  explicit SweepDetailScope(bool on) : was_(SweepTraceDetail()) {
    SetSweepTraceDetail(on);
  }
  ~SweepDetailScope() { SetSweepTraceDetail(was_); }

 private:
  bool was_;
};

std::vector<TraceEvent> RecordsNamed(const std::vector<TraceEvent>& events,
                                     SpanName name) {
  std::vector<TraceEvent> named;
  for (const TraceEvent& event : events) {
    if (event.name == static_cast<uint8_t>(name)) named.push_back(event);
  }
  return named;
}

// A 1-D sweep ranking by squared distance to the origin: o1..o6 stand at
// 10, 20, ..., 60 and o7 walks in from 70 at unit speed, passing o6..o1
// at t = 10, 20, ..., 60.
std::unique_ptr<SweepState> WalkerSweep() {
  auto state = std::make_unique<SweepState>(
      std::make_shared<SquaredEuclideanGDistance>(
          Trajectory::Stationary(0.0, Vec{0.0})),
      0.0);
  for (ObjectId oid = 1; oid <= 6; ++oid) {
    state->InsertObject(oid, Trajectory::Stationary(
                                 0.0, Vec{10.0 * static_cast<double>(oid)}));
  }
  state->InsertObject(7, Trajectory::Linear(0.0, Vec{70.0}, Vec{-1.0}));
  return state;
}

// By default a cascade is one record: the `sweep.cascade` span, with the
// number of events AdvanceTo processed; no per-event instant is written.
TEST(SweepCascadeTraceTest, DetailOffWritesOneSpanPerCascade) {
  const SweepDetailScope detail(false);
  std::unique_ptr<SweepState> state = WalkerSweep();
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Reset();
  state->AdvanceTo(65.0);
  ASSERT_EQ(state->stats().swaps, 6u);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, static_cast<uint8_t>(SpanName::kSweepCascade));
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].arg, 6u);
  EXPECT_EQ(events[0].model_time, 65.0);

  // An advance with no event due writes nothing.
  recorder.Reset();
  state->AdvanceTo(66.0);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

// With detail on, every swap, schedule and cancel comes back as an
// instant under the cascade span, one per event the stats count.
TEST(SweepCascadeTraceTest, DetailOnNestsEventInstantsUnderTheCascade) {
  const SweepDetailScope detail(true);
  std::unique_ptr<SweepState> state = WalkerSweep();
  const SweepStats before = state->stats();
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Reset();
  state->AdvanceTo(65.0);
  const std::vector<TraceEvent> events = recorder.Snapshot();

  const std::vector<TraceEvent> cascades =
      RecordsNamed(events, SpanName::kSweepCascade);
  ASSERT_EQ(cascades.size(), 1u);
  EXPECT_EQ(cascades[0].arg, 6u);
  const std::vector<TraceEvent> swaps =
      RecordsNamed(events, SpanName::kSweepSwap);
  const std::vector<TraceEvent> schedules =
      RecordsNamed(events, SpanName::kSweepSchedule);
  const std::vector<TraceEvent> cancels =
      RecordsNamed(events, SpanName::kSweepCancel);
  EXPECT_EQ(swaps.size(), state->stats().swaps - before.swaps);
  EXPECT_EQ(schedules.size(), state->stats().schedules - before.schedules);
  EXPECT_EQ(cancels.size(), state->stats().cancels - before.cancels);
  EXPECT_FALSE(cancels.empty());
  EXPECT_EQ(events.size(),
            1 + swaps.size() + schedules.size() + cancels.size());
  for (const TraceEvent& event : events) {
    if (event.phase != 'i') continue;
    EXPECT_EQ(event.parent_span_id, cascades[0].span_id)
        << SpanNameString(static_cast<SpanName>(event.name));
    EXPECT_EQ(event.trace_id, cascades[0].trace_id);
  }
}

// A full end-to-end dump through the live instrumentation, per-event
// detail on: run real engine work, dump the global ring, and hold the
// result against the schema — the same artifact `modb_cli db-trace` and
// the failure paths produce.
TEST(TraceExporterTest, GlobalRecorderDumpValidates) {
  const SweepDetailScope detail(true);
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Reset();
  {
    SweepState state(std::make_shared<SquaredEuclideanGDistance>(
                         Trajectory::Stationary(0.0, Vec{0.0})),
                     0.0);
    TraceSpan update(SpanName::kUpdateApply, 1, 0.0);
    state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
    state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
    state.AdvanceTo(20.0);
  }
  std::ostringstream out;
  recorder.WriteJson(out);
  Json doc;
  ValidateChromeTrace(out.str(), &doc);
  EXPECT_FALSE(EventsNamed(doc, "sweep.insert").empty());
  EXPECT_FALSE(EventsNamed(doc, "sweep.cascade").empty());
  EXPECT_FALSE(EventsNamed(doc, "sweep.swap").empty());
  EXPECT_FALSE(EventsNamed(doc, "sweep.schedule").empty());
}

// The ring keeps many updates of history even when each commits hundreds
// of support changes: 64 chdir updates of 200 swaps each leave all 64
// `update.apply` spans in the 16k-record global ring. (At five records per
// support change they would have cycled it four times over.)
TEST(SweepCascadeTraceTest, RingRetainsUpdatesOfLongCascades) {
  const SweepDetailScope detail(false);
  // o1..o200 stand at 1..200; o0 shuttles between 0.5 and 200.5 at unit
  // speed, a chdir reversing it at each end, so every leg passes all 200.
  constexpr int kStanding = 200;
  constexpr int kUpdates = 64;
  const double leg = kStanding;
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(0, 0.0, Vec{0.5}, Vec{1.0})).ok());
  for (ObjectId oid = 1; oid <= kStanding; ++oid) {
    ASSERT_TRUE(mod.Apply(Update::NewObject(
                              oid, 0.0, Vec{static_cast<double>(oid)},
                              Vec{0.0}))
                    .ok());
  }
  FutureQueryEngine engine(mod,
                           std::make_shared<SquaredEuclideanGDistance>(
                               Trajectory::Stationary(0.0, Vec{0.0})),
                           0.0);
  engine.Start();
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Reset();
  std::set<double> update_times;
  for (int i = 1; i <= kUpdates; ++i) {
    const double t = leg * i;
    const uint64_t before = engine.state().stats().SupportChanges();
    ASSERT_TRUE(engine
                    .ApplyUpdate(mod, Update::ChangeDirection(
                                          0, t, Vec{i % 2 == 1 ? -1.0 : 1.0}))
                    .ok());
    ASSERT_GE(engine.state().stats().SupportChanges() - before, 100u)
        << "update " << i;
    update_times.insert(t);
  }
  std::set<double> retained;
  for (const TraceEvent& event :
       RecordsNamed(recorder.Snapshot(), SpanName::kUpdateApply)) {
    retained.insert(event.model_time);
  }
  EXPECT_EQ(retained, update_times);
  EXPECT_EQ(recorder.dropped(), 0u);
}

// ---- failure-triggered dumps ----------------------------------------------

Update SampleNew(ObjectId oid, double t) {
  return Update::NewObject(oid, t, Vec{1.0 * static_cast<double>(oid), 2.0},
                           Vec{0.5, -0.25});
}

// Forcing degraded-mode entry must leave a dump in the database directory
// whose final spans carry the failing update's trace id.
TEST(FailureDumpTest, DegradedEntryDumpCarriesFailingUpdateTraceId) {
  const std::string dir = ScratchDir("trace_degraded");
  FlightRecorder::Global().Reset();
  FaultInjectionEnv env;
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.env = &env;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());

  env.SetPlan(FaultPlan{1, FaultKind::kEio});  // The next WAL append.
  uint64_t failing_trace = 0;
  {
    // An enclosing span pins the trace id the failing update propagates,
    // exactly like a traced caller would.
    TraceSpan caller(SpanName::kServerUpdate, 2, 2.0);
    failing_trace = caller.trace_id();
    const Status failed = db->ApplyUpdate(SampleNew(2, 2.0));
    ASSERT_FALSE(failed.ok());
  }
  ASSERT_TRUE(db->degraded());

  const std::string dump_path = dir + "/flight-recorder.json";
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open()) << "degraded entry did not dump " << dump_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  Json doc;
  ValidateChromeTrace(buffer.str(), &doc);

  const auto entries = EventsNamed(doc, "degraded.entry");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->Find("args")->Find("trace")->number,
            static_cast<double>(failing_trace));
  // The failing update's WAL append is among the dump's final spans,
  // linked by the same trace id.
  bool found_append = false;
  for (const Json* append : EventsNamed(doc, "wal.append")) {
    if (append->Find("args")->Find("trace")->number ==
        static_cast<double>(failing_trace)) {
      found_append = true;
    }
  }
  EXPECT_TRUE(found_append)
      << "no wal.append span with the failing update's trace id";
}

// Forcing an auditor violation must auto-dump, and the violation instant
// must carry the trace id of the update whose sweep work tripped it.
TEST(FailureDumpTest, AuditViolationDumpCarriesFailingUpdateTraceId) {
  const std::string dir = ScratchDir("trace_audit");
  const std::string dump_path = dir + "/flight-recorder.json";
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().SetAutoDumpPath(dump_path);

  // A sweep whose MOD cross-check cannot find the inserted object: the
  // first post-event audit reports CurveDrift and trips the dump.
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  SweepState state(std::make_shared<SquaredEuclideanGDistance>(
                       Trajectory::Stationary(0.0, Vec{0.0})),
                   0.0);
  AuditingObserver audit(&state, &mod);
  uint64_t failing_trace = 0;
  {
    TraceSpan update(SpanName::kUpdateApply, 3, 0.0);
    failing_trace = update.trace_id();
    state.InsertObject(3, Trajectory::Stationary(0.0, Vec{1.0}));
  }
  ASSERT_FALSE(audit.report().ok());
  FlightRecorder::Global().SetAutoDumpPath("");

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open()) << "violation did not dump " << dump_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  Json doc;
  ValidateChromeTrace(buffer.str(), &doc);

  const auto violations = EventsNamed(doc, "audit.violation");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0]->Find("args")->Find("trace")->number,
            static_cast<double>(failing_trace));
}

}  // namespace
}  // namespace obs
}  // namespace modb
