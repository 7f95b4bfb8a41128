#include "verify/audit.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/env.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "queries/within.h"
#include "verify/crash.h"
#include "verify/differential.h"
#include "verify/fault.h"
#include "verify/fault_env.h"
#include "verify/shard_diff.h"
#include "workload/generator.h"

namespace modb {
namespace {

GDistancePtr OriginDistance(size_t dim) {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec::Zero(dim)));
}

// A small live engine plus the honest SweepView derived from it — the
// baseline every mutation test below corrupts.
struct LiveSweep {
  // Heap-owned so the engine's reference survives moving the struct.
  std::unique_ptr<MovingObjectDatabase> mod;
  std::unique_ptr<FutureQueryEngine> engine;
  SweepView view;
};

LiveSweep MakeLiveSweep() {
  // Four 1-D objects, distinct speeds toward/away from the origin so the
  // order has real future crossings to queue.
  LiveSweep live;
  live.mod = std::make_unique<MovingObjectDatabase>(/*dim=*/1, 0.0);
  MovingObjectDatabase& mod = *live.mod;
  MODB_CHECK(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0}, Vec{-1.0})).ok());
  MODB_CHECK(mod.Apply(Update::NewObject(2, 0.0, Vec{2.0}, Vec{0.5})).ok());
  MODB_CHECK(mod.Apply(Update::NewObject(3, 0.0, Vec{30.0}, Vec{-2.0})).ok());
  MODB_CHECK(mod.Apply(Update::NewObject(4, 0.0, Vec{5.0}, Vec{0.0})).ok());

  live.engine =
      std::make_unique<FutureQueryEngine>(mod, OriginDistance(1), 0.0);
  live.engine->Start();
  live.engine->AdvanceTo(1.0);

  const SweepState& state = live.engine->state();
  live.view.now = state.now();
  live.view.horizon = state.horizon();
  live.view.order = state.order().ToVector();
  live.view.queue = state.QueueSnapshot();
  live.view.value = [&state](ObjectId oid, double t) {
    return state.CurveValue(oid, t);
  };
  live.view.first_crossing = [&state](ObjectId left, ObjectId right) {
    return state.PairFirstCrossing(left, right);
  };
  return live;
}

bool HasViolation(const AuditReport& report, AuditViolationKind kind) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [kind](const AuditViolation& v) { return v.kind == kind; });
}

TEST(SweepAuditorTest, CleanLiveStatePasses) {
  LiveSweep live = MakeLiveSweep();
  SweepAuditor auditor;
  const AuditReport view_report = auditor.AuditView(live.view);
  EXPECT_TRUE(view_report.ok()) << view_report.ToString();
  const AuditReport full_report =
      auditor.Audit(live.engine->state(), &live.engine->mod());
  EXPECT_TRUE(full_report.ok()) << full_report.ToString();
  EXPECT_EQ(full_report.objects, live.view.order.size());
}

// THE acceptance-criterion mutation test: delete an adjacent pair's queued
// event — the injected "forgot to schedule the exchange" bug — and the
// auditor must report exactly that pair by name.
TEST(SweepAuditorTest, CatchesInjectedMissingEvent) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_FALSE(live.view.queue.empty());
  const SweepEvent dropped = live.view.queue.front();
  live.view.queue.erase(live.view.queue.begin());

  const AuditReport report = SweepAuditor().AuditView(live.view);
  ASSERT_FALSE(report.ok());
  ASSERT_TRUE(HasViolation(report, AuditViolationKind::kMissingEvent))
      << report.ToString();
  const auto it = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const AuditViolation& v) {
        return v.kind == AuditViolationKind::kMissingEvent;
      });
  EXPECT_EQ(it->left, dropped.left);
  EXPECT_EQ(it->right, dropped.right);
  ASSERT_TRUE(it->expected_time.has_value());
  EXPECT_NEAR(*it->expected_time, dropped.time, 1e-9);
  // The report names the pair in human-readable form too.
  EXPECT_NE(it->ToString().find("o" + std::to_string(dropped.left)),
            std::string::npos);
}

TEST(SweepAuditorTest, CatchesNonAdjacentEvent) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_GE(live.view.order.size(), 4u);
  // An event for a pair two positions apart — never legal under Lemma 9.
  SweepEvent bogus;
  bogus.left = live.view.order[0];
  bogus.right = live.view.order[2];
  bogus.time = live.view.now + 1.0;
  live.view.queue.push_back(bogus);

  const AuditReport report = SweepAuditor().AuditView(live.view);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, AuditViolationKind::kNonAdjacentEvent))
      << report.ToString();
}

TEST(SweepAuditorTest, CatchesOrderViolation) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_GE(live.view.order.size(), 2u);
  std::swap(live.view.order.front(), live.view.order.back());

  const AuditReport report = SweepAuditor().AuditView(live.view);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, AuditViolationKind::kOrderViolation))
      << report.ToString();
}

TEST(SweepAuditorTest, CatchesWrongEventTime) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_FALSE(live.view.queue.empty());
  live.view.queue.front().time += 0.25;  // No longer the earliest crossing.

  const AuditReport report = SweepAuditor().AuditView(live.view);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, AuditViolationKind::kWrongEventTime))
      << report.ToString();
}

TEST(SweepAuditorTest, CatchesStaleEvent) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_FALSE(live.view.queue.empty());
  live.view.queue.front().time = live.view.now - 0.5;

  const AuditReport report = SweepAuditor().AuditView(live.view);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, AuditViolationKind::kStaleEvent))
      << report.ToString();
}

TEST(SweepAuditorTest, CatchesDuplicateAndOverlongQueue) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_FALSE(live.view.queue.empty());
  // Duplicate every event: breaks both the length bound and uniqueness.
  const std::vector<SweepEvent> original = live.view.queue;
  for (size_t needed = live.view.order.size(); live.view.queue.size() < needed;) {
    live.view.queue.insert(live.view.queue.end(), original.begin(),
                           original.end());
  }

  const AuditReport report = SweepAuditor().AuditView(live.view);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, AuditViolationKind::kQueueTooLong))
      << report.ToString();
  EXPECT_TRUE(HasViolation(report, AuditViolationKind::kNonAdjacentEvent))
      << report.ToString();
}

TEST(SweepAuditorTest, EventAtNowIsPendingCascadeNotAViolation) {
  LiveSweep live = MakeLiveSweep();
  ASSERT_GE(live.view.order.size(), 2u);
  // An event for a genuinely adjacent pair at exactly now(): the state a
  // mid-cascade hook observes. Must not be flagged even though now() is not
  // the pair's recomputed future crossing.
  SweepEvent pending;
  pending.left = live.view.order[0];
  pending.right = live.view.order[1];
  pending.time = live.view.now;
  // Replace any real event for the pair to keep uniqueness.
  live.view.queue.erase(
      std::remove_if(live.view.queue.begin(), live.view.queue.end(),
                     [&](const SweepEvent& e) {
                       return e.left == pending.left &&
                              e.right == pending.right;
                     }),
      live.view.queue.end());
  live.view.queue.push_back(pending);

  const AuditReport report = SweepAuditor().AuditView(live.view);
  EXPECT_FALSE(HasViolation(report, AuditViolationKind::kWrongEventTime))
      << report.ToString();
  EXPECT_FALSE(HasViolation(report, AuditViolationKind::kStaleEvent))
      << report.ToString();
}

// The streaming observer rides a full random workload without a single
// violation — the tentpole's "audit after every processed event" hook.
TEST(AuditingObserverTest, CleanOnRandomWorkload) {
  const RandomModOptions mod_options{
      .num_objects = 12, .dim = 2, .speed_max = 10.0, .seed = 77};
  const UpdateStreamOptions stream_options{
      .count = 40, .mean_gap = 0.5, .seed = 78};
  const MovingObjectDatabase initial = RandomMod(mod_options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, mod_options, stream_options);

  MovingObjectDatabase mod = initial;
  FutureQueryEngine engine(mod, OriginDistance(2), 0.0);
  KnnKernel kernel(&engine.state(), 3);
  AuditingObserver audit(&engine.state(), &engine.mod());
  engine.Start();
  for (const Update& update : updates) {
    ASSERT_TRUE(engine.ApplyUpdate(mod, update).ok()) << update.ToString();
  }
  engine.AdvanceTo(updates.back().time + 5.0);

  EXPECT_GT(audit.audits_run(), updates.size());
  EXPECT_TRUE(audit.report().ok()) << audit.report().ToString();
}

TEST(DifferentialTest, RandomSeedsProduceNoMismatches) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    FuzzOptions options;
    options.seed = seed;
    options.num_objects = 12;
    options.num_updates = 30;
    options.num_probes = 10;
    options.audit = true;
    const FuzzResult result = RunDifferential(options);
    EXPECT_TRUE(result.ok()) << result.ToString();
    EXPECT_GT(result.probes, 0u);
    EXPECT_GT(result.timeline_probes, 0u);
    EXPECT_GT(result.audits, 0u);
  }
}

TEST(DifferentialTest, ZeroUpdatesStillProbes) {
  FuzzOptions options;
  options.seed = 5;
  options.num_objects = 6;
  options.num_updates = 0;
  options.num_probes = 4;
  const FuzzResult result = RunDifferential(options);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(result.probes, 0u);
}

TEST(DifferentialTest, ShrinkFindsMinimalFailingPrefix) {
  FuzzOptions options;
  options.num_updates = 60;
  // Synthetic predicate: the bug "appears" once 17 updates are replayed.
  size_t calls = 0;
  const size_t minimal = ShrinkUpdatePrefix(
      options, [&calls](const FuzzOptions& o) {
        ++calls;
        return o.num_updates >= 17;
      });
  EXPECT_EQ(minimal, 17u);
  EXPECT_LE(calls, 8u);  // Bisection, not a linear scan.

  // A failure present from the empty prefix shrinks all the way to 0.
  EXPECT_EQ(ShrinkUpdatePrefix(options,
                               [](const FuzzOptions&) { return true; }),
            0u);
}

// A printed repro command's flags: "--flag" -> value ("" for switches).
std::map<std::string, std::string> ParseRepro(const std::string& command) {
  std::istringstream in(command);
  std::string word;
  in >> word;
  EXPECT_EQ(word, "modb_fuzz") << command;
  std::map<std::string, std::string> flags;
  std::string flag;
  while (in >> word) {
    if (word.rfind("--", 0) == 0) {
      flag = word;
      flags[flag] = "";
    } else {
      flags[flag] = word;
    }
  }
  return flags;
}

// Parses the flags every lane shares back and compares them with the
// options the command was printed from.
template <typename Options>
void ExpectSharedFlags(const std::string& command, const Options& options) {
  std::map<std::string, std::string> flags = ParseRepro(command);
  EXPECT_EQ(std::stoull(flags["--seed"]), options.seed) << command;
  EXPECT_EQ(std::stoull(flags["--ops"]), options.num_updates) << command;
  EXPECT_EQ(std::stoull(flags["--objects"]), options.num_objects) << command;
  EXPECT_EQ(std::stoull(flags["--k"]), options.k) << command;
  EXPECT_EQ(std::stod(flags["--threshold"]), options.within_threshold)
      << command;
  EXPECT_EQ(flags.count("--audit") == 1, options.audit) << command;
}

TEST(DifferentialTest, ReproCommandRoundTripsTheOptions) {
  // Needs all 17 significant digits to survive the round trip.
  const double threshold = std::nextafter(22500.0, 1e9);

  FuzzOptions fuzz;
  fuzz.seed = 1337;
  fuzz.num_updates = 14;
  fuzz.num_probes = 9;
  fuzz.within_threshold = threshold;
  fuzz.audit = true;
  ExpectSharedFlags(ReproCommand(fuzz), fuzz);
  EXPECT_EQ(ParseRepro(ReproCommand(fuzz))["--probes"], "9");

  ShardDiffOptions shard;
  shard.seed = 7;
  shard.shards = 3;
  shard.within_threshold = threshold;
  ExpectSharedFlags(ShardReproCommand(shard), shard);
  EXPECT_EQ(ParseRepro(ShardReproCommand(shard))["--shards"], "3");

  for (const size_t shards : {size_t{0}, size_t{4}}) {
    CrashOptions crash;
    crash.seed = 21;
    crash.shards = shards;
    crash.within_threshold = threshold;
    crash.audit = true;
    crash.trigger_bytes = 4096;
    const std::string crash_repro = CrashReproCommand(crash);
    ExpectSharedFlags(crash_repro, crash);
    std::map<std::string, std::string> flags = ParseRepro(crash_repro);
    EXPECT_EQ(flags.count("--crash"), 1u) << crash_repro;
    EXPECT_EQ(flags.count("--shards") ? std::stoull(flags["--shards"]) : 0,
              shards)
        << crash_repro;
    // The sharded lane never auto-checkpoints and refuses --trigger.
    EXPECT_EQ(flags.count("--trigger") ? std::stoull(flags["--trigger"]) : 0,
              shards == 0 ? 4096u : 0u)
        << crash_repro;

    FaultOptions fault;
    fault.seed = 3;
    fault.shards = shards;
    fault.within_threshold = threshold;
    fault.max_faults = 5;
    const std::string fault_repro = FaultReproCommand(fault);
    ExpectSharedFlags(fault_repro, fault);
    flags = ParseRepro(fault_repro);
    EXPECT_EQ(flags.count("--faults"), 1u) << fault_repro;
    EXPECT_EQ(flags.count("--shards") ? std::stoull(flags["--shards"]) : 0,
              shards)
        << fault_repro;
    EXPECT_EQ(flags["--max-faults"], "5") << fault_repro;
  }
}

// A fresh scratch directory per fault-env test.
std::string FaultScratchDir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / ("modb_fault_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(FaultEnvTest, CountsOpsWithoutInjecting) {
  FaultInjectionEnv env;
  env.SetPlan(FaultPlan{0, FaultKind::kEio});  // Reference run: count only.
  const std::string path = FaultScratchDir("count") + "/file.bin";
  auto file = env.NewWritableFile(path, WriteMode::kCreateExclusive);  // 1
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcd").ok());                           // 2
  ASSERT_TRUE((*file)->Sync().ok());                                   // 3
  ASSERT_TRUE((*file)->Close().ok());                                  // 4
  ASSERT_TRUE(env.GetFileSize(path).ok());                             // 5
  EXPECT_EQ(env.ops_seen(), 5u);
  EXPECT_FALSE(env.injected());
}

TEST(FaultEnvTest, InjectsAtExactlyKAndOnlyOnce) {
  FaultInjectionEnv env;
  env.SetPlan(FaultPlan{3, FaultKind::kEio});
  const std::string path = FaultScratchDir("at_k") + "/file.bin";
  auto file = env.NewWritableFile(path, WriteMode::kCreateExclusive);  // 1
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcd").ok());                           // 2
  const Status failed = (*file)->Sync();                               // 3
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.ToString().find("injected eio (op 3)"),
            std::string::npos)
      << failed.ToString();
  EXPECT_TRUE(env.injected());

  // One-shot: the plan is spent, everything after op 3 proceeds normally
  // and the base file never saw the failed request.
  ASSERT_TRUE((*file)->Append("efgh").ok());                           // 4
  ASSERT_TRUE((*file)->Sync().ok());                                   // 5
  ASSERT_TRUE((*file)->Close().ok());                                  // 6
  std::string bytes;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &bytes).ok());
  EXPECT_EQ(bytes, "abcdefgh");
}

TEST(FaultEnvTest, InapplicableKindForfeitsTheFault) {
  FaultInjectionEnv env;
  // A sync failure planned for an append: nothing may be injected and the
  // run must look exactly like the reference.
  env.SetPlan(FaultPlan{2, FaultKind::kSyncFail});
  const std::string path = FaultScratchDir("forfeit") + "/file.bin";
  auto file = env.NewWritableFile(path, WriteMode::kCreateExclusive);  // 1
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcd").ok());  // 2: sync-fail inapplicable.
  ASSERT_TRUE((*file)->Sync().ok());          // 3: past the plan, no fault.
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_FALSE(env.injected());
  EXPECT_EQ(env.ops_seen(), 4u);
}

TEST(FaultEnvTest, ShortWriteFlushesHalfTheBytes) {
  FaultInjectionEnv env;
  env.SetPlan(FaultPlan{2, FaultKind::kShortWrite});
  const std::string path = FaultScratchDir("short") + "/file.bin";
  auto file = env.NewWritableFile(path, WriteMode::kCreateExclusive);  // 1
  ASSERT_TRUE(file.ok());
  const Status failed = (*file)->Append("abcdefgh");                   // 2
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(env.injected());
  ASSERT_TRUE((*file)->Close().ok());

  std::string bytes;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &bytes).ok());
  EXPECT_EQ(bytes, "abcd");  // Half the frame reached the device.
}

TEST(FaultEnvTest, DropUnsyncedDataTruncatesToSyncedPrefix) {
  FaultInjectionEnv env;
  const std::string path = FaultScratchDir("powerloss") + "/file.bin";
  auto file = env.NewWritableFile(path, WriteMode::kCreateExclusive);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcd").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("efgh").ok());  // Never synced.
  ASSERT_TRUE((*file)->Close().ok());

  std::string bytes;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &bytes).ok());
  ASSERT_EQ(bytes, "abcdefgh");  // Close flushed everything to the OS...
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &bytes).ok());
  EXPECT_EQ(bytes, "abcd");  // ...but power loss keeps only the fsynced part.
}

TEST(FaultEnvTest, RenameMovesSyncTracking) {
  FaultInjectionEnv env;
  const std::string dir = FaultScratchDir("rename");
  const std::string tmp = dir + "/file.tmp";
  const std::string final_path = dir + "/file.bin";
  auto file = env.NewWritableFile(tmp, WriteMode::kCreateExclusive);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abcd").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("ef").ok());  // Unsynced tail.
  ASSERT_TRUE((*file)->Close().ok());
  ASSERT_TRUE(env.RenameFile(tmp, final_path).ok());

  ASSERT_TRUE(env.DropUnsyncedData().ok());
  std::string bytes;
  ASSERT_TRUE(Env::Default()->ReadFileToString(final_path, &bytes).ok());
  EXPECT_EQ(bytes, "abcd");  // The tracking followed the rename.
  EXPECT_EQ(Env::Default()->GetFileSize(tmp).status().code(),
            StatusCode::kNotFound);
}

// The merged durability drivers run over both server kinds: 0 is a plain
// DurableQueryServer, 4 a four-shard ShardedQueryServer.
class FaultMatrixTest : public ::testing::TestWithParam<size_t> {};
class CrashInjectionTest : public ::testing::TestWithParam<size_t> {};

std::string ServerKindName(const ::testing::TestParamInfo<size_t>& info) {
  return info.param == 0 ? "plain" : "shards" + std::to_string(info.param);
}

// A bounded end-to-end matrix run: every (op, kind) pair of a small
// scripted workload, with audits on. Exercises every verdict branch:
// clean completion, degraded + power-loss reopen, and the plain lane's
// checkpoint retry or the sharded lane's healthy-shard liveness.
TEST_P(FaultMatrixTest, SmallMatrixIsGreen) {
  FaultOptions options;
  options.seed = 1;
  options.shards = GetParam();
  options.num_objects = 4;
  options.num_updates = 8;
  options.audit = true;
  // The plain lane faults every op; the sharded one, whose runs fsync four
  // shard directories each, strides over 12 of them.
  options.max_faults = options.shards == 0 ? 0 : 12;
  options.dir = FaultScratchDir("matrix" + ServerKindName({GetParam(), 0}));
  const FaultResult result = RunFaultMatrix(options);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(result.total_ops, 0u);
  const uint64_t stride =
      options.max_faults == 0
          ? 1
          : (result.total_ops + options.max_faults - 1) / options.max_faults;
  // Four kinds per tested op.
  EXPECT_EQ(result.runs, (result.total_ops + stride - 1) / stride * 4);
  EXPECT_GT(result.injected, 0u);
  EXPECT_GT(result.degraded_runs, 0u);
  if (options.shards == 0) {
    EXPECT_GE(result.checkpoint_retries, 1u);
  } else {
    EXPECT_GT(result.liveness_commits, 0u);
  }
  EXPECT_GT(result.reopens, 0u);
  EXPECT_GT(result.probes, 0u);
  EXPECT_GT(result.audits, 0u);
}

TEST_P(CrashInjectionTest, FiveAuditedSeedsAreGreen) {
  size_t boundary_cuts = 0;
  size_t lost_updates = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CrashOptions options;
    options.seed = seed;
    options.shards = GetParam();
    options.audit = true;
    options.dir = FaultScratchDir("crash" + ServerKindName({GetParam(), 0}) +
                                  "-" + std::to_string(seed));
    std::filesystem::remove_all(options.dir);
    const CrashResult result = RunCrashInjection(options);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": " << result.ToString();
    EXPECT_GT(result.probes, 0u);
    EXPECT_GT(result.audits, 0u);
    boundary_cuts += result.boundary_cuts;
    lost_updates += result.lost_updates;
  }
  EXPECT_GT(boundary_cuts, 0u);
  EXPECT_GT(lost_updates, 0u);
}

INSTANTIATE_TEST_SUITE_P(ServerKinds, FaultMatrixTest,
                         ::testing::Values(size_t{0}, size_t{4}),
                         ServerKindName);
INSTANTIATE_TEST_SUITE_P(ServerKinds, CrashInjectionTest,
                         ::testing::Values(size_t{0}, size_t{4}),
                         ServerKindName);

}  // namespace
}  // namespace modb
