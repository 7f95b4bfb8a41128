// Differential fuzzer: drives a seed-deterministic random workload through
// the FutureQueryEngine, the QueryServer and the PastQueryEngine at once and
// compares their k-NN / within answers against the naive Θ(N²) oracle; with
// --audit, every engine's sweep is additionally re-derived from scratch
// after every processed event (SweepAuditor).
//
//   modb_fuzz --seeds 50 --ops 60 --audit     # sweep 50 seeds
//   modb_fuzz --seed 1337 --ops 14 --audit    # replay one printed repro
//
// With --crash, each seed instead runs the durability crash-injection
// harness: a DurableQueryServer is driven through a prefix of the workload,
// its newest WAL segment is truncated at a random byte offset (a torn
// write), and after recovery the remaining updates are replayed in lockstep
// against an uninterrupted in-memory server — answers must be bit-identical.
//
//   modb_fuzz --crash --seeds 25 --audit
//
// With --faults, each seed runs the exhaustive I/O-failure matrix: a
// scripted workload's operations are counted, then the workload is rerun
// once per (operation, fault kind) pair — EIO, ENOSPC, short write, fsync
// failure — with exactly that operation failing. Every rerun must either
// surface kUnavailable (and reopen consistently after emulated power
// loss) or complete bit-identical to the fault-free reference.
//
//   modb_fuzz --faults --ops 20 --audit
//
// With --shards S, each seed runs the sharded differential oracle: the
// same workload is driven through a single-shard and an S-shard
// ShardedQueryServer lane in identical commit batches, and every quiesced
// standing answer, one-shot merged query, and post-recovery answer must
// be bit-identical between the lanes.
//
//   modb_fuzz --shards 4 --seeds 50 --audit
//
// Combining --crash or --faults with --shards S runs the same crash or
// fault driver over an S-shard ShardedQueryServer: after one coordinated
// checkpoint at a seeded batch, every shard's WAL is cut independently
// and reopen must heal to the consistent epoch cut, or
// the k-th I/O operation counted across all shard directories fails and
// the verdicts add degraded-shard isolation and healthy-shard liveness.
//
//   modb_fuzz --crash --shards 4 --seeds 50 --audit
//   modb_fuzz --faults --shards 4 --ops 16
//
// A flag the chosen lane does not read is a usage error. On failure the
// update stream is shrunk to the smallest failing prefix (differential
// mode) and an exact repro command is printed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <set>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "verify/crash.h"
#include "verify/differential.h"
#include "verify/fault.h"
#include "verify/shard_diff.h"

namespace {

// Marks the failure in the ring and writes the flight recorder next to
// the printed repro, so the failing run's causal span chain survives the
// scratch-directory cleanup. Returns the dump path, or "" if the write
// failed.
std::string DumpFailureTrace(const std::string& scratch_root, uint64_t seed) {
  namespace fs = std::filesystem;
  modb::obs::TraceInstant(modb::obs::SpanName::kFuzzFailure,
                          modb::obs::kTraceNoId,
                          std::numeric_limits<double>::quiet_NaN(), seed);
  const fs::path root = scratch_root.empty() ? fs::temp_directory_path()
                                             : fs::path(scratch_root);
  std::error_code ec;
  fs::create_directories(root, ec);
  const std::string path =
      (root / ("modb_fuzz-seed-" + std::to_string(seed) + "-trace.json"))
          .string();
  if (!modb::obs::FlightRecorder::Global().DumpToFile(path).ok()) return "";
  return path;
}

void PrintFailureTrace(const std::string& scratch_root, uint64_t seed) {
  const std::string path = DumpFailureTrace(scratch_root, seed);
  if (!path.empty()) {
    std::printf("  flight recorder: %s\n", path.c_str());
  }
}

void Usage() {
  std::fprintf(stderr,
               "usage: modb_fuzz [--seeds N] [--seed S] [--ops M]\n"
               "                 [--objects N] [--probes N] [--k K]\n"
               "                 [--threshold D] [--audit] [--no-shrink]\n"
               "                 [--verbose]\n"
               "                 [--crash] [--faults] [--max-faults N]\n"
               "                 [--shards S]\n"
               "                 [--dir PATH] [--keep-dir]\n"
               "                 [--trigger BYTES]\n"
               "\n"
               "Runs N differential iterations with seeds S, S+1, ...; each\n"
               "compares every engine's answers against the naive oracle.\n"
               "--audit re-derives the sweep invariants after every event.\n"
               "--crash switches to durability crash-injection: truncate the\n"
               "WAL at a random offset, recover, and require bit-identical\n"
               "answers versus an uninterrupted run. --faults switches to\n"
               "the storage fault-injection matrix: rerun a scripted\n"
               "workload failing its k-th I/O operation for every k and\n"
               "fault kind (--max-faults caps the ops tested per kind).\n"
               "--shards S switches to the sharded differential oracle:\n"
               "an S-shard lane must answer bit-identically to a\n"
               "single-shard lane over the same workload, through one-shot\n"
               "merges, checkpoints and recovery. --crash --shards S cuts\n"
               "every shard's WAL independently (after one coordinated\n"
               "checkpoint at a seeded batch) and requires reopen to\n"
               "heal to the consistent cross-shard epoch cut;\n"
               "--faults --shards S fails the k-th I/O operation counted\n"
               "across all shard directories and requires degraded-shard\n"
               "isolation with healthy-shard liveness.\n"
               "--dir sets the scratch root (default: the system temp\n"
               "directory); --keep-dir keeps scratch directories of failing\n"
               "seeds; --trigger sets the plain --crash lane's\n"
               "auto-checkpoint threshold in bytes (0 disables). A flag\n"
               "the chosen lane does not read exits 2.\n");
}

bool ParseSizeT(const char* text, size_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<size_t>(value);
  return true;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

// What one seed's run reports to the seed loop.
struct SeedRun {
  bool ok = true;
  std::string text;         // The lane result's ToString().
  std::string repro_note;   // Printed before "repro:" (the shrink summary).
  std::string repro;        // The exact command reproducing a failure.
  size_t lane_count = 0;    // The lane's own count (see RunSeeds).
  size_t probes = 0;
  size_t audits = 0;
};

// Runs seeds base_seed, base_seed+1, ... of one lane. A lane with a
// `scratch_name` gets a fresh directory per seed under `scratch_root`
// (default: that name in the system temp directory), removed afterwards
// unless `keep_dir` keeps a failing seed's. Prints failing seeds with
// their repro and flight-recorder dump, then the lane's summary line,
// which sums `lane_count` under `count_noun` when the lane has one.
int RunSeeds(const std::string& lane, size_t num_seeds, uint64_t base_seed,
             std::string scratch_root, const std::string& scratch_name,
             bool keep_dir, bool verbose, const char* count_noun,
             const char* probe_noun,
             const std::function<SeedRun(uint64_t, const std::string&)>&
                 run_seed) {
  namespace fs = std::filesystem;
  if (scratch_root.empty() && !scratch_name.empty()) {
    scratch_root = (fs::temp_directory_path() / scratch_name).string();
  }
  size_t failed_seeds = 0;
  SeedRun total;
  for (size_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = base_seed + i;
    std::string dir;
    std::error_code ec;
    if (!scratch_name.empty()) {
      dir = (fs::path(scratch_root) / ("seed-" + std::to_string(seed)))
                .string();
      fs::remove_all(dir, ec);  // A stale directory would not be scratch.
    }
    const SeedRun run = run_seed(seed, dir);
    total.lane_count += run.lane_count;
    total.probes += run.probes;
    total.audits += run.audits;
    if (!run.ok) ++failed_seeds;
    if (!run.ok || verbose) {
      std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
                  run.text.c_str());
    }
    if (!run.ok) {
      std::printf("  %srepro:\n    %s\n", run.repro_note.c_str(),
                  run.repro.c_str());
      PrintFailureTrace(scratch_root, seed);
    }
    if (dir.empty()) continue;
    if (!run.ok && keep_dir) {
      std::printf("  scratch kept at %s\n", dir.c_str());
    } else {
      fs::remove_all(dir, ec);
    }
  }
  std::printf("%s: %zu/%zu seed(s) ok", lane.c_str(),
              num_seeds - failed_seeds, num_seeds);
  if (count_noun) std::printf(", %zu %s", total.lane_count, count_noun);
  std::printf(", %zu %s, %zu audits\n", total.probes, probe_noun,
              total.audits);
  return failed_seeds == 0 ? 0 : 1;
}

// A lane's options with the flags every lane shares filled in.
template <typename Options>
Options LaneOptions(const modb::FuzzOptions& flags, size_t shards,
                    uint64_t seed, const std::string& dir) {
  Options options;
  options.seed = seed;
  options.shards = shards;
  options.num_objects = flags.num_objects;
  options.num_updates = flags.num_updates;
  options.k = flags.k;
  options.within_threshold = flags.within_threshold;
  options.audit = flags.audit;
  options.dir = dir;
  return options;
}

template <typename Result>
SeedRun Outcome(const Result& result, std::string repro) {
  SeedRun run;
  run.ok = result.ok();
  run.text = result.ToString();
  run.repro = std::move(repro);
  run.probes = result.probes;
  run.audits = result.audits;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // A failure dump is the repro's causal trace: keep every swap, schedule
  // and cancel in it, not just one record per cascade.
  modb::obs::SetSweepTraceDetail(true);
  modb::FuzzOptions options;
  size_t num_seeds = 1;
  bool shrink = true;
  bool verbose = false;
  bool crash = false;
  bool faults = false;
  size_t shards = 0;
  size_t max_faults = 0;
  bool keep_dir = false;
  std::string scratch_root;
  uint64_t trigger_bytes = 8 * 1024;

  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    given.insert(arg);
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "modb_fuzz: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--seeds") {
      ok = ParseSizeT(next(), &num_seeds);
    } else if (arg == "--seed") {
      ok = ParseU64(next(), &options.seed);
    } else if (arg == "--ops") {
      ok = ParseSizeT(next(), &options.num_updates);
    } else if (arg == "--objects") {
      ok = ParseSizeT(next(), &options.num_objects);
    } else if (arg == "--probes") {
      ok = ParseSizeT(next(), &options.num_probes);
    } else if (arg == "--k") {
      ok = ParseSizeT(next(), &options.k);
    } else if (arg == "--threshold") {
      ok = ParseDouble(next(), &options.within_threshold);
    } else if (arg == "--audit") {
      options.audit = true;
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--crash") {
      crash = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--shards") {
      ok = ParseSizeT(next(), &shards);
      if (ok && shards < 2) {
        std::fprintf(stderr,
                     "modb_fuzz: --shards needs at least 2 (the wide lane "
                     "is compared against a single-shard lane)\n");
        return 2;
      }
    } else if (arg == "--max-faults") {
      ok = ParseSizeT(next(), &max_faults);
    } else if (arg == "--dir") {
      scratch_root = next();
    } else if (arg == "--keep-dir") {
      keep_dir = true;
    } else if (arg == "--trigger") {
      ok = ParseU64(next(), &trigger_bytes);
    } else {
      std::fprintf(stderr, "modb_fuzz: unknown flag %s\n", arg.c_str());
      Usage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "modb_fuzz: bad value for %s\n", arg.c_str());
      return 2;
    }
  }

  // Every flag given must be one the chosen lane reads.
  if (crash && faults) {
    std::fprintf(stderr, "modb_fuzz: --crash and --faults select different "
                         "lanes\n");
    return 2;
  }
  std::string lane = "modb_fuzz";
  if (crash) lane += " --crash";
  if (faults) lane += " --faults";
  if (shards > 0) lane += " --shards " + std::to_string(shards);
  const bool scratch_lane = crash || faults || shards > 0;
  std::set<std::string> reads = {"--seeds", "--seed",   "--ops",
                                 "--objects", "--k",    "--threshold",
                                 "--audit", "--verbose", "--dir",
                                 "--crash", "--faults", "--shards"};
  if (scratch_lane) {
    reads.insert("--keep-dir");
  } else {
    reads.insert({"--probes", "--no-shrink"});
  }
  if (crash && shards == 0) reads.insert("--trigger");
  if (faults) reads.insert("--max-faults");
  for (const std::string& flag : given) {
    if (reads.count(flag) == 0) {
      std::fprintf(stderr, "modb_fuzz: %s is not read by the `%s` lane\n",
                   flag.c_str(), lane.c_str());
      return 2;
    }
  }

  std::function<SeedRun(uint64_t, const std::string&)> run_seed;
  if (crash) {
    run_seed = [&](uint64_t seed, const std::string& dir) {
      auto run = LaneOptions<modb::CrashOptions>(options, shards, seed, dir);
      run.trigger_bytes = trigger_bytes;
      const modb::CrashResult result = modb::RunCrashInjection(run);
      SeedRun outcome = Outcome(result, modb::CrashReproCommand(run));
      outcome.lane_count = result.torn_tail ? 1 : 0;
      return outcome;
    };
  } else if (faults) {
    run_seed = [&](uint64_t seed, const std::string& dir) {
      auto run = LaneOptions<modb::FaultOptions>(options, shards, seed, dir);
      run.max_faults = max_faults;
      const modb::FaultResult result = modb::RunFaultMatrix(run);
      SeedRun outcome = Outcome(result, modb::FaultReproCommand(run));
      outcome.lane_count = result.runs;
      return outcome;
    };
  } else if (shards > 0) {
    run_seed = [&](uint64_t seed, const std::string& dir) {
      const auto run =
          LaneOptions<modb::ShardDiffOptions>(options, shards, seed, dir);
      const modb::ShardDiffResult result = modb::RunShardDifferential(run);
      SeedRun outcome = Outcome(result, modb::ShardReproCommand(run));
      outcome.probes += result.merged_probes;
      return outcome;
    };
  } else {
    run_seed = [&](uint64_t seed, const std::string&) {
      modb::FuzzOptions run = options;
      run.seed = seed;
      const modb::FuzzResult result = modb::RunDifferential(run);
      SeedRun outcome = Outcome(result, modb::ReproCommand(run));
      outcome.probes += result.timeline_probes;
      if (!result.ok() && shrink) {
        // The shrink's final replay of the minimal failing prefix is the
        // last thing in the trace ring, so the dump that follows IS the
        // repro's causal trace.
        run.num_updates = modb::ShrinkUpdatePrefix(run);
        outcome.repro_note =
            "shrunk to " + std::to_string(run.num_updates) + " update(s); ";
        outcome.repro = modb::ReproCommand(run);
      }
      return outcome;
    };
  }
  const std::string scratch_name =
      scratch_lane ? std::string("modb_") + (shards > 0 ? "shard_" : "") +
                         (crash ? "crash_" : faults ? "fault_" : "") + "fuzz"
                   : "";
  return RunSeeds(lane, num_seeds, options.seed, scratch_root, scratch_name,
                  keep_dir, verbose,
                  crash ? "torn-tail repairs" : faults ? "fault runs" : nullptr,
                  scratch_lane ? "bit-exact probes" : "probe comparisons",
                  run_seed);
}
