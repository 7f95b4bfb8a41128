// modb_cli — command-line front end for the library: generate workloads,
// inspect MOD files, and run the paper's query kernels against them.
//
//   modb_cli generate --n 100 --dim 2 --seed 42 --updates 50 --out mod.txt
//   modb_cli info mod.txt
//   modb_cli knn mod.txt --k 3 --from 0 --to 50 [--query X,Y[,VX,VY]]
//   modb_cli within mod.txt --threshold 2500 --from 0 --to 50
//   modb_cli fastest mod.txt --target 3,-2 --at 10
//   modb_cli constraints mod.txt --oid 5
//
// All subcommands print to stdout; errors go to stderr with exit code 1,
// and a numeric flag that is not a whole number of its type exits 2.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "constraint/linear_constraint.h"
#include "durability/durable_server.h"
#include "durability/shard_layout.h"
#include "gdist/builtin.h"
#include "shard/sharded_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/modb_metrics.h"
#include "obs/query_cost.h"
#include "queries/fastest.h"
#include "queries/knn.h"
#include "queries/within.h"
#include "trajectory/serialization.h"
#include "workload/generator.h"

namespace modb {
namespace {

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

int Usage() {
  std::cerr <<
      "usage: modb_cli <command> [args]\n"
      "  generate --n N [--dim D] [--seed S] [--updates U] [--gap G]\n"
      "           [--out FILE]          synthesize a MOD (stdout if no "
      "--out)\n"
      "  info FILE                      summarize a MOD file\n"
      "  knn FILE --k K --from A --to B [--query X,Y[,VX,VY]]\n"
      "                                 k-NN timeline over [A, B]\n"
      "  within FILE --threshold T --from A --to B [--query X,Y[,VX,VY]]\n"
      "                                 range-query timeline over [A, B]\n"
      "  fastest FILE --target X,Y --at T\n"
      "                                 fastest arrival at instant T\n"
      "  constraints FILE --oid O       print a trajectory as Example 1's\n"
      "                                 constraint formula\n"
      "persistent mode (DIR is a durable database directory):\n"
      "  db-init DIR [--dim D] [--shards S]\n"
      "                                 create an empty durable database;\n"
      "                                 --shards S hash-partitions it into\n"
      "                                 S shared-nothing shards (all other\n"
      "                                 db-* verbs auto-detect the layout)\n"
      "  db-apply DIR [--file F] [--sync none|record]\n"
      "                                 apply update lines from F or stdin:\n"
      "                                   new OID T X,Y VX,VY\n"
      "                                   chdir OID T VX,VY\n"
      "                                   terminate OID T\n"
      "  db-info DIR                    recover and summarize the database\n"
      "  db-checkpoint DIR              snapshot + rotate + prune\n"
      "  db-addquery DIR --type knn|within [--k K] [--threshold T]\n"
      "              [--key NAME] [--query X,Y[,VX,VY]]\n"
      "                                 register a durable standing query\n"
      "  db-rmquery DIR --id I          unregister a durable query\n"
      "  db-answers DIR --at T          advance to T and print every\n"
      "                                 standing query's answer\n"
      "  db-stats DIR [--format text|json]\n"
      "                                 recover and dump every metric\n"
      "                                 (docs/METRICS.md lists them); on a\n"
      "                                 sharded DIR a per-shard health\n"
      "                                 section precedes the registry\n"
      "  db-explain DIR ID [--format text|json] [--timing on|off]\n"
      "                                 per-query cost report: engine\n"
      "                                 group, cumulative cost columns,\n"
      "                                 per-shard breakdown\n"
      "                                 (docs/QUERYCOST.md)\n"
      "  db-top DIR [--sort cost|churn] [--limit N] [--format text|json]\n"
      "                                 rank standing queries by attributed\n"
      "                                 sweep cost or answer churn\n"
      "  db-trace DIR [--out FILE]      recover and dump the flight\n"
      "                                 recorder as Chrome trace-event\n"
      "                                 JSON (docs/TRACING.md; open in\n"
      "                                 Perfetto)\n"
      "any command also accepts:\n"
      "  --stats text|json              dump the metrics the command\n"
      "                                 produced before exiting\n";
  return 1;
}

// Parses all of `text` as a number with std::from_chars: no sign for an
// unsigned type, no leading space or '+', no hex or trailing junk.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

// Every numeric flag and the type it parses as. Run() checks each one
// given before any command runs and refuses junk (`--gap abc`, `--n 3x`)
// with exit 2, so a command reads them through Args::Number unchecked.
enum class NumberKind { kUnsigned, kSigned, kReal };
const std::map<std::string, NumberKind>& NumericFlags() {
  static const std::map<std::string, NumberKind> flags = {
      {"n", NumberKind::kUnsigned},       {"dim", NumberKind::kUnsigned},
      {"seed", NumberKind::kUnsigned},    {"updates", NumberKind::kUnsigned},
      {"k", NumberKind::kUnsigned},       {"trigger", NumberKind::kUnsigned},
      {"shards", NumberKind::kUnsigned},  {"limit", NumberKind::kUnsigned},
      {"oid", NumberKind::kSigned},       {"id", NumberKind::kSigned},
      {"gap", NumberKind::kReal},         {"from", NumberKind::kReal},
      {"to", NumberKind::kReal},          {"at", NumberKind::kReal},
      {"threshold", NumberKind::kReal}};
  return flags;
}

bool ValidNumber(NumberKind kind, const std::string& text) {
  uint64_t u;
  int64_t i;
  double d;
  switch (kind) {
    case NumberKind::kUnsigned:
      return ParseNumber(text, &u);
    case NumberKind::kSigned:
      return ParseNumber(text, &i);
    case NumberKind::kReal:
      return ParseNumber(text, &d);
  }
  return false;
}

// "--key value" flags into a map; positional args into a vector.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  static Args Parse(int argc, char** argv, int start) {
    Args args;
    for (int i = start; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) == 0 && i + 1 < argc) {
        args.flags[token.substr(2)] = argv[++i];
      } else {
        args.positional.push_back(token);
      }
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }

  // A numeric flag Run() has validated, or `fallback` when absent.
  template <typename T>
  T Number(const std::string& key, T fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    T value{};
    MODB_CHECK(ParseNumber(it->second, &value)) << "--" << key << " unchecked";
    return value;
  }
};

bool ParseVec(const std::string& text, std::vector<double>* out) {
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    double value;
    if (!ParseNumber(item, &value)) return false;
    out->push_back(value);
  }
  return !out->empty();
}

StatusOr<MovingObjectDatabase> LoadMod(const std::string& path) {
  std::string text;
  MODB_RETURN_IF_ERROR(Env::Default()->ReadFileToString(path, &text));
  return ModFromString(text);
}

// The query trajectory: stationary at the origin unless --query gives
// "X,Y" (stationary) or "X,Y,VX,VY" (moving), matched to the MOD's dim.
StatusOr<Trajectory> QueryTrajectory(const Args& args, size_t dim) {
  if (!args.Has("query")) {
    return Trajectory::Stationary(0.0, Vec::Zero(dim));
  }
  std::vector<double> numbers;
  if (!ParseVec(args.Get("query", ""), &numbers)) {
    return Status::InvalidArgument("bad --query");
  }
  if (numbers.size() == dim) {
    return Trajectory::Stationary(
        0.0, Vec(std::vector<double>(numbers.begin(), numbers.end())));
  }
  if (numbers.size() == 2 * dim) {
    return Trajectory::Linear(
        0.0, Vec(std::vector<double>(numbers.begin(),
                                     numbers.begin() +
                                         static_cast<ptrdiff_t>(dim))),
        Vec(std::vector<double>(numbers.begin() + static_cast<ptrdiff_t>(dim),
                                numbers.end())));
  }
  return Status::InvalidArgument("--query needs dim or 2*dim numbers");
}

int CmdGenerate(const Args& args) {
  RandomModOptions options;
  options.num_objects = args.Number<size_t>("n", 100);
  options.dim = args.Number<size_t>("dim", 2);
  options.seed = args.Number<uint64_t>("seed", 42);
  if (options.num_objects == 0 || options.dim == 0) {
    return Fail("--n and --dim must be positive");
  }
  MovingObjectDatabase mod = RandomMod(options);
  const size_t updates = args.Number<size_t>("updates", 0);
  if (updates > 0) {
    UpdateStreamOptions stream;
    stream.count = updates;
    stream.mean_gap = args.Number<double>("gap", 1.0);
    stream.seed = options.seed + 1;
    const Status status =
        mod.ApplyAll(RandomUpdateStream(mod, options, stream));
    if (!status.ok()) return Fail(status.ToString());
  }
  const std::string text = ModToString(mod);
  if (args.Has("out")) {
    std::ofstream out(args.Get("out", ""));
    if (!(out << text)) return Fail("cannot write " + args.Get("out", ""));
    std::cout << "wrote " << mod.size() << " objects ("
              << mod.TotalPieces() << " pieces) to " << args.Get("out", "")
              << "\n";
  } else {
    std::cout << text;
  }
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto mod = LoadMod(args.positional[0]);
  if (!mod.ok()) return Fail(mod.status().ToString());
  std::cout << "dim: " << mod->dim() << "\n"
            << "last update (tau): " << mod->last_update_time() << "\n"
            << "objects: " << mod->size() << "\n"
            << "pieces: " << mod->TotalPieces() << "\n"
            << "alive at tau: " << mod->AliveAt(mod->last_update_time()).size()
            << "\n";
  return 0;
}

void PrintTimeline(const AnswerTimeline& timeline) {
  std::cout << timeline.ToString();
  std::cout << "Q-exists: " << timeline.Existential().size()
            << " objects, Q-forall: " << timeline.Universal().size()
            << " objects\n";
}

int CmdKnn(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto mod = LoadMod(args.positional[0]);
  if (!mod.ok()) return Fail(mod.status().ToString());
  const size_t k = args.Number<size_t>("k", 1);
  const double from = args.Number<double>("from", 0.0);
  const double to = args.Number<double>("to", 0.0);
  if (k == 0 || to < from) return Fail("need --k >= 1 and --to >= --from");
  const auto query = QueryTrajectory(args, mod->dim());
  if (!query.ok()) return Fail(query.status().ToString());
  PrintTimeline(PastKnn(*mod,
                        std::make_shared<SquaredEuclideanGDistance>(*query),
                        k, TimeInterval(from, to)));
  return 0;
}

int CmdWithin(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto mod = LoadMod(args.positional[0]);
  if (!mod.ok()) return Fail(mod.status().ToString());
  if (!args.Has("threshold")) return Fail("--threshold required");
  const double threshold = args.Number<double>("threshold", 0.0);
  const double from = args.Number<double>("from", 0.0);
  const double to = args.Number<double>("to", 0.0);
  if (to < from) return Fail("need --to >= --from");
  const auto query = QueryTrajectory(args, mod->dim());
  if (!query.ok()) return Fail(query.status().ToString());
  PrintTimeline(PastWithin(
      *mod, std::make_shared<SquaredEuclideanGDistance>(*query), threshold,
      TimeInterval(from, to)));
  return 0;
}

int CmdFastest(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto mod = LoadMod(args.positional[0]);
  if (!mod.ok()) return Fail(mod.status().ToString());
  std::vector<double> target;
  if (!args.Has("target") || !ParseVec(args.Get("target", ""), &target) ||
      target.size() != mod->dim()) {
    return Fail("--target needs dim numbers");
  }
  const double at = args.Number<double>("at", 0.0);
  const std::set<ObjectId> answer =
      FastestArrivalAt(*mod, Vec(std::move(target)), at);
  std::cout << "fastest arrival at t=" << at << ":";
  for (ObjectId oid : answer) std::cout << " o" << oid;
  std::cout << "\n";
  return 0;
}

int CmdConstraints(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto mod = LoadMod(args.positional[0]);
  if (!mod.ok()) return Fail(mod.status().ToString());
  const ObjectId oid = args.Number<ObjectId>("oid", 0);
  const Trajectory* trajectory = mod->Find(oid);
  if (trajectory == nullptr) return Fail("no such oid");
  std::cout << TrajectoryToConstraints(*trajectory).ToString() << "\n";
  return 0;
}

// ---- persistent mode (durable database directories) ----------------------

StatusOr<DurabilityOptions> DbOptions(const Args& args) {
  DurabilityOptions options;
  options.dim = args.Number<size_t>("dim", 2);
  if (options.dim == 0) return Status::InvalidArgument("--dim must be positive");
  const std::string sync = args.Get("sync", "none");
  if (sync == "record") {
    options.wal.sync = SyncPolicy::kEveryRecord;
  } else if (sync != "none") {
    return Status::InvalidArgument("--sync must be none or record");
  }
  if (args.Has("trigger")) {
    options.snapshot.trigger_bytes = args.Number<uint64_t>("trigger", 0);
  }
  return options;
}

// Either flavor of persistent database — a single DurableQueryServer or a
// ShardedQueryServer — behind the one surface the db-* verbs use. The
// flavor is picked by probing the SHARDS manifest: db-init --shards S
// writes it, every other verb adopts whatever the directory says, so no
// later command needs a flag to open a sharded database.
struct AnyDb {
  std::unique_ptr<DurableQueryServer> single;
  std::unique_ptr<ShardedQueryServer> sharded;

  bool is_sharded() const { return sharded != nullptr; }
  const std::string& dir() const {
    return is_sharded() ? sharded->dir() : single->dir();
  }
  size_t dim() const {
    return is_sharded() ? sharded->manifest().dim
                        : single->server().mod().dim();
  }
  bool recovered() const {
    return is_sharded() ? sharded->recovered() : single->open_info().recovered;
  }
  uint64_t seq() const { return is_sharded() ? sharded->seq() : single->seq(); }
  double now() const {
    return is_sharded() ? sharded->now() : single->server().now();
  }
  Status ApplyUpdate(const Update& update) {
    return is_sharded() ? sharded->ApplyUpdate(update)
                        : single->ApplyUpdate(update);
  }
  Status Flush() { return is_sharded() ? sharded->Flush() : single->Flush(); }
  Status Checkpoint() {
    return is_sharded() ? sharded->Checkpoint() : single->Checkpoint();
  }
  StatusOr<QueryId> AddKnn(const std::string& key, const Trajectory& query,
                           size_t k) {
    return is_sharded() ? sharded->AddKnn(key, query, k)
                        : single->AddKnn(key, query, k);
  }
  StatusOr<QueryId> AddWithin(const std::string& key, const Trajectory& query,
                              double threshold) {
    return is_sharded() ? sharded->AddWithin(key, query, threshold)
                        : single->AddWithin(key, query, threshold);
  }
  Status RemoveQuery(QueryId id) {
    return is_sharded() ? sharded->RemoveQuery(id) : single->RemoveQuery(id);
  }
  void AdvanceTo(double t) {
    if (is_sharded()) {
      sharded->AdvanceTo(t);
    } else {
      single->AdvanceTo(t);
    }
  }
  std::set<ObjectId> Answer(QueryId id) {
    return is_sharded() ? sharded->Answer(id) : single->Answer(id);
  }
  const std::map<QueryId, LoggedQuery>& live_queries() const {
    return is_sharded() ? sharded->live_queries() : single->live_queries();
  }
  obs::QueryCostReport ExplainQuery(QueryId id) const {
    return is_sharded() ? sharded->ExplainQuery(id) : single->ExplainQuery(id);
  }
  std::vector<obs::TopEntry> TopQueries() const {
    return is_sharded() ? sharded->TopQueries() : single->TopQueries();
  }
};

StatusOr<AnyDb> OpenAnyDb(const Args& args, bool allow_degraded = false) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("a database DIR is required");
  }
  auto options = DbOptions(args);
  if (!options.ok()) return options.status();
  const std::string& dir = args.positional[0];
  const size_t shards = args.Number<size_t>("shards", 0);
  const StatusOr<ShardManifest> manifest =
      ReadShardManifest(Env::Default(), dir);
  if (manifest.status().code() == StatusCode::kDataLoss) {
    return manifest.status();
  }
  AnyDb db;
  if (manifest.ok() || shards > 0) {
    ShardedServerOptions sharded;
    sharded.shards = shards;  // 0 adopts the manifest.
    sharded.durability = *options;
    // Inspection verbs want a report even when a shard cannot open; the
    // degraded open is read-only, so mutating verbs keep the default.
    sharded.allow_degraded_shards = allow_degraded;
    auto opened = ShardedQueryServer::Open(dir, sharded);
    if (!opened.ok()) return opened.status();
    db.sharded = std::move(*opened);
    return db;
  }
  auto opened = DurableQueryServer::Open(dir, *options);
  if (!opened.ok()) return opened.status();
  db.single = std::move(*opened);
  return db;
}

// One textual update: "new OID T X,Y VX,VY", "chdir OID T VX,VY", or
// "terminate OID T".
StatusOr<Update> ParseUpdateLine(const std::string& line, size_t dim) {
  std::istringstream in(line);
  std::string op;
  long long oid = 0;
  double time = 0.0;
  if (!(in >> op >> oid >> time)) {
    return Status::InvalidArgument("bad update line: " + line);
  }
  if (op == "terminate") return Update::TerminateObject(oid, time);
  std::string first, second;
  std::vector<double> position, velocity;
  if (op == "new") {
    if (!(in >> first >> second) || !ParseVec(first, &position) ||
        !ParseVec(second, &velocity) || position.size() != dim ||
        velocity.size() != dim) {
      return Status::InvalidArgument("bad new line: " + line);
    }
    return Update::NewObject(oid, time, Vec(std::move(position)),
                             Vec(std::move(velocity)));
  }
  if (op == "chdir") {
    if (!(in >> first) || !ParseVec(first, &velocity) ||
        velocity.size() != dim) {
      return Status::InvalidArgument("bad chdir line: " + line);
    }
    return Update::ChangeDirection(oid, time, Vec(std::move(velocity)));
  }
  return Status::InvalidArgument("unknown update op: " + op);
}

int CmdDbInit(const Args& args) {
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  if (db->recovered()) {
    return Fail(db->dir() + " already holds a database");
  }
  std::cout << "initialized " << db->dir() << " (dim " << db->dim();
  if (db->is_sharded()) {
    std::cout << ", " << db->sharded->shard_count() << " shards";
  }
  std::cout << ")\n";
  return 0;
}

int CmdDbApply(const Args& args) {
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  std::ifstream file;
  if (args.Has("file")) {
    file.open(args.Get("file", ""));
    if (!file) return Fail("cannot open " + args.Get("file", ""));
  }
  std::istream& in = args.Has("file") ? file : std::cin;
  const size_t dim = db->dim();
  size_t applied = 0;
  size_t rejected = 0;
  std::string line;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const auto update = ParseUpdateLine(line, dim);
    if (!update.ok()) return Fail(update.status().ToString());
    const Status status = db->ApplyUpdate(*update);
    if (status.ok()) {
      ++applied;
    } else {
      ++rejected;
      std::cerr << "rejected: " << line << " (" << status.ToString() << ")\n";
    }
  }
  const Status flushed = db->Flush();
  if (!flushed.ok()) return Fail(flushed.ToString());
  std::cout << "applied " << applied << " update(s), rejected " << rejected
            << ", seq " << db->seq() << "\n";
  return 0;
}

void PrintLiveQueries(const AnyDb& db) {
  std::cout << "standing queries: " << db.live_queries().size() << "\n";
  for (const auto& [id, query] : db.live_queries()) {
    std::cout << "  q" << id << ": "
              << (query.is_knn ? "knn k=" + std::to_string(query.k)
                               : "within threshold=" +
                                     std::to_string(query.threshold))
              << " gdist=" << query.gdist_key << "\n";
  }
}

int CmdDbInfo(const Args& args) {
  // db-info is pure inspection: open degraded-tolerant, so a shard on a
  // dead disk yields a health report instead of a refusal.
  auto db = OpenAnyDb(args, /*allow_degraded=*/true);
  if (!db.ok()) return Fail(db.status().ToString());
  if (db->is_sharded()) {
    ShardedQueryServer& sharded = *db->sharded;
    const std::vector<ShardHealth> health = sharded.Health();
    size_t degraded = 0;
    for (const ShardHealth& h : health) degraded += h.degraded ? 1 : 0;
    std::cout << "dir: " << sharded.dir() << "\n"
              << "sharded: " << sharded.shard_count()
              << " shared-nothing shard(s)"
              << (degraded > 0
                      ? ", " + std::to_string(degraded) + " DEGRADED"
                      : "")
              << "\n"
              << "recovered: " << (sharded.recovered() ? "yes" : "no (fresh)")
              << "\n"
              << "seq: " << sharded.seq() << " (sum over shards)\n"
              << "dim: " << sharded.manifest().dim << "\n"
              << "last update (tau): " << sharded.now() << "\n";
    size_t objects = 0;
    size_t pieces = 0;
    for (size_t s = 0; s < sharded.shard_count(); ++s) {
      if (!sharded.shard_open(s)) continue;
      const auto& mod = sharded.shard(s).server().mod();
      objects += mod.size();
      pieces += mod.TotalPieces();
    }
    std::cout << "objects: " << objects << " (" << pieces << " pieces"
              << (degraded > 0 ? ", open shards only" : "") << ")\n";
    for (const ShardHealth& h : health) {
      std::cout << "  " << ShardSubdir(h.shard) << ": ";
      if (!sharded.shard_open(h.shard)) {
        // A placeholder: the shard refused to open (dead disk, torn
        // past a seal, ...) — all we know is why.
        std::cout << "UNAVAILABLE (" << h.cause.ToString() << ")\n";
        continue;
      }
      std::cout << "seq " << sharded.shard(h.shard).seq() << ", "
                << sharded.shard(h.shard).server().mod().size()
                << " object(s), durable epoch " << h.durable_epoch
                << ", durable seq " << h.durable_seq;
      if (h.degraded) {
        std::cout << ", DEGRADED (" << h.cause.ToString() << ")";
      }
      std::cout << "\n";
    }
    PrintLiveQueries(*db);
    return 0;
  }
  const auto& info = db->single->open_info();
  const auto& mod = db->single->server().mod();
  std::cout << "dir: " << db->dir() << "\n"
            << "recovered: " << (info.recovered ? "yes" : "no (fresh)") << "\n"
            << "from snapshot: "
            << (info.from_snapshot
                    ? "seq " + std::to_string(info.snapshot_seq)
                    : std::string("no"))
            << "\n"
            << "replayed updates: " << info.replayed_updates << " ("
            << info.skipped_updates << " skipped)\n";
  if (info.truncated_tail) {
    std::cout << "torn tail repaired: " << info.truncated_bytes
              << " byte(s) dropped (" << info.truncated_detail << ")\n";
  }
  std::cout << "seq: " << db->seq() << "\n"
            << "dim: " << mod.dim() << "\n"
            << "last update (tau): " << mod.last_update_time() << "\n"
            << "objects: " << mod.size() << " (" << mod.TotalPieces()
            << " pieces)\n";
  PrintLiveQueries(*db);
  return 0;
}

int CmdDbCheckpoint(const Args& args) {
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  const Status status = db->Checkpoint();
  if (!status.ok()) return Fail(status.ToString());
  std::cout << "checkpoint written at seq " << db->seq() << "\n";
  return 0;
}

int CmdDbAddQuery(const Args& args) {
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  const auto query = QueryTrajectory(args, db->dim());
  if (!query.ok()) return Fail(query.status().ToString());
  const std::string key = args.Get("key", "euclid2");
  const std::string type = args.Get("type", "");
  StatusOr<QueryId> id = Status::InvalidArgument("--type must be knn|within");
  if (type == "knn") {
    const size_t k = args.Number<size_t>("k", 1);
    if (k == 0) return Fail("--k must be positive");
    id = db->AddKnn(key, *query, k);
  } else if (type == "within") {
    if (!args.Has("threshold")) return Fail("--threshold required");
    id = db->AddWithin(key, *query, args.Number<double>("threshold", 0.0));
  }
  if (!id.ok()) return Fail(id.status().ToString());
  std::cout << "registered q" << *id << "\n";
  return 0;
}

int CmdDbRmQuery(const Args& args) {
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  if (!args.Has("id")) return Fail("--id required");
  const QueryId id = args.Number<QueryId>("id", 0);
  const Status status = db->RemoveQuery(id);
  if (!status.ok()) return Fail(status.ToString());
  std::cout << "removed q" << id << "\n";
  return 0;
}

int CmdDbAnswers(const Args& args) {
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  const double at = args.Number<double>("at", db->now());
  if (at < db->now()) {
    return Fail("--at precedes the server's current time");
  }
  db->AdvanceTo(at);
  std::cout << "answers at t=" << at << ":\n";
  for (const auto& [id, query] : db->live_queries()) {
    (void)query;
    std::cout << "  q" << id << ":";
    for (ObjectId oid : db->Answer(id)) std::cout << " o" << oid;
    std::cout << "\n";
  }
  return 0;
}

// Dumps the metrics registry in the requested format; "" is a no-op.
// Returns false on an unknown format.
bool DumpStats(const std::string& format) {
  if (format.empty()) return true;
  if (format == "text") {
    std::cout << obs::MetricsRegistry::Global().ToText();
    return true;
  }
  if (format == "json") {
    std::cout << obs::MetricsRegistry::Global().ToJson() << "\n";
    return true;
  }
  return false;
}

int CmdDbStats(const Args& args) {
  // Stats are inspection: open degraded-tolerant so a dead shard still
  // yields the healthy shards' metrics plus its own failure cause.
  auto db = OpenAnyDb(args, /*allow_degraded=*/true);
  if (!db.ok()) return Fail(db.status().ToString());
  const std::string format = args.Get("format", "text");
  if (format != "text" && format != "json") {
    return Fail("--format must be text|json");
  }
  // Derived gauges (exact tree depth, order/queue size) are refreshed by
  // the registry's refresh hooks inside every snapshot render, so the
  // dump below — like --stats on any verb — always sees current values.
  if (!db->is_sharded()) {
    DumpStats(format);
    return 0;
  }
  // Sharded: the registry merges every shard's engines, so lead with the
  // per-shard identities (durable high-water marks, degraded causes) the
  // merge erases.
  ShardedQueryServer& sharded = *db->sharded;
  const std::vector<ShardHealth> health = sharded.Health();
  if (format == "text") {
    std::cout << "shards: " << sharded.shard_count() << "\n";
    for (const ShardHealth& h : health) {
      std::cout << "  " << ShardSubdir(h.shard) << ": ";
      if (!sharded.shard_open(h.shard)) {
        std::cout << "UNAVAILABLE (" << h.cause.ToString() << ")\n";
        continue;
      }
      std::cout << "durable epoch " << h.durable_epoch << ", durable seq "
                << h.durable_seq;
      if (h.degraded) {
        std::cout << ", DEGRADED (" << h.cause.ToString() << ")";
      }
      std::cout << "\n";
    }
    DumpStats(format);
    return 0;
  }
  std::cout << "{\"shards\": [";
  for (const ShardHealth& h : health) {
    if (h.shard > 0) std::cout << ", ";
    std::cout << "{\"shard\": " << h.shard << ", \"open\": "
              << (sharded.shard_open(h.shard) ? "true" : "false")
              << ", \"degraded\": " << (h.degraded ? "true" : "false")
              << ", \"cause\": \"" << h.cause.ToString() << "\""
              << ", \"durableEpoch\": " << h.durable_epoch
              << ", \"durableSeq\": " << h.durable_seq << "}";
  }
  std::cout << "], \"metrics\": " << obs::MetricsRegistry::Global().ToJson()
            << "}\n";
  return 0;
}

int CmdDbExplain(const Args& args) {
  auto db = OpenAnyDb(args, /*allow_degraded=*/true);
  if (!db.ok()) return Fail(db.status().ToString());
  if (args.positional.size() < 2) return Fail("db-explain needs DIR and ID");
  QueryId id;
  if (!ParseNumber(args.positional[1], &id)) {
    return Fail("db-explain ID must be a number");
  }
  const std::string format = args.Get("format", "text");
  const std::string timing = args.Get("timing", "on");
  if (timing != "on" && timing != "off") {
    return Fail("--timing must be on|off");
  }
  const bool include_timing = timing == "on";
  const obs::QueryCostReport report = db->ExplainQuery(id);
  if (format == "text") {
    std::cout << obs::RenderExplainText(report, include_timing);
  } else if (format == "json") {
    std::cout << obs::RenderExplainJson(report, include_timing) << "\n";
  } else {
    return Fail("--format must be text|json");
  }
  return report.found ? 0 : 1;
}

int CmdDbTop(const Args& args) {
  auto db = OpenAnyDb(args, /*allow_degraded=*/true);
  if (!db.ok()) return Fail(db.status().ToString());
  const std::string sort = args.Get("sort", "cost");
  if (sort != "cost" && sort != "churn") {
    return Fail("--sort must be cost|churn");
  }
  const bool by_churn = sort == "churn";
  const size_t limit = args.Number<size_t>("limit", 20);
  const std::string format = args.Get("format", "text");
  std::vector<obs::TopEntry> entries = db->TopQueries();
  obs::SortTop(&entries, by_churn);
  if (format == "text") {
    std::cout << obs::RenderTopText(entries, limit, by_churn);
  } else if (format == "json") {
    std::cout << obs::RenderTopJson(entries, limit, by_churn) << "\n";
  } else {
    return Fail("--format must be text|json");
  }
  return 0;
}

int CmdDbTrace(const Args& args) {
  // Recovering the database replays the WAL through the live engines, so
  // the flight recorder ends up holding the full causal history of the
  // reopen: recovery → engine.start → one founding sweep.insert per
  // sweep → answer changes.
  auto db = OpenAnyDb(args);
  if (!db.ok()) return Fail(db.status().ToString());
  if (args.Has("out")) {
    const std::string path = args.Get("out", "");
    const Status dumped = obs::FlightRecorder::Global().DumpToFile(path);
    if (!dumped.ok()) return Fail(dumped.ToString());
    std::cout << "trace written to " << path << "\n";
  } else {
    obs::FlightRecorder::Global().WriteJson(std::cout);
  }
  return 0;
}

int RunCommand(const std::string& command, const Args& args);

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = Args::Parse(argc, argv, 2);
  for (const auto& [key, value] : args.flags) {
    auto numeric = NumericFlags().find(key);
    if (numeric != NumericFlags().end() &&
        !ValidNumber(numeric->second, value)) {
      std::cerr << "error: --" << key << " needs a number, got '" << value
                << "'\n";
      return 2;
    }
  }
  if (args.Has("stats")) {
    const std::string format = args.Get("stats", "");
    if (format != "text" && format != "json") {
      return Fail("--stats must be text|json");
    }
    // Touch the registrations so even a no-op command dumps the full,
    // consistently named metric set.
    obs::M();
    const int code = RunCommand(command, args);
    DumpStats(format);
    return code;
  }
  return RunCommand(command, args);
}

int RunCommand(const std::string& command, const Args& args) {
  if (command == "generate") return CmdGenerate(args);
  if (command == "info") return CmdInfo(args);
  if (command == "knn") return CmdKnn(args);
  if (command == "within") return CmdWithin(args);
  if (command == "fastest") return CmdFastest(args);
  if (command == "constraints") return CmdConstraints(args);
  if (command == "db-init") return CmdDbInit(args);
  if (command == "db-apply") return CmdDbApply(args);
  if (command == "db-info") return CmdDbInfo(args);
  if (command == "db-checkpoint") return CmdDbCheckpoint(args);
  if (command == "db-addquery") return CmdDbAddQuery(args);
  if (command == "db-rmquery") return CmdDbRmQuery(args);
  if (command == "db-answers") return CmdDbAnswers(args);
  if (command == "db-stats") return CmdDbStats(args);
  if (command == "db-explain") return CmdDbExplain(args);
  if (command == "db-top") return CmdDbTop(args);
  if (command == "db-trace") return CmdDbTrace(args);
  return Usage();
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) { return modb::Run(argc, argv); }
