#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "durability/crc32c.h"
#include "durability/durable_server.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "obs/modb_metrics.h"
#include "trajectory/serialization.h"
#include "verify/fault_env.h"

namespace modb {
namespace {

namespace fs = std::filesystem;

// A fresh scratch directory per test.
std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("modb_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Appends one kUpdate record through the writer's only append path.
Status AppendOne(WalWriter& writer, const Update& update) {
  WalBatch batch;
  batch.AddUpdate(update);
  return writer.AppendBatch(batch);
}

Update SampleNew(ObjectId oid, double t) {
  return Update::NewObject(oid, t, Vec{1.0 * static_cast<double>(oid), 2.0},
                           Vec{0.5, -0.25});
}

// ---------------------------------------------------------------------------
// CRC32c

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors.
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  const std::string numbers = "123456789";
  EXPECT_EQ(Crc32c(numbers.data(), numbers.size()), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "hello, moving objects";
  uint32_t crc = 0;
  for (char c : data) crc = Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32c(data.data(), data.size()));
}

// The SSE4.2 path against the table over random buffers: every length
// 0-4096 at all 8 start alignments, each as one call and as a chain of
// random-length Crc32cExtend calls.
TEST(Crc32cTest, HardwareMatchesTable) {
  if (!Crc32cHardwareAvailable()) GTEST_SKIP() << "the CPU lacks SSE4.2";
  std::mt19937_64 rng(32);
  std::vector<unsigned char> buffer(4096 + 8);
  for (unsigned char& byte : buffer) byte = static_cast<unsigned char>(rng());
  for (size_t size = 0; size <= 4096; ++size) {
    for (size_t align = 0; align < 8; ++align) {
      const unsigned char* data = buffer.data() + align;
      const uint32_t seed = static_cast<uint32_t>(rng());
      const uint32_t table = Crc32cExtendTable(seed, data, size);
      ASSERT_EQ(Crc32cExtendHardware(seed, data, size), table)
          << "size " << size << " align " << align;
      uint32_t chained = seed;
      for (size_t done = 0; done < size;) {
        const size_t step =
            std::min<size_t>(size - done, 1 + rng() % 97);
        chained = Crc32cExtend(chained, data + done, step);
        done += step;
      }
      ASSERT_EQ(chained, table) << "size " << size << " align " << align;
    }
  }
  EXPECT_EQ(Crc32cExtendHardware(0, "123456789", 9), 0xE3069283u);
}

// ---------------------------------------------------------------------------
// WAL

TEST(WalTest, FileNameRoundTrip) {
  const std::string name = WalFileName(42);
  EXPECT_EQ(name, "wal-00000000000000000042.log");
  EXPECT_EQ(ParseWalFileName(name), 42u);
  EXPECT_FALSE(ParseWalFileName("wal-x.log").has_value());
  EXPECT_FALSE(ParseWalFileName("snapshot-00000000000000000042.mod")
                   .has_value());
}

TEST(WalTest, AppendAndReadBack) {
  const std::string dir = ScratchDir("wal_roundtrip");
  const std::string path = dir + "/" + WalFileName(7);
  {
    auto writer = WalWriter::Create(
        path, WalSegmentHeader{2, 7, 1.5}, WalOptions{});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 2.0)).ok());
    ASSERT_TRUE(
        AppendOne(*writer, Update::ChangeDirection(1, 3.0, Vec{1.0, 1.0}))
            .ok());
    ASSERT_TRUE(
        AppendOne(*writer, Update::TerminateObject(1, 4.0)).ok());
    LoggedQuery query;
    query.id = 5;
    query.is_knn = false;
    query.gdist_key = "radar";
    query.query = Trajectory::Linear(0.0, Vec{1.0, 2.0}, Vec{3.0, 4.0});
    query.threshold = 99.5;
    WalBatch registration;
    registration.AddRegisterQuery(query);
    ASSERT_TRUE(writer->AppendBatch(registration).ok());
    WalBatch removal;
    removal.AddRemoveQuery(5);
    ASSERT_TRUE(writer->AppendBatch(removal).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->header.dim, 2u);
  EXPECT_EQ(read->header.start_seq, 7u);
  EXPECT_DOUBLE_EQ(read->header.start_tau, 1.5);
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_EQ(read->records[0].type, WalRecordType::kUpdate);
  EXPECT_EQ(read->records[0].update.kind, UpdateKind::kNew);
  EXPECT_EQ(read->records[0].update.oid, 1);
  EXPECT_EQ(read->records[0].update.position, (Vec{1.0, 2.0}));
  EXPECT_EQ(read->records[2].update.kind, UpdateKind::kTerminate);
  EXPECT_EQ(read->records[3].type, WalRecordType::kRegisterQuery);
  EXPECT_EQ(read->records[3].query.id, 5);
  EXPECT_FALSE(read->records[3].query.is_knn);
  EXPECT_EQ(read->records[3].query.gdist_key, "radar");
  EXPECT_DOUBLE_EQ(read->records[3].query.threshold, 99.5);
  EXPECT_TRUE(read->records[3].query.query ==
              Trajectory::Linear(0.0, Vec{1.0, 2.0}, Vec{3.0, 4.0}));
  EXPECT_EQ(read->records[4].type, WalRecordType::kRemoveQuery);
  EXPECT_EQ(read->records[4].removed_id, 5);
  EXPECT_EQ(read->valid_bytes, read->file_bytes);
}

TEST(WalTest, CreateRefusesExistingFile) {
  const std::string dir = ScratchDir("wal_exists");
  const std::string path = dir + "/" + WalFileName(0);
  ASSERT_TRUE(
      WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0}).ok());
  EXPECT_FALSE(
      WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0}).ok());
}

TEST(WalTest, OpenForAppendContinues) {
  const std::string dir = ScratchDir("wal_append");
  const std::string path = dir + "/" + WalFileName(0);
  {
    auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  }
  {
    auto writer = WalWriter::OpenForAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ(writer->header().start_seq, 0u);
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].update.oid, 2);
}

TEST(WalTest, EveryRecordSyncPolicyWrites) {
  const std::string dir = ScratchDir("wal_sync");
  const std::string path = dir + "/" + WalFileName(0);
  WalOptions options;
  options.sync = SyncPolicy::kEveryRecord;
  auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0}, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  // The record is durable without an explicit Sync(): a concurrent reader
  // sees it immediately.
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, TornTailMidRecordIsDetected) {
  const std::string dir = ScratchDir("wal_torn");
  const std::string path = dir + "/" + WalFileName(0);
  {
    auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  const std::string bytes = ReadFileBytes(path);
  // Chop into the middle of the second record.
  const auto full = ReadWalSegment(path);
  ASSERT_TRUE(full.ok());
  const uint64_t second_start =
      kWalHeaderBytes + (full->valid_bytes - kWalHeaderBytes) / 2;
  WriteFileBytes(path, bytes.substr(0, second_start + 3));
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].update.oid, 1);
}

TEST(WalTest, CrcFlipInvalidatesSuffix) {
  const std::string dir = ScratchDir("wal_crcflip");
  const std::string path = dir + "/" + WalFileName(0);
  {
    auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(AppendOne(*writer, SampleNew(i, 1.0 * i)).ok());
    }
  }
  std::string bytes = ReadFileBytes(path);
  // Flip one payload byte somewhere past the midpoint.
  const size_t victim = kWalHeaderBytes +
                        (bytes.size() - kWalHeaderBytes) / 2 + 10;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  WriteFileBytes(path, bytes);
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->torn_tail);
  EXPECT_LT(read->records.size(), 4u);
  // The valid prefix is intact.
  for (size_t i = 0; i < read->records.size(); ++i) {
    EXPECT_EQ(read->records[i].update.oid, static_cast<ObjectId>(i + 1));
  }
}

TEST(WalTest, GarbageHeaderIsAnError) {
  const std::string dir = ScratchDir("wal_badheader");
  const std::string path = dir + "/" + WalFileName(0);
  WriteFileBytes(path, "not a wal segment at all, definitely");
  EXPECT_FALSE(ReadWalSegment(path).ok());
  WriteFileBytes(path, "short");
  EXPECT_FALSE(ReadWalSegment(path).ok());
}

TEST(WalTest, AppendBatchRoundTripsWithMixedFraming) {
  const std::string dir = ScratchDir("wal_batch");
  const std::string path = dir + "/" + WalFileName(0);
  WalOptions options;
  options.sync = SyncPolicy::kEveryRecord;
  auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0}, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  // One group flush: a commit of one (legacy kUpdate frame) plus a
  // commit of three (one atomic kUpdateBatch frame).
  WalBatch batch;
  batch.AddUpdate(SampleNew(1, 1.0));
  batch.AddUpdates({SampleNew(2, 2.0),
                    Update::ChangeDirection(2, 3.0, Vec{1.0, 1.0}),
                    Update::TerminateObject(1, 4.0)});
  EXPECT_EQ(batch.updates(), 4u);
  ASSERT_TRUE(writer->AppendBatch(batch).ok());
  // kEveryRecord means the flush ended with one fsync of everything.
  EXPECT_EQ(writer->unsynced_bytes(), 0u);

  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].type, WalRecordType::kUpdate);
  EXPECT_EQ(read->records[0].update.oid, 1);
  EXPECT_EQ(read->records[1].type, WalRecordType::kUpdateBatch);
  ASSERT_EQ(read->records[1].batch.size(), 3u);
  EXPECT_EQ(read->records[1].batch[0].oid, 2);
  EXPECT_EQ(read->records[1].batch[1].kind, UpdateKind::kChdir);
  EXPECT_EQ(read->records[1].batch[2].kind, UpdateKind::kTerminate);
}

TEST(WalTest, TornBatchFrameDropsTheWholeBatch) {
  const std::string dir = ScratchDir("wal_batch_torn");
  const std::string path = dir + "/" + WalFileName(0);
  uint64_t bytes_before_batch = 0;
  {
    auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
    bytes_before_batch = writer->bytes();
    WalBatch batch;
    batch.AddUpdates({SampleNew(2, 2.0), SampleNew(3, 2.0), SampleNew(4, 2.0)});
    ASSERT_TRUE(writer->AppendBatch(batch).ok());
  }
  // Chop into the middle of the batch frame: the batch is ONE CRC frame,
  // so a torn write can never split it — all three updates vanish
  // together and the single-update prefix survives.
  const std::string bytes = ReadFileBytes(path);
  const uint64_t cut = bytes_before_batch + (bytes.size() - bytes_before_batch) / 2;
  WriteFileBytes(path, bytes.substr(0, cut));
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].update.oid, 1);
  EXPECT_EQ(read->valid_bytes, bytes_before_batch);
}

TEST(WalTest, CloseFailureMarksWriterUnhealthy) {
  const std::string dir = ScratchDir("wal_close_fail");
  const std::string path = dir + "/" + WalFileName(0);
  FaultInjectionEnv env;
  auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0},
                                  WalOptions{}, &env);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());

  // A buffered append can first surface at close; the writer must go
  // sticky-unhealthy exactly like a failed append, or callers would keep
  // trusting a handle whose final flush was lost.
  env.SetPlan(FaultPlan{1, FaultKind::kEio});  // The very next file op.
  const Status closed = writer->Close();
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(writer->health().ok());
}

// ---------------------------------------------------------------------------
// Snapshots

TEST(SnapshotTest, WriteListPrune) {
  const std::string dir = ScratchDir("snap_basic");
  MovingObjectDatabase mod(2, 0.0);
  ASSERT_TRUE(mod.Apply(SampleNew(1, 0.0)).ok());
  SnapshotOptions options;
  options.retain = 2;
  SnapshotManager manager(dir, options);
  ASSERT_TRUE(manager.Write(mod, 10).ok());
  ASSERT_TRUE(manager.Write(mod, 20).ok());
  ASSERT_TRUE(manager.Write(mod, 30).ok());
  // Segments below the retained floor get pruned; ones at/above stay.
  ASSERT_TRUE(
      WalWriter::Create(dir + "/" + WalFileName(10), WalSegmentHeader{2, 10, 0.0})
          .ok());
  ASSERT_TRUE(
      WalWriter::Create(dir + "/" + WalFileName(20), WalSegmentHeader{2, 20, 0.0})
          .ok());
  ASSERT_TRUE(manager.Prune().ok());
  const auto listed = SnapshotManager::List(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].seq, 20u);
  EXPECT_EQ((*listed)[1].seq, 30u);
  EXPECT_FALSE(fs::exists(dir + "/" + WalFileName(10)));
  EXPECT_TRUE(fs::exists(dir + "/" + WalFileName(20)));
}

TEST(SnapshotTest, StrayTmpIsIgnoredAndPruned) {
  const std::string dir = ScratchDir("snap_tmp");
  WriteFileBytes(dir + "/" + SnapshotManager::FileName(5) + ".tmp",
                 "partial garbage");
  const auto listed = SnapshotManager::List(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->empty());
  SnapshotManager manager(dir);
  ASSERT_TRUE(manager.Prune().ok());
  EXPECT_FALSE(fs::exists(dir + "/" + SnapshotManager::FileName(5) + ".tmp"));
}

TEST(SnapshotTest, SnapshotRoundTripsExactly) {
  const std::string dir = ScratchDir("snap_exact");
  MovingObjectDatabase mod(2, 0.0);
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(3, 0.0, Vec{1.0 / 3.0, -7.0 / 11.0},
                                  Vec{0.1, 0.2}))
          .ok());
  ASSERT_TRUE(
      mod.Apply(Update::ChangeDirection(3, 0.7, Vec{-2.0 / 3.0, 0.0})).ok());
  SnapshotManager manager(dir);
  ASSERT_TRUE(manager.Write(mod, 2).ok());
  const auto loaded =
      ModFromString(ReadFileBytes(dir + "/" + SnapshotManager::FileName(2)));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ModToString(*loaded), ModToString(mod));
}

// ---------------------------------------------------------------------------
// Recovery

TEST(RecoveryTest, EmptyDirectoryIsNotFound) {
  const std::string dir = ScratchDir("rec_empty");
  const auto result = RecoverDatabase(dir);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // A missing directory behaves the same.
  const auto missing = RecoverDatabase(dir + "/nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryTest, WalOnlyReplaysFromEmpty) {
  const std::string dir = ScratchDir("rec_walonly");
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(0),
                                    WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  const auto result = RecoverDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->from_snapshot);
  EXPECT_EQ(result->replayed_updates, 2u);
  EXPECT_EQ(result->next_seq, 2u);
  EXPECT_EQ(result->mod.size(), 2u);
  EXPECT_FALSE(result->truncated_tail);
}

TEST(RecoveryTest, SnapshotWithoutWalIsTheState) {
  const std::string dir = ScratchDir("rec_snaponly");
  MovingObjectDatabase mod(2, 3.0);
  ASSERT_TRUE(mod.Apply(SampleNew(9, 3.0)).ok());
  ASSERT_TRUE(SnapshotManager(dir).Write(mod, 17).ok());
  const auto result = RecoverDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->from_snapshot);
  EXPECT_EQ(result->snapshot_seq, 17u);
  EXPECT_EQ(result->next_seq, 17u);
  EXPECT_EQ(result->replayed_updates, 0u);
  EXPECT_EQ(ModToString(result->mod), ModToString(mod));
}

TEST(RecoveryTest, SnapshotPlusWalSuffix) {
  const std::string dir = ScratchDir("rec_snapwal");
  MovingObjectDatabase mod(2, 1.0);
  ASSERT_TRUE(mod.Apply(SampleNew(1, 1.0)).ok());
  ASSERT_TRUE(SnapshotManager(dir).Write(mod, 1).ok());
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(1),
                                    WalSegmentHeader{2, 1, 1.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  const auto result = RecoverDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->from_snapshot);
  EXPECT_EQ(result->next_seq, 2u);
  EXPECT_EQ(result->replayed_updates, 1u);
  EXPECT_EQ(result->mod.size(), 2u);
}

// A snapshot written before the codec moved to std::to_chars: its doubles
// are max_digits10 decimals (0.33333333333333331 where the shortest form is
// 0.3333333333333333). It must seed recovery with the same bits.
TEST(RecoveryTest, MaxDigits10SnapshotRecovers) {
  const std::string dir = ScratchDir("rec_max_digits10");
  MovingObjectDatabase mod(2, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0 / 3.0, -7.0 / 11.0},
                                          Vec{0.1, 0.2}))
                  .ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.1 + 0.2, Vec{2.0 / 3.0, 1e-17},
                                          Vec{-1.0 / 7.0, 0.0}))
                  .ok());
  ASSERT_TRUE(
      mod.Apply(Update::ChangeDirection(1, 0.7, Vec{-2.0 / 3.0, 1e-17})).ok());
  const std::string legacy =
      "MODB v1 dim=2 tau=0.69999999999999996\n"
      "object 1 end=inf\n"
      "piece 0 0.33333333333333331 -0.63636363636363635 0.10000000000000001 "
      "0.20000000000000001\n"
      "piece 0.69999999999999996 0.40333333333333332 -0.49636363636363634 "
      "-0.66666666666666663 1.0000000000000001e-17\n"
      "object 2 end=inf\n"
      "piece 0.30000000000000004 0.66666666666666663 1.0000000000000001e-17 "
      "-0.14285714285714285 0\n"
      "end\n";
  ASSERT_NE(legacy, ModToString(mod));
  WriteFileBytes(dir + "/" + SnapshotManager::FileName(5), legacy);
  const Update suffix =
      Update::ChangeDirection(2, 0.7 + 0.1, Vec{5.0 / 9.0, -1.0 / 3.0});
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(5),
                                    WalSegmentHeader{2, 5, 0.7});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, suffix).ok());
  }
  ASSERT_TRUE(mod.Apply(suffix).ok());

  const auto result = RecoverDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->from_snapshot);
  EXPECT_EQ(result->snapshot_seq, 5u);
  EXPECT_EQ(result->replayed_updates, 1u);
  EXPECT_EQ(ModToString(result->mod), ModToString(mod));
}

TEST(RecoveryTest, TornTailIsTruncatedAndIdempotent) {
  const std::string dir = ScratchDir("rec_torn");
  const std::string path = dir + "/" + WalFileName(0);
  {
    auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  // Tear the second record.
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 5));

  const auto first = RecoverDatabase(dir, {.repair = true});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->truncated_tail);
  EXPECT_EQ(first->replayed_updates, 1u);
  EXPECT_EQ(first->next_seq, 1u);
  const std::string state = ModToString(first->mod);

  // Recovery repaired the file: a second recovery is clean and
  // bit-identical.
  const auto second = RecoverDatabase(dir, {.repair = true});
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->truncated_tail);
  EXPECT_EQ(second->replayed_updates, 1u);
  EXPECT_EQ(ModToString(second->mod), state);
}

TEST(RecoveryTest, CorruptNonFinalSegmentFails) {
  const std::string dir = ScratchDir("rec_nonfinal");
  const std::string first = dir + "/" + WalFileName(0);
  {
    auto writer = WalWriter::Create(first, WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  }
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(1),
                                    WalSegmentHeader{2, 1, 1.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  // Corrupt the non-final segment's record region.
  std::string bytes = ReadFileBytes(first);
  bytes[kWalHeaderBytes + 12] = static_cast<char>(bytes[kWalHeaderBytes + 12] ^ 1);
  WriteFileBytes(first, bytes);
  const auto result = RecoverDatabase(dir);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(RecoveryTest, WalChainGapFails) {
  const std::string dir = ScratchDir("rec_gap");
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(0),
                                    WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  }
  {
    // Claims to start at 5, but only 1 update precedes it.
    auto writer = WalWriter::Create(dir + "/" + WalFileName(5),
                                    WalSegmentHeader{2, 5, 1.0});
    ASSERT_TRUE(writer.ok());
  }
  const auto result = RecoverDatabase(dir);
  ASSERT_FALSE(result.ok());
}

TEST(RecoveryTest, CorruptSnapshotFallsBackToOlder) {
  const std::string dir = ScratchDir("rec_badsnap");
  MovingObjectDatabase mod(2, 1.0);
  ASSERT_TRUE(mod.Apply(SampleNew(1, 1.0)).ok());
  ASSERT_TRUE(SnapshotManager(dir).Write(mod, 1).ok());
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(1),
                                    WalSegmentHeader{2, 1, 1.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(2, 2.0)).ok());
  }
  // A newer snapshot that is garbage must be skipped, not trusted.
  WriteFileBytes(dir + "/" + SnapshotManager::FileName(2), "MODB vX junk");
  const auto result = RecoverDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshot_seq, 1u);
  EXPECT_EQ(result->replayed_updates, 1u);
  EXPECT_EQ(result->mod.size(), 2u);
}

TEST(RecoveryTest, FinalSegmentWithTornHeaderIsDropped) {
  const std::string dir = ScratchDir("rec_tornheader");
  {
    auto writer = WalWriter::Create(dir + "/" + WalFileName(0),
                                    WalSegmentHeader{2, 0, 0.0});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  }
  WriteFileBytes(dir + "/" + WalFileName(1), "MODBW");  // Crash mid-create.
  const auto result = RecoverDatabase(dir, {.repair = true});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->replayed_updates, 1u);
  EXPECT_TRUE(result->truncated_tail);
  EXPECT_FALSE(fs::exists(dir + "/" + WalFileName(1)));
}

// ---------------------------------------------------------------------------
// DurableQueryServer

TEST(DurableServerTest, FreshOpenThenReopenPreservesEverything) {
  const std::string dir = ScratchDir("srv_reopen");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  QueryId knn_id = 0;
  QueryId within_id = 0;
  std::string state;
  {
    auto opened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& db = *opened;
    EXPECT_FALSE(db->open_info().recovered);
    const Trajectory query =
        Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0});
    auto knn = db->AddKnn("q", query, 2);
    ASSERT_TRUE(knn.ok());
    knn_id = *knn;
    auto within = db->AddWithin("q", query, 100.0);
    ASSERT_TRUE(within.ok());
    within_id = *within;
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(db->ApplyUpdate(SampleNew(i, 0.5 * i)).ok());
    }
    ASSERT_TRUE(
        db->ApplyUpdate(Update::TerminateObject(3, 3.0)).ok());
    EXPECT_EQ(db->seq(), 6u);
    db->AdvanceTo(4.0);
    state = ModToString(db->server().mod());
    ASSERT_TRUE(db->Flush().ok());
  }
  {
    auto reopened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto& db = *reopened;
    EXPECT_TRUE(db->open_info().recovered);
    EXPECT_EQ(db->open_info().replayed_updates, 6u);
    EXPECT_EQ(db->open_info().live_queries, 2u);
    EXPECT_EQ(db->seq(), 6u);
    EXPECT_EQ(ModToString(db->server().mod()), state);
    // The durable ids still resolve.
    db->AdvanceTo(4.0);
    EXPECT_EQ(db->Answer(knn_id).size(), 2u);
    (void)db->Answer(within_id);
    // New ids continue after the journaled ones.
    auto another = db->AddKnn(
        "q", Trajectory::Linear(0.0, Vec{5.0, 5.0}, Vec{0.0, 1.0}), 1);
    ASSERT_TRUE(another.ok());
    EXPECT_GT(*another, within_id);
  }
}

TEST(DurableServerTest, RemoveQueryIsJournaled) {
  const std::string dir = ScratchDir("srv_remove");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  QueryId keep = 0;
  {
    auto opened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    const Trajectory query =
        Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0});
    auto a = db->AddKnn("q", query, 1);
    auto b = db->AddWithin("q", query, 50.0);
    ASSERT_TRUE(a.ok() && b.ok());
    keep = *b;
    ASSERT_TRUE(db->RemoveQuery(*a).ok());
    EXPECT_EQ(db->RemoveQuery(*a).code(), StatusCode::kNotFound);
  }
  {
    auto reopened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(reopened.ok());
    auto& db = *reopened;
    EXPECT_EQ(db->live_queries().size(), 1u);
    EXPECT_EQ(db->live_queries().begin()->first, keep);
    EXPECT_FALSE(db->live_queries().begin()->second.is_knn);
  }
}

TEST(DurableServerTest, CheckpointRotatesSnapshotsAndPrunes) {
  const std::string dir = ScratchDir("srv_checkpoint");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.snapshot.retain = 1;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  const Trajectory query =
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0});
  ASSERT_TRUE(db->AddKnn("q", query, 1).ok());
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(2, 2.0)).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  const auto snapshots = SnapshotManager::List(dir);
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 1u);
  EXPECT_EQ(snapshots->front().seq, 2u);
  // Only the active segment (start_seq == 2) survives pruning.
  EXPECT_FALSE(fs::exists(dir + "/" + WalFileName(0)));
  EXPECT_FALSE(fs::exists(dir + "/" + WalFileName(1)));
  EXPECT_TRUE(fs::exists(dir + "/" + WalFileName(2)));

  // The re-journaled registration survives a reopen.
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(3, 3.0)).ok());
  opened->reset();
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), 3u);
  EXPECT_EQ((*reopened)->live_queries().size(), 1u);
  EXPECT_EQ((*reopened)->open_info().snapshot_seq, 2u);
  EXPECT_EQ((*reopened)->open_info().replayed_updates, 1u);
}

TEST(DurableServerTest, QueryIdsAreNotReusedAfterCheckpointAndReopen) {
  // Regression: the rotated segment re-journaled only live queries, so
  // once a checkpoint pruned the segment that registered the highest id,
  // a removed highest id was handed out again after reopen.
  const std::string dir = ScratchDir("srv_id_reuse");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.snapshot.retain = 1;
  const Trajectory query =
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0});
  {
    auto opened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    ASSERT_EQ(*db->AddKnn("q", query, 1), 0);
    ASSERT_EQ(*db->AddWithin("q", query, 50.0), 1);
    ASSERT_TRUE(db->RemoveQuery(1).ok());
    ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_FALSE(fs::exists(dir + "/" + WalFileName(0)));
  }
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  EXPECT_EQ(db->live_queries().size(), 1u);
  const StatusOr<QueryId> next = db->AddKnn("q", query, 2);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 2);
}

TEST(DurableServerTest, RegisterQueryTakesTheCallersIdAndNeverAnOldOne) {
  const std::string dir = ScratchDir("srv_register_id");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  const Trajectory query =
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0});
  {
    auto opened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    LoggedQuery logged;
    logged.id = 7;  // Skips 0..6, as a shard behind its siblings does.
    logged.gdist_key = "q";
    logged.query = query;
    logged.k = 1;
    ASSERT_TRUE(db->RegisterQuery(logged).ok());
    // The in-memory server knows the query under the journaled id.
    EXPECT_EQ(db->server().Answer(7).size(), 0u);
    EXPECT_EQ(db->next_query_id(), 8);
    logged.id = 3;  // Below the counter: refused, never reused.
    EXPECT_EQ(db->RegisterQuery(logged).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(*db->AddWithin("q", query, 10.0), 8);
  }
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_queries().size(), 2u);
  EXPECT_EQ((*reopened)->next_query_id(), 9);
  EXPECT_TRUE((*reopened)->ExplainQuery(7).found);
}

TEST(DurableServerTest, MisshapenQueryTrajectoryIsRefusedBeforeTheJournal) {
  const std::string dir = ScratchDir("srv_bad_query");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;
  const Trajectory good = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  ASSERT_EQ(*db->AddKnn("q", good, 2), 0);
  const uint64_t bytes = db->wal_bytes();
  for (const Trajectory& bad :
       {Trajectory::Stationary(0.0, Vec{0.0, 0.0, 0.0}), Trajectory()}) {
    EXPECT_EQ(db->AddKnn("bad", bad, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db->AddWithin("bad", bad, 9.0).status().code(),
              StatusCode::kInvalidArgument);
    LoggedQuery logged;
    logged.id = 5;
    logged.gdist_key = "bad";
    logged.query = bad;
    EXPECT_EQ(db->RegisterQuery(logged).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->wal_bytes(), bytes);
  EXPECT_EQ(db->next_query_id(), 1);
  EXPECT_EQ(db->live_queries().size(), 1u);
  EXPECT_EQ(db->server().query_count(), 1u);
}

TEST(DurableServerTest, AutoCheckpointTriggersOnSize) {
  const std::string dir = ScratchDir("srv_auto");
  DurabilityOptions options;
  options.auto_checkpoint = true;
  options.snapshot.trigger_bytes = 512;  // Tiny: rotate every few updates.
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(db->ApplyUpdate(SampleNew(i, 0.1 * i)).ok());
  }
  // Capture state, then reopen from what the server left on disk.
  const std::string state = ModToString(db->server().mod());
  opened->reset();
  const auto snapshots = SnapshotManager::List(dir);
  ASSERT_TRUE(snapshots.ok());
  EXPECT_GE(snapshots->size(), 1u);
  // Reopen sees the full state regardless of where the rotation landed.
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ModToString((*reopened)->server().mod()), state);
  EXPECT_EQ((*reopened)->seq(), 40u);
}

TEST(DurableServerTest, AutoCheckpointSnapshotIsOnDiskWhenCommitReturns) {
  const std::string dir = ScratchDir("srv_auto_sync");
  DurabilityOptions options;
  options.auto_checkpoint = true;
  options.snapshot.trigger_bytes = 512;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  int rotations = 0;
  for (int i = 1; i <= 40; ++i) {
    const std::string segment = db->wal_path();
    ASSERT_TRUE(db->Commit({SampleNew(i, 0.1 * i)}).ok());
    if (db->wal_path() == segment) continue;
    // This commit crossed the trigger: its leader rotated to a segment
    // starting at seq() and wrote the snapshot there before returning,
    // while the server is still alive.
    ++rotations;
    const auto snapshots = SnapshotManager::List(dir);
    ASSERT_TRUE(snapshots.ok());
    ASSERT_FALSE(snapshots->empty());
    EXPECT_EQ(snapshots->back().seq, db->seq()) << "commit " << i;
    EXPECT_TRUE(db->last_checkpoint_status().ok());
  }
  EXPECT_GE(rotations, 2);
}

TEST(DurableServerTest, RejectedUpdateStillRecoversCleanly) {
  const std::string dir = ScratchDir("srv_rejected");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
  // Duplicate OID: logged, then rejected by the database.
  EXPECT_FALSE(db->ApplyUpdate(SampleNew(1, 2.0)).ok());
  EXPECT_EQ(db->seq(), 2u);
  const std::string state = ModToString(db->server().mod());
  opened->reset();
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->open_info().replayed_updates, 1u);
  EXPECT_EQ((*reopened)->open_info().skipped_updates, 1u);
  EXPECT_EQ((*reopened)->seq(), 2u);
  EXPECT_EQ(ModToString((*reopened)->server().mod()), state);
}

// ---------------------------------------------------------------------------
// Group commit (DurableQueryServer::Commit)

TEST(GroupCommitTest, CommitAppliesBatchAndRecovers) {
  const std::string dir = ScratchDir("gc_basic");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.wal.sync = SyncPolicy::kEveryRecord;
  std::string state;
  {
    auto opened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& db = *opened;
    std::vector<Update> batch;
    for (int i = 1; i <= 5; ++i) batch.push_back(SampleNew(i, 1.0));
    std::vector<Status> statuses;
    ASSERT_TRUE(db->Commit(batch, &statuses).ok());
    ASSERT_EQ(statuses.size(), 5u);
    for (const Status& status : statuses) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    EXPECT_EQ(db->seq(), 5u);
    // kEveryRecord: the flush ended in one fsync, so the whole batch is
    // already durable by the time Commit returns.
    EXPECT_EQ(db->durable_seq(), 5u);

    // A semantically rejected update (duplicate oid) is logged and then
    // refused by the database; the commit itself still succeeds and
    // reports it per-update — exactly like the single-update path.
    std::vector<Status> mixed;
    ASSERT_TRUE(
        db->Commit({SampleNew(6, 2.0), SampleNew(1, 2.0)}, &mixed).ok());
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_TRUE(mixed[0].ok());
    EXPECT_FALSE(mixed[1].ok());
    EXPECT_EQ(db->seq(), 7u);
    state = ModToString(db->server().mod());
  }
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), 7u);
  EXPECT_EQ((*reopened)->open_info().replayed_updates, 6u);
  EXPECT_EQ((*reopened)->open_info().skipped_updates, 1u);
  EXPECT_EQ(ModToString((*reopened)->server().mod()), state);
}

TEST(GroupCommitTest, LatencyCapFlushesLoneCommit) {
  const std::string dir = ScratchDir("gc_latency");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.wal.sync = SyncPolicy::kEveryRecord;
  // A lone committer's leader lingers up to the cap waiting for
  // followers; with no follow-on traffic the flush must still happen —
  // the cap is a latency bound, not a required batch fill.
  options.commit.max_batch_delay_us = 20000;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;
  ASSERT_TRUE(db->Commit({SampleNew(1, 1.0)}, nullptr).ok());
  ASSERT_TRUE(
      db->Commit({SampleNew(2, 2.0), SampleNew(3, 2.0)}, nullptr).ok());
  EXPECT_EQ(db->seq(), 3u);
  EXPECT_EQ(db->durable_seq(), 3u);
}

TEST(GroupCommitTest, ConcurrentCommittersKeepDurableSeqMonotonic) {
  const std::string dir = ScratchDir("gc_concurrent");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.wal.sync = SyncPolicy::kEveryRecord;
  options.commit.max_batch_delay_us = 200;  // Encourage follower merging.
  options.commit.max_batch_updates = 4;     // ...but cap the group size.
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;

  const uint64_t flushes_before = obs::M().commit_flushes->Value();
  constexpr int kThreads = 8;
  constexpr int kCommits = 5;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t last_durable = 0;
      for (int c = 0; c < kCommits; ++c) {
        const ObjectId oid = 1 + t * kCommits + c;
        std::vector<Status> statuses;
        const Status committed = db->Commit({SampleNew(oid, 1.0)}, &statuses);
        if (!committed.ok() || statuses.size() != 1 || !statuses[0].ok()) {
          ++bad;
          return;
        }
        // Once a synced Commit returns, its updates are durable: the
        // durable LSN must cover at least this thread's own commits and
        // never move backwards.
        const uint64_t durable = db->durable_seq();
        if (durable < last_durable ||
            durable < static_cast<uint64_t>(c + 1)) {
          ++bad;
          return;
        }
        last_durable = durable;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(db->seq(), static_cast<uint64_t>(kThreads * kCommits));
  EXPECT_EQ(db->durable_seq(), db->seq());

  // The size cap bounds every group: 40 updates need at least 10 flushes
  // (and at most one per commit).
  const uint64_t flushes = obs::M().commit_flushes->Value() - flushes_before;
  EXPECT_GE(flushes, static_cast<uint64_t>(kThreads * kCommits) / 4);
  EXPECT_LE(flushes, static_cast<uint64_t>(kThreads * kCommits));

  const std::string state = ModToString(db->server().mod());
  opened->reset();
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), static_cast<uint64_t>(kThreads * kCommits));
  EXPECT_EQ(ModToString((*reopened)->server().mod()), state);
}

TEST(GroupCommitTest, InvalidUpdateIsRefusedBeforeQueueing) {
  const std::string dir = ScratchDir("gc_invalid");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
  const uint64_t bytes_before = db->wal_bytes();

  // A dimension mismatch is caught by validation BEFORE the batch is
  // queued: nothing of the batch reaches the log, and the server stays
  // healthy (kInvalidArgument is not an I/O failure).
  const Update bad =
      Update::NewObject(9, 2.0, Vec{1.0, 2.0, 3.0}, Vec{0.0, 0.0, 0.0});
  std::vector<Status> statuses;
  const Status refused = db->Commit({SampleNew(8, 2.0), bad}, &statuses);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db->seq(), 1u);
  EXPECT_EQ(db->wal_bytes(), bytes_before);
  EXPECT_FALSE(db->degraded());
  EXPECT_TRUE(db->ApplyUpdate(SampleNew(2, 3.0)).ok());
}

TEST(GroupCommitTest, ConcurrentCheckpointDuringIngestStaysConsistent) {
  const std::string dir = ScratchDir("gc_ckpt_ingest");
  DurabilityOptions options;
  options.auto_checkpoint = false;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;

  // Each checkpoint runs under the commit mutex on this thread, so the
  // ingest thread's commits queue behind it and land between the cuts.
  // Recovery must land on exactly the ingested state no matter where the
  // cuts fell.
  constexpr int kUpdates = 60;
  std::atomic<int> bad{0};
  std::thread ingest([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      std::vector<Status> statuses;
      const Status committed = db->Commit({SampleNew(i, 1.0)}, &statuses);
      if (!committed.ok() || statuses.size() != 1 || !statuses[0].ok()) {
        ++bad;
        return;
      }
    }
  });
  for (int c = 0; c < 5; ++c) {
    const Status checkpointed = db->Checkpoint();
    EXPECT_TRUE(checkpointed.ok()) << checkpointed.ToString();
  }
  ingest.join();
  ASSERT_EQ(bad.load(), 0);
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_TRUE(db->last_checkpoint_status().ok());
  EXPECT_EQ(db->seq(), static_cast<uint64_t>(kUpdates));

  const std::string state = ModToString(db->server().mod());
  opened->reset();
  auto reopened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), static_cast<uint64_t>(kUpdates));
  EXPECT_EQ(ModToString((*reopened)->server().mod()), state);
  EXPECT_TRUE((*reopened)->open_info().from_snapshot);
}

// ---------------------------------------------------------------------------
// Fault injection (src/verify/fault_env.h interposed on the Env seam)

TEST(FaultTest, WalAppendFailureIsAtomicAndSticky) {
  const std::string dir = ScratchDir("fault_wal_append");
  const std::string path = dir + "/" + WalFileName(0);
  FaultInjectionEnv env;
  auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0},
                                  WalOptions{}, &env);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  const uint64_t bytes_before = writer->bytes();

  env.SetPlan(FaultPlan{1, FaultKind::kEio});  // The very next file op.
  const Status failed = AppendOne(*writer, SampleNew(2, 2.0));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  // Atomicity: the failed append advanced nothing.
  EXPECT_EQ(writer->bytes(), bytes_before);
  EXPECT_FALSE(writer->health().ok());

  // Stickiness: the writer refuses to append or sync past the failure.
  EXPECT_EQ(AppendOne(*writer, SampleNew(3, 3.0)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Sync().code(), StatusCode::kFailedPrecondition);
  writer->Close();

  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_FALSE(read->torn_tail);
}

TEST(FaultTest, WalShortWriteLeavesRepairableTornFrame) {
  const std::string dir = ScratchDir("fault_wal_short");
  const std::string path = dir + "/" + WalFileName(0);
  FaultInjectionEnv env;
  auto writer = WalWriter::Create(path, WalSegmentHeader{2, 0, 0.0},
                                  WalOptions{}, &env);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(AppendOne(*writer, SampleNew(1, 1.0)).ok());
  const uint64_t bytes_before = writer->bytes();

  env.SetPlan(FaultPlan{1, FaultKind::kShortWrite});
  const Status failed = AppendOne(*writer, SampleNew(2, 2.0));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(writer->bytes(), bytes_before);
  writer->Close();  // Flushes the torn half-frame into the file.

  // The valid prefix survives; the torn frame is detected, not fatal.
  const auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->valid_bytes, bytes_before);
}

TEST(FaultTest, SnapshotWriteFailureAbandonsTmpAndIsRetryable) {
  const std::string dir = ScratchDir("fault_snapshot");
  FaultInjectionEnv env;
  SnapshotManager snapshots(dir, SnapshotOptions{}, &env);
  MovingObjectDatabase mod(2, 0.0);
  ASSERT_TRUE(mod.Apply(SampleNew(1, 0.5)).ok());

  // Write's ops: create tmp (1), append (2), sync (3), close (4).
  env.SetPlan(FaultPlan{2, FaultKind::kEnospc});
  ASSERT_FALSE(snapshots.Write(mod, 1).ok());
  for (const auto& entry : fs::directory_iterator(dir)) {
    ADD_FAILURE() << "leftover after failed snapshot write: " << entry.path();
  }

  // A buffered-write error can first surface at close; it too must fail
  // the snapshot and abandon the tmp file.
  env.SetPlan(FaultPlan{4, FaultKind::kEio});
  ASSERT_FALSE(snapshots.Write(mod, 1).ok());
  for (const auto& entry : fs::directory_iterator(dir)) {
    ADD_FAILURE() << "leftover after failed snapshot close: " << entry.path();
  }

  // Retry, fault-free: the same Write succeeds.
  env.SetPlan(FaultPlan{0, FaultKind::kEio});
  ASSERT_TRUE(snapshots.Write(mod, 1).ok());
  const auto listed = SnapshotManager::List(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].seq, 1u);
}

TEST(FaultTest, RecoveryIoErrorIsNotMistakenForFreshState) {
  const std::string dir = ScratchDir("fault_recover_eio");
  {
    DurabilityOptions options;
    options.auto_checkpoint = false;
    auto opened = DurableQueryServer::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->ApplyUpdate(SampleNew(1, 1.0)).ok());
  }

  // The directory holds real state, but listing it fails transiently.
  // That must surface as kUnavailable — never as kNotFound, which would
  // let Open fresh-initialize over (orphan) the existing data.
  FaultInjectionEnv env;
  env.SetPlan(FaultPlan{1, FaultKind::kEio});
  RecoveryOptions recovery;
  recovery.env = &env;
  const auto recovered = RecoverDatabase(dir, recovery);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable);

  env.SetPlan(FaultPlan{1, FaultKind::kEio});
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.env = &env;
  const auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kUnavailable);

  // Fault-free, the state is still there.
  const auto clean = DurableQueryServer::Open(dir, DurabilityOptions{});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ((*clean)->seq(), 1u);
}

TEST(FaultTest, DegradedModeIsStickyAndKeepsServingReads) {
  const std::string dir = ScratchDir("fault_degraded");
  FaultInjectionEnv env;
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.env = &env;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  const Trajectory query = Trajectory::Linear(0.0, Vec{0.0, 0.0},
                                              Vec{0.0, 0.0});
  const StatusOr<QueryId> knn = db->AddKnn("fault", query, 1);
  ASSERT_TRUE(knn.ok());
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
  ASSERT_FALSE(db->degraded());

  env.SetPlan(FaultPlan{1, FaultKind::kEio});  // The next WAL append.
  const Status failed = db->ApplyUpdate(SampleNew(2, 2.0));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(db->degraded());
  EXPECT_FALSE(db->degraded_cause().ok());
  // seq_ is not half-advanced by the failed append.
  EXPECT_EQ(db->seq(), 1u);

  // Sticky: every further mutation refuses without touching the log.
  EXPECT_EQ(db->ApplyUpdate(SampleNew(3, 3.0)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db->AddKnn("fault", query, 1).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db->RemoveQuery(*knn).code(), StatusCode::kUnavailable);
  EXPECT_EQ(db->Checkpoint().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db->Flush().code(), StatusCode::kUnavailable);

  // Reads keep serving from memory: the applied update is visible.
  db->AdvanceTo(2.0);
  EXPECT_EQ(db->Answer(*knn), std::set<ObjectId>{1});

  // Reopening the directory recovers the durable prefix, writable again.
  db.reset();
  auto reopened = DurableQueryServer::Open(dir, DurabilityOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), 1u);
  EXPECT_FALSE((*reopened)->degraded());
  EXPECT_TRUE((*reopened)->ApplyUpdate(SampleNew(2, 2.0)).ok());
}

TEST(FaultTest, BatchFsyncFailureFailsWholeBatchAtomically) {
  const std::string dir = ScratchDir("fault_batch_fsync");
  FaultInjectionEnv env;
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.env = &env;
  options.wal.sync = SyncPolicy::kEveryRecord;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& db = *opened;
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
  EXPECT_EQ(db->durable_seq(), 1u);

  // A Commit's flush is one append (op 1) then one fsync (op 2). Failing
  // the shared fsync must fail the WHOLE batch atomically: seq and the
  // durable LSN never half-advance, and every per-update status reports
  // the same kUnavailable.
  env.SetPlan(FaultPlan{2, FaultKind::kSyncFail});
  std::vector<Update> batch;
  for (int i = 2; i <= 6; ++i) batch.push_back(SampleNew(i, 2.0));
  std::vector<Status> statuses;
  const Status failed = db->Commit(batch, &statuses);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  ASSERT_EQ(statuses.size(), 5u);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  }
  EXPECT_EQ(db->seq(), 1u);
  EXPECT_EQ(db->durable_seq(), 1u);
  EXPECT_TRUE(db->degraded());

  // Sticky: the next batch is refused whole, without touching the log.
  std::vector<Status> refused;
  EXPECT_EQ(db->Commit({SampleNew(9, 3.0)}, &refused).code(),
            StatusCode::kUnavailable);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0].code(), StatusCode::kUnavailable);

  // Power loss, then reopen with a clean env: the unsynced batch frame is
  // dropped and exactly the pre-fault prefix recovers.
  opened->reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto reopened = DurableQueryServer::Open(dir, DurabilityOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), 1u);
  EXPECT_FALSE((*reopened)->degraded());
  EXPECT_TRUE((*reopened)->ApplyUpdate(SampleNew(2, 2.0)).ok());
}

TEST(FaultTest, CheckpointFailureIsRetryable) {
  const std::string dir = ScratchDir("fault_ckpt_retry");
  FaultInjectionEnv env;
  DurabilityOptions options;
  options.auto_checkpoint = false;
  options.env = &env;
  auto opened = DurableQueryServer::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(1, 1.0)).ok());
  ASSERT_TRUE(db->ApplyUpdate(SampleNew(2, 2.0)).ok());

  // Checkpoint's ops: wal fsync (1), then the rotation's segment create
  // (2). Failing the create abandons the rotation without degrading.
  env.SetPlan(FaultPlan{2, FaultKind::kEio});
  const Status failed = db->Checkpoint();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(db->degraded());

  // The same call, retried fault-free, succeeds and the layout is whole.
  env.SetPlan(FaultPlan{0, FaultKind::kEio});
  ASSERT_TRUE(db->Checkpoint().ok());
  const auto snapshots = SnapshotManager::List(dir);
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 1u);
  EXPECT_EQ(snapshots->front().seq, 2u);

  db.reset();
  auto reopened = DurableQueryServer::Open(dir, DurabilityOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->seq(), 2u);
  EXPECT_TRUE((*reopened)->open_info().from_snapshot);
}

}  // namespace
}  // namespace modb
