// The filesystem the benchmark's databases use: the POSIX Env with Sync()
// and SyncDir() turned into flushes.
#ifndef MODB_PERFBENCH_FLUSH_ENV_H_
#define MODB_PERFBENCH_FLUSH_ENV_H_

#include "common/env.h"

namespace modb::perfbench {

// Forwards every operation to Env::Default(), except that a file's Sync()
// only flushes it to the OS and SyncDir() does nothing: what fsync costs
// on tmpfs. The WAL still makes every sync call its policy asks for
// (SyncPolicy::kEveryRecord) and every record still reaches the kernel,
// but no call waits for the disk or spends CPU in the block layer. On the
// shared virtual disk that CPU was the noisiest part of a commit: the
// kernel time of one fdatasync moved from about 70 to 120 us between
// stretches of minutes, with the same work.
Env* FlushOnlyEnv();

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_FLUSH_ENV_H_
