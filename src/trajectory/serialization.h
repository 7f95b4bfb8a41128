#ifndef MODB_TRAJECTORY_SERIALIZATION_H_
#define MODB_TRAJECTORY_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "trajectory/mod.h"

namespace modb {

// Plain-text persistence for MODs — enough to checkpoint a database, ship
// a workload to another process, or diff two states in a test. The format
// is line-oriented and self-describing:
//
//   MODB v1 dim=<n> tau=<τ>
//   object <oid> end=<end|inf>
//   piece <start> <origin...> <velocity...>
//   ...
//   end
//
// Doubles are written as the shortest decimal that reads back to the same
// bits (std::to_chars) and read with std::from_chars, so every value
// round-trips exactly. Any correctly rounded decimal reads back, so files
// written at max_digits10 precision load to the same doubles.

std::string ModToString(const MovingObjectDatabase& mod);

// Parses a MOD previously produced by ModToString. Tokens are separated by
// any whitespace. Malformed input yields InvalidArgument: besides grammar
// errors, that covers NaN, inf anywhere but an end time, and the literals
// from_chars does not take (a leading '+', hex floats, values out of the
// double or int64 range). The update history is not preserved (only the
// state).
StatusOr<MovingObjectDatabase> ModFromString(std::string_view text);

}  // namespace modb

#endif  // MODB_TRAJECTORY_SERIALIZATION_H_
