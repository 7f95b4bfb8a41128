#include "trajectory/serialization.h"

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace modb {
namespace {

constexpr char kMagic[] = "MODB";
constexpr char kVersion[] = "v1";

// Appends `value` (a double or an integer) in std::to_chars' shortest
// round-trip form; infinities come out as "inf" and "-inf".
template <typename T>
void AppendNumber(std::string* out, T value) {
  char buffer[32];  // The longest double, "-2.2250738585072014e-308", is 24.
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

// Splits text on the whitespace `std::istream >> std::string` skips in the
// C locale.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text)
      : next_(text.data()), end_(text.data() + text.size()) {}

  bool Next(std::string_view* token) {
    while (next_ != end_ && IsSpace(*next_)) ++next_;
    if (next_ == end_) return false;
    const char* const begin = next_;
    while (next_ != end_ && !IsSpace(*next_)) ++next_;
    *token = std::string_view(begin, static_cast<size_t>(next_ - begin));
    return true;
  }

 private:
  static bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  const char* next_;
  const char* end_;
};

// Parses all of `token` as a T with std::from_chars: no leading '+' or
// whitespace, no hex, nothing out of T's range.
template <typename T>
bool ParseNumber(std::string_view token, T* value) {
  const char* const end = token.data() + token.size();
  const std::from_chars_result result =
      std::from_chars(token.data(), end, *value);
  return result.ec == std::errc() && result.ptr == end;
}

Status ParseDouble(std::string_view token, double* value) {
  if (!ParseNumber(token, value)) {
    return Status::InvalidArgument("not a number: " + std::string(token));
  }
  if (std::isnan(*value)) {
    return Status::InvalidArgument("NaN is not a valid value: " +
                                   std::string(token));
  }
  return Status::Ok();
}

// Infinity is meaningful only as an unbounded end time; every other field
// must be a real number.
Status ParseFiniteDouble(std::string_view token, double* value) {
  MODB_RETURN_IF_ERROR(ParseDouble(token, value));
  if (std::isinf(*value)) {
    return Status::InvalidArgument("value must be finite: " +
                                   std::string(token));
  }
  return Status::Ok();
}

// Dimensions beyond this are certainly corruption, not data; parsing them
// would allocate absurd vectors before any piece fails to parse.
constexpr int64_t kMaxSerializedDim = 4096;

Status ParseInt(std::string_view token, int64_t* value) {
  if (!ParseNumber(token, value)) {
    return Status::InvalidArgument("not an integer: " + std::string(token));
  }
  return Status::Ok();
}

}  // namespace

std::string ModToString(const MovingObjectDatabase& mod) {
  std::string out;
  out += kMagic;
  out += ' ';
  out += kVersion;
  out += " dim=";
  AppendNumber(&out, mod.dim());
  out += " tau=";
  AppendNumber(&out, mod.last_update_time());
  out += '\n';
  for (const auto& [oid, trajectory] : mod.objects()) {
    out += "object ";
    AppendNumber(&out, oid);
    out += " end=";
    AppendNumber(&out, trajectory.end_time());
    out += '\n';
    for (const LinearPiece& piece : trajectory.pieces()) {
      out += "piece ";
      AppendNumber(&out, piece.start);
      for (size_t i = 0; i < mod.dim(); ++i) {
        out += ' ';
        AppendNumber(&out, piece.origin[i]);
      }
      for (size_t i = 0; i < mod.dim(); ++i) {
        out += ' ';
        AppendNumber(&out, piece.velocity[i]);
      }
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

StatusOr<MovingObjectDatabase> ModFromString(std::string_view text) {
  Tokenizer in(text);
  std::string_view magic, version, dim_field, tau_field;
  if (!in.Next(&magic) || !in.Next(&version) || !in.Next(&dim_field) ||
      !in.Next(&tau_field)) {
    return Status::InvalidArgument("truncated header");
  }
  if (magic != kMagic || version != kVersion) {
    return Status::InvalidArgument("bad magic/version: " + std::string(magic) +
                                   " " + std::string(version));
  }
  if (!dim_field.starts_with("dim=") || !tau_field.starts_with("tau=")) {
    return Status::InvalidArgument("malformed header fields");
  }
  int64_t dim_value = 0;
  MODB_RETURN_IF_ERROR(ParseInt(dim_field.substr(4), &dim_value));
  if (dim_value <= 0) {
    return Status::InvalidArgument("dimension must be positive");
  }
  if (dim_value > kMaxSerializedDim) {
    return Status::InvalidArgument("dimension " + std::to_string(dim_value) +
                                   " exceeds the format limit");
  }
  const size_t dim = static_cast<size_t>(dim_value);
  double tau = 0.0;
  MODB_RETURN_IF_ERROR(ParseFiniteDouble(tau_field.substr(4), &tau));

  MovingObjectDatabase mod(dim, tau);

  // Pending object being assembled.
  bool have_object = false;
  ObjectId oid = kInvalidObjectId;
  double end_time = kInf;
  Trajectory trajectory;

  auto flush_object = [&]() -> Status {
    if (!have_object) return Status::Ok();
    if (trajectory.empty()) {
      return Status::InvalidArgument("object without pieces");
    }
    if (end_time != kInf) {
      MODB_RETURN_IF_ERROR(trajectory.Terminate(end_time));
    }
    MODB_RETURN_IF_ERROR(mod.Restore(oid, std::move(trajectory)));
    trajectory = Trajectory();
    have_object = false;
    return Status::Ok();
  };

  std::string_view keyword;
  while (in.Next(&keyword)) {
    if (keyword == "end") {
      MODB_RETURN_IF_ERROR(flush_object());
      return mod;
    }
    if (keyword == "object") {
      MODB_RETURN_IF_ERROR(flush_object());
      std::string_view oid_token, end_field;
      if (!in.Next(&oid_token) || !in.Next(&end_field) ||
          !end_field.starts_with("end=")) {
        return Status::InvalidArgument("malformed object line");
      }
      MODB_RETURN_IF_ERROR(ParseInt(oid_token, &oid));
      MODB_RETURN_IF_ERROR(ParseDouble(end_field.substr(4), &end_time));
      have_object = true;
      continue;
    }
    if (keyword == "piece") {
      if (!have_object) {
        return Status::InvalidArgument("piece outside an object");
      }
      std::string_view token;
      if (!in.Next(&token)) return Status::InvalidArgument("truncated piece");
      double start = 0.0;
      MODB_RETURN_IF_ERROR(ParseFiniteDouble(token, &start));
      Vec origin(dim), velocity(dim);
      for (size_t i = 0; i < dim; ++i) {
        if (!in.Next(&token)) return Status::InvalidArgument("truncated piece");
        MODB_RETURN_IF_ERROR(ParseFiniteDouble(token, &origin[i]));
      }
      for (size_t i = 0; i < dim; ++i) {
        if (!in.Next(&token)) return Status::InvalidArgument("truncated piece");
        MODB_RETURN_IF_ERROR(ParseFiniteDouble(token, &velocity[i]));
      }
      if (trajectory.empty()) {
        trajectory = Trajectory::Linear(start, std::move(origin),
                                        std::move(velocity));
      } else {
        // AddTurn re-derives the origin from continuity; verify the stored
        // origin agrees (corrupted files should not load silently).
        const Vec expected =
            trajectory.pieces().back().PositionAt(start);
        if (!expected.AlmostEquals(origin, 1e-6)) {
          return Status::InvalidArgument("discontinuous piece chain");
        }
        MODB_RETURN_IF_ERROR(trajectory.AddTurn(start, std::move(velocity)));
      }
      continue;
    }
    return Status::InvalidArgument("unknown keyword: " + std::string(keyword));
  }
  return Status::InvalidArgument("missing trailing 'end'");
}

}  // namespace modb
