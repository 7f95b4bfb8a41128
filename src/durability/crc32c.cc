#include "durability/crc32c.h"

#include <array>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace modb {
namespace {

constexpr uint32_t kPolynomial = 0x82F63B78u;  // 0x1EDC6F41 reflected.

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#if defined(__x86_64__)
// Bytes up to an 8-byte boundary, then eight bytes per instruction, then
// the tail: the same reflected CRC the table computes a byte at a time.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(
    uint32_t crc, const unsigned char* bytes, size_t size) {
  uint64_t state = ~crc;
  while (size > 0 && (reinterpret_cast<uintptr_t>(bytes) & 7u) != 0) {
    state = _mm_crc32_u8(static_cast<uint32_t>(state), *bytes++);
    --size;
  }
  for (; size >= 8; size -= 8, bytes += 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  for (; size > 0; --size) {
    state = _mm_crc32_u8(static_cast<uint32_t>(state), *bytes++);
  }
  return ~static_cast<uint32_t>(state);
}
#endif

bool DetectSse42() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

}  // namespace

bool Crc32cHardwareAvailable() {
  static const bool available = DetectSse42();
  return available;
}

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::array<uint32_t, 256>& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t size) {
  MODB_CHECK(Crc32cHardwareAvailable()) << "the CPU lacks SSE4.2";
#if defined(__x86_64__)
  return ExtendSse42(crc, static_cast<const unsigned char*>(data), size);
#else
  return Crc32cExtendTable(crc, data, size);
#endif
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
#if defined(__x86_64__)
  if (Crc32cHardwareAvailable()) {
    return ExtendSse42(crc, static_cast<const unsigned char*>(data), size);
  }
#endif
  return Crc32cExtendTable(crc, data, size);
}

uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace modb
