#ifndef MODB_DURABILITY_CRC32C_H_
#define MODB_DURABILITY_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace modb {

// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the checksum
// framing every WAL record (`durability.crc32c`, docs/KERNELS.md). Runs SSE4.2's `crc32` instruction when the CPU has it
// (checked once at run time), the byte-at-a-time table otherwise; both
// compute the same polynomial, so every frame's bytes are the same.
uint32_t Crc32c(const void* data, size_t size);

// Incremental form: pass the previous return value to continue a running
// checksum (start from 0).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

// The two implementations behind Crc32cExtend, for the differential test.
// The hardware one requires Crc32cHardwareAvailable().
bool Crc32cHardwareAvailable();
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t size);
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t size);

}  // namespace modb

#endif  // MODB_DURABILITY_CRC32C_H_
