// Striping helpers between whole objects and the per-PV chunks of an EC
// stripe LV: chunk layout, per-chunk CRCs, and reconstruction glue over
// ec::ReedSolomon. Chunk j of an object lives on replicas[j] of the stripe
// LV at the same extent offsets as every other chunk.
#ifndef SRC_TIER_STRIPER_H_
#define SRC_TIER_STRIPER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace cheetah::tier {

// Per-chunk shard size for an object of `size` bytes striped k-wide
// (ceil(size / k); the last data chunk is zero-padded to this).
uint64_t ShardBytes(uint64_t size, uint32_t k);

// Splits `data` into k data chunks + m parity chunks. chunks[i].size() ==
// ShardBytes(data.size(), k) for all i.
std::vector<std::string> EncodeChunks(std::string_view data, uint32_t k, uint32_t m);

// CRC32C of every chunk, in chunk order.
std::vector<uint32_t> ChunkCrcs(const std::vector<std::string>& chunks);

// Reassembles the object from any k surviving chunks (nullopt = lost).
// Truncates the zero padding back off using `size`.
Result<std::string> DecodeChunks(const std::vector<std::optional<Bytes>>& chunks, uint32_t k,
                                 uint32_t m, uint64_t size);

// Recomputes the full chunk set from any k survivors — used to rebuild lost
// or corrupt chunks in place during degraded-read repair and scrubbing.
Result<std::vector<std::string>> ReconstructChunks(
    const std::vector<std::optional<Bytes>>& chunks, uint32_t k, uint32_t m);

}  // namespace cheetah::tier

#endif  // SRC_TIER_STRIPER_H_
