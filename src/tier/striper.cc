#include "src/tier/striper.h"

#include "src/common/crc32c.h"
#include "src/ec/reed_solomon.h"

namespace cheetah::tier {

namespace {

// The codec works on owned shards; only degraded reads and repairs get here.
std::vector<std::optional<std::string>> OwnedShards(
    const std::vector<std::optional<Bytes>>& chunks) {
  std::vector<std::optional<std::string>> shards(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].has_value()) {
      shards[i] = chunks[i]->ToString();
    }
  }
  return shards;
}

}  // namespace

uint64_t ShardBytes(uint64_t size, uint32_t k) {
  return k == 0 ? 0 : (size + k - 1) / k;
}

std::vector<std::string> EncodeChunks(std::string_view data, uint32_t k, uint32_t m) {
  ec::ReedSolomon rs(static_cast<int>(k), static_cast<int>(m));
  return rs.Encode(data);
}

std::vector<uint32_t> ChunkCrcs(const std::vector<std::string>& chunks) {
  std::vector<uint32_t> crcs;
  crcs.reserve(chunks.size());
  for (const auto& c : chunks) {
    crcs.push_back(Crc32c(c));
  }
  return crcs;
}

Result<std::string> DecodeChunks(const std::vector<std::optional<Bytes>>& chunks, uint32_t k,
                                 uint32_t m, uint64_t size) {
  ec::ReedSolomon rs(static_cast<int>(k), static_cast<int>(m));
  return rs.Decode(OwnedShards(chunks), size);
}

Result<std::vector<std::string>> ReconstructChunks(
    const std::vector<std::optional<Bytes>>& chunks, uint32_t k, uint32_t m) {
  ec::ReedSolomon rs(static_cast<int>(k), static_cast<int>(m));
  return rs.Reconstruct(OwnedShards(chunks));
}

}  // namespace cheetah::tier
