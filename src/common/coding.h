// Binary encoding helpers (fixed-width little-endian and varint), used by the
// KV store's WAL/SSTable formats and by persisted cluster state.
#ifndef SRC_COMMON_CODING_H_
#define SRC_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace cheetah {

inline void EncodeFixed32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v);
  p[1] = static_cast<char>(v >> 8);
  p[2] = static_cast<char>(v >> 16);
  p[3] = static_cast<char>(v >> 24);
}

inline void EncodeFixed64(char* p, uint64_t v) {
  EncodeFixed32(p, static_cast<uint32_t>(v));
  EncodeFixed32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

inline uint32_t DecodeFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

inline uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

// Bytes PutVarint64 appends for `v`.
inline size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

// Returns false on malformed input or truncation.
inline bool GetVarint64(std::string_view* input, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint64_t byte = static_cast<unsigned char>(input->front());
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

inline bool GetLengthPrefixed(std::string_view* input, std::string_view* out) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len) || input->size() < len) {
    return false;
  }
  *out = input->substr(0, len);
  input->remove_prefix(len);
  return true;
}

inline bool GetFixed32(std::string_view* input, uint32_t* v) {
  if (input->size() < 4) {
    return false;
  }
  *v = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

inline bool GetFixed64(std::string_view* input, uint64_t* v) {
  if (input->size() < 8) {
    return false;
  }
  *v = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

}  // namespace cheetah

#endif  // SRC_COMMON_CODING_H_
