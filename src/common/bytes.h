// Immutable, reference-counted object payload for the data plane.
//
// An object's bytes are built once (by the client, an erasure-code
// reconstruction, or the device model's synthetic filler) and then travel
// proxy -> network -> data server -> disk model as `Bytes` handles. Copying a
// handle bumps a reference count and Slice() narrows the window; neither
// touches the bytes. Nothing can write through a handle, so one buffer can
// back every replica's request, every stored extent and every in-flight
// reply at once. Code that needs different bytes (damage injection) builds a
// new buffer. std::string appears only at the ObjectStore boundary, through
// the explicit constructor and ToString(). The device model's flat files are
// Bytes too: a file and every handle read from it share one buffer, and the
// model mutates it in place only while the file holds the sole handle.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace cheetah {

class Bytes {
 public:
  Bytes() = default;
  // Takes ownership of `s`; its bytes are not copied.
  explicit Bytes(std::string s) {
    if (!s.empty()) {
      buf_ = std::make_shared<std::string>(std::move(s));
      data_ = buf_->data();
      size_ = buf_->size();
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const char* data() const { return data_; }
  std::string_view view() const { return {data_, size_}; }
  operator std::string_view() const { return view(); }  // NOLINT(google-explicit-constructor)

  // Bytes [off, off + len) of this payload, sharing its buffer. O(1).
  Bytes Slice(size_t off, size_t len) const {
    assert(off <= size_ && len <= size_ - off);
    Bytes out;
    if (len > 0) {
      out.buf_ = buf_;
      out.data_ = data_ + off;
      out.size_ = len;
    }
    return out;
  }

  // The bytes as a std::string. Copies them, except that the last handle to
  // a buffer, spanning all of it, gives the buffer up instead.
  std::string ToString() const& { return std::string(view()); }
  std::string ToString() && {
    if (buf_ != nullptr && buf_.use_count() == 1 && data_ == buf_->data() &&
        size_ == buf_->size()) {
      std::string out = std::move(*buf_);
      *this = Bytes();
      return out;
    }
    return std::string(view());
  }

 private:
  std::shared_ptr<std::string> buf_;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cheetah

#endif  // SRC_COMMON_BYTES_H_
