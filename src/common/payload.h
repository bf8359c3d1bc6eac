// Refcounted immutable byte buffer: the unit of zero-copy message passing
// in the simulated network. A broadcast serializes its envelope into one
// Payload and every receiver shares the same underlying buffer; copying a
// Payload bumps a refcount instead of copying bytes. Immutability is what
// makes the sharing safe — anything that needs to tamper with a frame
// (faults::ByzantineBox) must build a new Payload (copy-on-write).
//
// Receivers keep sharing after decode: a PayloadSlice is an immutable view
// of a byte range inside one Payload's buffer that pins the buffer, so the
// op payloads and block encodings every replica decodes from one proposal
// frame all point into that single frame.
#pragma once

#include <algorithm>
#include <memory>

#include "common/bytes.h"

namespace marlin {

class Payload {
 public:
  /// Empty payload (no buffer attached).
  Payload() = default;

  /// Takes ownership of `bytes` (one allocation for the shared control
  /// block; the byte buffer itself is moved, not copied). Implicit so call
  /// sites can keep passing `Bytes` where a Payload is expected.
  Payload(Bytes bytes)
      : data_(std::make_shared<const Bytes>(std::move(bytes))) {}

  const Bytes& bytes() const { return data_ ? *data_ : empty_bytes(); }
  BytesView view() const { return bytes(); }
  std::size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* data() const {
    return data_ ? data_->data() : nullptr;
  }
  std::uint8_t operator[](std::size_t i) const { return (*data_)[i]; }

  /// True when a buffer is attached (even a zero-length one).
  bool has_value() const { return data_ != nullptr; }

  /// True when both payloads alias the same underlying buffer — the
  /// property the zero-copy broadcast tests pin (one serialization, n
  /// receivers).
  bool shares_buffer(const Payload& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  long use_count() const { return data_.use_count(); }

 private:
  friend class PayloadSlice;

  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const Bytes> data_;
};

/// Immutable view of bytes inside a Payload's buffer. Copying bumps the
/// buffer's refcount; the bytes are never copied. Equality compares
/// content, so a slice behaves like the byte string it shows.
class PayloadSlice {
 public:
  PayloadSlice() = default;

  /// Owns `bytes` outright (a buffer of its own). Implicit so builders of
  /// local values can keep passing `Bytes`.
  PayloadSlice(Bytes bytes) : PayloadSlice(Payload(std::move(bytes))) {}

  /// The whole of `backing`.
  explicit PayloadSlice(const Payload& backing)
      : owner_(backing.data_), data_(backing.data()), size_(backing.size()) {}

  /// `range`, which must lie inside `backing`'s buffer.
  PayloadSlice(const Payload& backing, BytesView range)
      : owner_(backing.data_), data_(range.data()), size_(range.size()) {}

  BytesView view() const { return {data_, size_}; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }

  /// True when this slice points into `p`'s buffer.
  bool shares_buffer(const Payload& p) const {
    return owner_ != nullptr && owner_ == p.data_;
  }
  /// Size of the whole buffer this slice keeps alive.
  std::size_t pinned_bytes() const { return owner_ ? owner_->size() : 0; }

  bool operator==(const PayloadSlice& o) const {
    return size_ == o.size_ &&
           (data_ == o.data_ || std::equal(begin(), end(), o.begin()));
  }

 private:
  std::shared_ptr<const Bytes> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace marlin
