// The checkpoint stream codec. Every owner of checkpointed state has one
// field walk, `checkpoint(io)`, that hands each field to a CheckpointIo
// once: over an ostream the codec saves the field's bytes, over an istream
// it overwrites the field from the stream, so save and restore cannot drift
// apart. Fields are raw native-width host bytes: a checkpoint is a
// same-host resume format, not an interchange format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace sldf::sim {

static_assert(sizeof(std::size_t) == 8, "counts are streamed as 64-bit words");

class CheckpointIo {
 public:
  explicit CheckpointIo(std::ostream& out) : out_(&out) {}
  explicit CheckpointIo(std::istream& in) : in_(&in) {}

  /// True when restoring (the walk's fields are overwritten).
  [[nodiscard]] bool loading() const { return in_ != nullptr; }

  /// `n` raw bytes at `p`.
  void bytes(void* p, std::size_t n) {
    if (n == 0) return;
    if (!loading())
      out_->write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    else if (!in_->read(static_cast<char*>(p), static_cast<std::streamsize>(n)))
      throw std::runtime_error("checkpoint: truncated stream");
  }

  /// One trivially copyable value (or array of them).
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }

  /// An element count: `n` when saving, the saved count when restoring,
  /// rejected before anything is sized from it if implausibly large.
  std::size_t count(std::size_t n, std::size_t elem) {
    pod(n);
    if (n > (std::size_t{1} << 40) / elem)
      throw std::runtime_error("checkpoint: implausible size field");
    return n;
  }

  /// Fingerprint: restore throws unless the stream holds exactly `want`.
  void expect(std::uint64_t want, const char* what) {
    std::uint64_t got = want;
    pod(got);
    if (got != want)
      throw std::runtime_error(std::string("checkpoint: ") + what +
                               " mismatch (not saved from this network, "
                               "config and format)");
  }

  /// Variable-length vector: restore adopts the saved length.
  template <typename V>
  void vec(V& v) {
    v.resize(count(v.size(), sizeof(v[0])));
    elems(v);
  }

  /// Shape-bound vector: the network and config fix its length, so restore
  /// throws unless the saved length equals the live one.
  template <typename V>
  void fixed(V& v, const char* what) {
    expect(v.size(), what);
    elems(v);
  }

 private:
  template <typename V>
  void elems(V& v) {
    static_assert(std::is_trivially_copyable_v<typename V::value_type>);
    bytes(v.data(), v.size() * sizeof(v[0]));
  }

  std::ostream* out_ = nullptr;
  std::istream* in_ = nullptr;
};

}  // namespace sldf::sim
