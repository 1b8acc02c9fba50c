// Growable power-of-two ring queue. Unlike std::deque it never releases
// storage on pop/clear, so steady-state push/pop cycles are allocation-free
// — exactly what the simulator's per-terminal source queues need.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace sldf {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  /// Peeks element `i` (0 == front, i < size()). Used by the simulator's
  /// fault sweep to scan a queue without draining it.
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Drops all elements; keeps the storage.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Checkpoint walk (see sim/checkpoint.hpp): the element count, then the
  /// elements front to back. Restore refills the queue to the saved count.
  template <typename Io>
  void checkpoint(Io& io) {
    const std::size_t n = io.count(size_, sizeof(T));
    if (io.loading()) {
      clear();
      while (size_ < n) push_back(T{});
    }
    for (std::size_t i = 0; i < n; ++i)
      io.pod(buf_[(head_ + i) & (buf_.size() - 1)]);
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sldf
