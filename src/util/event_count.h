// EventCount — a wake-up channel for "block until something changed".
//
// A waiter reads Key(), re-checks its condition, and only then calls
// Wait(key, deadline): the wait returns as soon as a Notify() ran after the
// key was read, so a change that lands between the check and the wait is
// never lost. Notify() costs one atomic increment and one load while nobody
// is parked; it takes the mutex and wakes the condition variable only when
// a waiter is parked, which keeps signalling off a producer's hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace helios::util {

class EventCount {
 public:
  using Clock = std::chrono::steady_clock;

  std::uint64_t Key() const { return count_.load(std::memory_order_seq_cst); }

  void Notify() {
    count_.fetch_add(1, std::memory_order_seq_cst);
    // seq_cst pairs with Wait's increment of parked_: either this load sees
    // the waiter, or the waiter's predicate sees the new count.
    if (parked_.load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

  // Blocks until a Notify() after `key` was read, or until `deadline`.
  // Returns true when notified.
  bool Wait(std::uint64_t key, Clock::time_point deadline) {
    parked_.fetch_add(1, std::memory_order_seq_cst);
    bool notified;
    {
      std::unique_lock<std::mutex> lock(mu_);
      notified = cv_.wait_until(lock, deadline, [&] { return Key() != key; });
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
    return notified;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace helios::util
