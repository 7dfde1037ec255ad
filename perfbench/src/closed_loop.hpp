// Closed-loop runner: `clients` threads share one cursor over `n` items;
// each client takes the next item as soon as it has finished the last one,
// so a slow item delays only the client running it. The calling thread only
// waits, so at most `clients` threads are busy at once. `fn(i)` must not
// throw (run_item turns exceptions into failed outcomes).
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench {

template <typename Fn>
void run_closed_loop(std::size_t n, unsigned clients, Fn&& fn) {
  if (clients <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  try {
    for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  } catch (...) {
    next.store(n);  // started clients stop after their current item
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace perfbench
