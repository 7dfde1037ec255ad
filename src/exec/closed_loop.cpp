#include "exec/closed_loop.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace mcm::exec {

std::optional<unsigned> parse_thread_count(std::string_view text) {
  unsigned value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0) return std::nullopt;
  return value;
}

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("MCM_THREADS");
  if (env != nullptr && *env != '\0') {
    if (const auto n = parse_thread_count(env)) return *n;
    static std::once_flag warned;
    std::call_once(warned, [env] {
      MCM_LOG_WARN("MCM_THREADS='%s' is not a positive integer; using "
                   "hardware_concurrency()",
                   env);
    });
  }
  return std::max(std::thread::hardware_concurrency(), 1u);
}

void run_indexed(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // first exception from fn; guarded by error_mutex
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        next.store(n);  // stop the handout; items already taken finish
        const std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };

  const std::size_t workers = std::min<std::size_t>(std::max(threads, 1u), n);
  std::vector<std::thread> started;
  try {
    started.reserve(workers > 0 ? workers - 1 : 0);
    while (started.size() + 1 < workers) started.emplace_back(worker);
  } catch (...) {
    next.store(n);
    for (std::thread& t : started) t.join();
    throw;
  }
  if (workers > 0) worker();  // the caller is the last worker
  for (std::thread& t : started) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace mcm::exec
