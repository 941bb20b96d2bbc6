// Open-loop / closed-loop serve benchmark: the sharded interpreter path
// against the SerializeLayer compatibility path (see src/bench/serve_bench
// for the driver and DESIGN.md "Serve throughput benchmark" for the
// methodology). CI runs `--quick --json BENCH_serve.json` as the
// bench-smoke gate; the exit status enforces sharded > serialized at the
// top measured concurrency >= 4, WAL overhead, keep-alive over
// close-per-request, and allocs/request on the serve path.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench/serve_bench.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter: every operator new in this binary bumps a
// counter so the driver can report allocations per served request (the
// metric the zero-copy wire work is gated on — see --max-serve-allocs).
// Compiled out under sanitizers, which intercept new/delete themselves;
// the driver self-skips the gate when no counter is installed.

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define LCE_BENCH_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define LCE_BENCH_SANITIZED_BUILD 1
#else
#define LCE_BENCH_SANITIZED_BUILD 0
#endif
#else
#define LCE_BENCH_SANITIZED_BUILD 0
#endif

#if !LCE_BENCH_SANITIZED_BUILD
// GCC flags free() inside our replacement operator delete as mismatched
// with the replacement operator new; both sides are malloc-backed here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                               (n + static_cast<std::size_t>(a) - 1) &
                                   ~(static_cast<std::size_t>(a) - 1));
  if (p != nullptr) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {
std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace
#endif  // !LCE_BENCH_SANITIZED_BUILD

int main(int argc, char** argv) {
  lce::bench::ServeBenchOptions opts;
#if !LCE_BENCH_SANITIZED_BUILD
  opts.alloc_counter = heap_alloc_count;
#endif
  if (!lce::bench::parse_serve_bench_args(argc - 1, argv + 1, opts)) return 2;
  return lce::bench::run_serve_bench(opts);
}
