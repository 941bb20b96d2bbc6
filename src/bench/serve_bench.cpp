#include "bench/serve_bench.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string_view>

#include "bench/loadgen.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "interp/interpreter.h"
#include "persist/journal.h"
#include "server/json.h"
#include "server/service.h"
#include "stack/config.h"

namespace lce::bench {

namespace {

// Sanitizer instrumentation swamps the socket-layer numbers, so the
// keep-alive gate (like the plan gate in bench_interpreter_micro) only
// enforces on uninstrumented builds.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

stack::StackConfig bench_config() {
  stack::StackConfig cfg;
  cfg.validate = true;
  // No metrics layer: its counter mutex is shared contention that would
  // blur the serialized-vs-sharded comparison this bench exists to make.
  cfg.metrics = false;
  return cfg;
}

struct SweepPoint {
  std::string config;
  int concurrency = 0;
  LoadStats stats;
  /// HTTP sweep only: TCP connections the server accepted during the run
  /// (keep-alive ~= concurrency, close ~= ops).
  std::int64_t connections = -1;
};

Value point_value(const SweepPoint& p, double rate) {
  Value::Map m = p.stats.to_value().as_map();
  m["config"] = Value(p.config);
  m["concurrency"] = Value(static_cast<std::int64_t>(p.concurrency));
  if (rate > 0) m["arrival_rate_ops_s"] = Value(static_cast<std::int64_t>(rate));
  if (p.connections >= 0) m["connections"] = Value(p.connections);
  return Value(std::move(m));
}

std::string fmt_speedup(double s) {
  return strf(static_cast<long>(s), ".", static_cast<long>(s * 100) % 100 / 10,
              static_cast<long>(s * 100) % 10, "x");
}

std::string fixed_digits(double v, int prec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Allocation probe: a raw-socket pipelined client whose steady-state loop
// is allocation-free (pre-rendered burst, fixed receive buffer, in-place
// frame scan), so the process-wide operator-new counter isolates the SERVE
// path's allocations per request.

int dial_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Complete Content-Length-framed responses in buf[0..len), without
/// allocating. The server emits the lowercase "content-length: " form.
std::size_t count_frames(const char* data, std::size_t len) {
  std::string_view sv(data, len);
  std::size_t count = 0;
  std::size_t pos = 0;
  for (;;) {
    std::size_t hdr_end = sv.find("\r\n\r\n", pos);
    if (hdr_end == std::string_view::npos) return count;
    std::size_t cl = sv.find("content-length: ", pos);
    std::size_t body_len = 0;
    if (cl != std::string_view::npos && cl < hdr_end) {
      for (std::size_t i = cl + 16; i < hdr_end && data[i] >= '0' && data[i] <= '9';
           ++i) {
        body_len = body_len * 10 + static_cast<std::size_t>(data[i] - '0');
      }
    }
    std::size_t next = hdr_end + 4 + body_len;
    if (next > len) return count;
    ++count;
    pos = next;
  }
}

/// Steady-state allocations per request over a keep-alive pipelined burst
/// against `port`. Returns -1 when the probe could not run.
double run_alloc_probe(std::uint16_t port, std::uint64_t (*counter)()) {
  constexpr int kBurst = 32;
  constexpr int kRounds = 16;
  // A target to describe, created outside the measured window (describes
  // are the steady state; creates grow the store by design).
  auto created = server::invoke_over_http(
      port, "CreateVpc", {{"cidr_block", Value("10.250.0.0/16")}});
  if (!created.ok || created.data.get("id") == nullptr) return -1;
  std::string body = strf("{\"Action\":\"DescribeVpc\",\"Params\":{\"id\":\"",
                          created.data.get("id")->as_str(), "\"}}");
  std::string one =
      strf("POST /invoke HTTP/1.1\r\nhost: b\r\ncontent-length: ", body.size(),
           "\r\nconnection: keep-alive\r\n\r\n", body);
  std::string burst;
  burst.reserve(one.size() * kBurst);
  for (int i = 0; i < kBurst; ++i) burst += one;

  int fd = dial_loopback(port);
  if (fd < 0) return -1;
  std::vector<char> buf(static_cast<std::size_t>(kBurst) * 8192);
  auto round = [&]() -> bool {
    std::size_t off = 0;
    while (off < burst.size()) {
      ssize_t n = ::send(fd, burst.data() + off, burst.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    std::size_t got = 0;
    while (count_frames(buf.data(), got) < kBurst) {
      if (got == buf.size()) return false;
      ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  // Warm the connection's buffers, the parser capacity, the request arena
  // and the interned-key table before counting.
  if (!round() || !round()) {
    ::close(fd);
    return -1;
  }
  std::uint64_t before = counter();
  for (int r = 0; r < kRounds; ++r) {
    if (!round()) {
      ::close(fd);
      return -1;
    }
  }
  std::uint64_t after = counter();
  ::close(fd);
  return static_cast<double>(after - before) / (kBurst * kRounds);
}

}  // namespace

bool parse_serve_bench_args(int argc, char** argv, ServeBenchOptions& out) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      out.quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      out.json_path = argv[++i];
    } else if (arg == "--no-json") {
      out.json_path.clear();
    } else if (arg == "--ops" && i + 1 < argc) {
      out.ops = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--concurrency" && i + 1 < argc) {
      out.concurrency.clear();
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        out.concurrency.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (arg == "--rate" && i + 1 < argc) {
      out.open_loop_rate = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      out.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      out.min_speedup = std::atof(argv[++i]);
    } else if (arg == "--no-enforce") {
      out.enforce = false;
    } else if (arg == "--data-dir" && i + 1 < argc) {
      out.data_dir = argv[++i];
    } else if (arg == "--wal-sync" && i + 1 < argc) {
      std::string mode = argv[++i];
      if (mode != "none" && mode != "batch") {
        std::cerr << "unknown --wal-sync mode: " << mode << "\n";
        return false;
      }
      out.wal_sync_batch = mode == "batch";
    } else if (arg == "--max-wal-overhead" && i + 1 < argc) {
      out.max_wal_overhead = std::atof(argv[++i]);
    } else if (arg == "--no-http") {
      out.http_sweep = false;
    } else if (arg == "--io-threads" && i + 1 < argc) {
      out.io_threads = std::atoi(argv[++i]);
    } else if (arg == "--min-keepalive-speedup" && i + 1 < argc) {
      out.min_keepalive_speedup = std::atof(argv[++i]);
    } else if (arg == "--max-serve-allocs" && i + 1 < argc) {
      out.max_serve_allocs = std::atof(argv[++i]);
    } else {
      std::cerr << "unknown bench flag: " << arg << "\n"
                << "flags: --quick --json FILE --no-json --ops N "
                   "--concurrency a,b,c --rate R --seed N --min-speedup X "
                   "--no-enforce --data-dir DIR --wal-sync none|batch "
                   "--max-wal-overhead X --no-http --io-threads N "
                   "--min-keepalive-speedup X --max-serve-allocs N\n";
      return false;
    }
  }
  return true;
}

int run_serve_bench(const ServeBenchOptions& opts) {
  std::vector<int> sweep = opts.concurrency;
  if (sweep.empty()) {
    sweep = opts.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  }
  std::size_t ops = opts.ops != 0 ? opts.ops : (opts.quick ? 3000 : 20000);
  int hw = ThreadPool::hardware_workers();

  std::cout << "=== Serve-path throughput: serialized vs sharded invoke ===\n"
            << "  workload: " << ops << " ops/run, 10% create / 20% mutate / "
               "70% describe, hardware workers: " << hw << "\n\n";

  // One emulator, three stacks over the same interpreter: identical
  // layers except the serialize gate / the journal. Each run_load resets
  // the shared store.
  auto emulator = core::LearnedEmulator::from_docs(
      docs::render_corpus(docs::build_aws_catalog()));
  // The serialized baseline puts the whole-backend gate under validate by
  // hand: build_stack leaves it out because the interpreter is
  // thread_safe().
  stack::LayerStack serialized(emulator.backend());
  serialized.push(std::make_unique<stack::SerializeLayer>())
      .push(std::make_unique<stack::ValidateLayer>());
  stack::LayerStack sharded = stack::build_stack(emulator.backend(), bench_config());

  // The durable path: sharded stack + JournalLayer over a real data dir.
  std::string data_dir = opts.data_dir;
  if (data_dir.empty()) {
    data_dir = (std::filesystem::temp_directory_path() / "lce_bench_wal").string();
  }
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);  // fresh log per bench run
  persist::PersistOptions popts;
  popts.data_dir = data_dir;
  popts.sync = opts.wal_sync_batch ? persist::WalSync::kBatch : persist::WalSync::kNone;
  popts.snapshot_every = 0;  // measure the log alone, no rotation pauses
  std::string persist_error;
  auto persist_mgr =
      persist::PersistManager::open(emulator.backend(), popts, &persist_error);
  if (persist_mgr == nullptr) {
    std::cerr << "cannot open bench data dir " << data_dir << ": " << persist_error
              << "\n";
    return 1;
  }
  stack::StackConfig wal_cfg = bench_config();
  wal_cfg.journal = [&persist_mgr] {
    return std::make_unique<persist::JournalLayer>(persist_mgr.get());
  };
  stack::LayerStack wal = stack::build_stack(emulator.backend(), wal_cfg);

  LoadOptions base;
  base.total_ops = ops;
  base.seed = opts.seed;

  std::vector<SweepPoint> closed;
  double best_sharded = 0;
  for (int c : sweep) {
    for (auto* side : {&serialized, &sharded, &wal}) {
      LoadOptions lo = base;
      lo.concurrency = c;
      SweepPoint p;
      p.config = side == &serialized ? "serialized"
                 : side == &sharded  ? "sharded"
                                     : "wal";
      p.concurrency = c;
      p.stats = run_load(*side, lo);
      if (side == &sharded && p.stats.throughput_ops_s > best_sharded) {
        best_sharded = p.stats.throughput_ops_s;
      }
      closed.push_back(std::move(p));
    }
  }

  TextTable table({"config", "conc", "ops/s", "p50 us", "p99 us", "errors"});
  for (const auto& p : closed) {
    table.add_row({p.config, strf(p.concurrency),
                   strf(static_cast<long>(p.stats.throughput_ops_s)),
                   strf(static_cast<long>(p.stats.p50_us)),
                   strf(static_cast<long>(p.stats.p99_us)),
                   strf(p.stats.errors)});
  }
  std::cout << table.render() << "\n";

  // Speedups per concurrency point.
  double gate_speedup = 0;
  double gate_wal_overhead = 0;
  int gate_conc = 0;
  std::cout << "sharded vs serialized:";
  for (int c : sweep) {
    double ser = 0, sha = 0, wl = 0;
    for (const auto& p : closed) {
      if (p.concurrency != c) continue;
      if (p.config == "serialized") ser = p.stats.throughput_ops_s;
      if (p.config == "sharded") sha = p.stats.throughput_ops_s;
      if (p.config == "wal") wl = p.stats.throughput_ops_s;
    }
    double speedup = ser > 0 ? sha / ser : 0;
    std::cout << "  c" << c << "=" << fmt_speedup(speedup);
    if (c >= 4 && c >= gate_conc) {
      gate_conc = c;
      gate_speedup = speedup;
      gate_wal_overhead = wl > 0 ? sha / wl : 0;
    }
  }
  std::cout << "\n";
  {
    // WAL overhead per concurrency point (sharded ops/s over wal ops/s —
    // 1.00x means journaling is free).
    std::cout << "wal overhead (sharded / wal):";
    for (int c : sweep) {
      double sha = 0, wl = 0;
      for (const auto& p : closed) {
        if (p.concurrency != c) continue;
        if (p.config == "sharded") sha = p.stats.throughput_ops_s;
        if (p.config == "wal") wl = p.stats.throughput_ops_s;
      }
      std::cout << "  c" << c << "=" << fmt_speedup(wl > 0 ? sha / wl : 0);
    }
    std::cout << "\n";
  }

  // Open-loop latency at a rate the serialized path struggles with.
  double rate = opts.open_loop_rate > 0 ? opts.open_loop_rate : best_sharded * 0.6;
  int open_conc = sweep.back();
  std::vector<SweepPoint> open;
  if (rate > 0) {
    std::cout << "\nopen loop: " << static_cast<long>(rate)
              << " ops/s scheduled arrivals, concurrency " << open_conc
              << " (latency from scheduled arrival):\n";
    for (auto* side : {&serialized, &sharded}) {
      LoadOptions lo = base;
      lo.concurrency = open_conc;
      lo.arrival_rate = rate;
      SweepPoint p;
      p.config = side == &serialized ? "serialized" : "sharded";
      p.concurrency = open_conc;
      p.stats = run_load(*side, lo);
      std::cout << "  " << p.config << ": p50 "
                << static_cast<long>(p.stats.p50_us) << " us, p99 "
                << static_cast<long>(p.stats.p99_us) << " us, max "
                << static_cast<long>(p.stats.max_us / 1000) << " ms\n";
      open.push_back(std::move(p));
    }
  }

  // HTTP front-end sweep: the same sharded stack, but reached through the
  // epoll server over real loopback sockets — once with one keep-alive
  // connection per worker, once with a fresh Connection: close socket per
  // request — then an open-loop latency run near the keep-alive peak.
  std::vector<SweepPoint> http_points;
  double ka_speedup = 0;
  double serve_allocs = -1;
  double http_rate = 0;
  int http_io_threads = 0;
  if (opts.http_sweep) {
    server::HttpServerOptions hopts;
    hopts.io_threads = opts.io_threads;
    server::EmulatorEndpoint endpoint(emulator.backend(),
                                      bench_config(),
                                      nullptr, hopts);
    std::uint16_t port = endpoint.start();
    if (port == 0) {
      std::cerr << "cannot bind the HTTP front-end sweep endpoint\n";
      return 1;
    }
    http_io_threads = endpoint.io_threads();
    int hc = sweep.back();
    double ka_tput = 0, close_tput = 0;
    std::cout << "\nHTTP front end (" << http_io_threads << " io threads, concurrency "
              << hc << "): keep-alive vs close-per-request\n";
    auto http_point = [&](const char* config, bool keep_alive, double rate) {
      LoadOptions lo = base;
      lo.concurrency = hc;
      lo.http_port = port;
      lo.http_keep_alive = keep_alive;
      lo.arrival_rate = rate;
      auto before = endpoint.server_stats();
      SweepPoint p;
      p.config = config;
      p.concurrency = hc;
      p.stats = run_load(endpoint.stack(), lo);
      auto after = endpoint.server_stats();
      p.connections = static_cast<std::int64_t>(after.connections_accepted -
                                                before.connections_accepted);
      return p;
    };
    for (bool keep_alive : {false, true}) {
      SweepPoint p = http_point(keep_alive ? "http_keepalive" : "http_close",
                                keep_alive, 0);
      (keep_alive ? ka_tput : close_tput) = p.stats.throughput_ops_s;
      std::cout << "  " << p.config << ": "
                << static_cast<long>(p.stats.throughput_ops_s) << " ops/s over "
                << p.connections << " connection(s), p99 "
                << static_cast<long>(p.stats.p99_us) << " us, errors "
                << p.stats.errors << "\n";
      http_points.push_back(std::move(p));
    }
    ka_speedup = close_tput > 0 ? ka_tput / close_tput : 0;
    http_rate = ka_tput * 0.7;
    if (http_rate > 0) {
      SweepPoint p = http_point("http_keepalive_open", true, http_rate);
      std::cout << "  open loop @" << static_cast<long>(http_rate)
                << " ops/s: p50 " << static_cast<long>(p.stats.p50_us)
                << " us, p99 " << static_cast<long>(p.stats.p99_us) << " us, max "
                << static_cast<long>(p.stats.max_us / 1000) << " ms\n";
      http_points.push_back(std::move(p));
    }

    // Allocations per served request. Counted, not timed — valid even on
    // one core.
    if (opts.alloc_counter != nullptr) {
      serve_allocs = run_alloc_probe(port, opts.alloc_counter);
      std::cout << "  allocs/request over a pipelined keep-alive burst: "
                << (serve_allocs >= 0 ? fixed_digits(serve_allocs, 1)
                                      : std::string("probe-failed"))
                << "\n";
    }
    endpoint.stop();
  }

  bool gate_applicable = opts.enforce && gate_conc >= 4 && hw >= 2;
  bool speedup_pass = !gate_applicable || gate_speedup >= opts.min_speedup;
  bool wal_pass = !gate_applicable || gate_wal_overhead == 0 ||
                  gate_wal_overhead <= opts.max_wal_overhead;
  // Keep-alive must beat close-per-request: without parallel event loops
  // (single core) or with sanitizer instrumentation the comparison is
  // meaningless, so the gate self-skips there.
  bool ka_applicable = opts.enforce && opts.http_sweep && !kSanitized && hw >= 2;
  bool ka_pass = !ka_applicable || ka_speedup >= opts.min_keepalive_speedup;
  // Allocs/request is counted, not timed, so it holds on any core count —
  // but it needs the binary's operator-new hook (compiled out under
  // sanitizers).
  bool alloc_applicable = opts.enforce && opts.http_sweep && !kSanitized &&
                          opts.alloc_counter != nullptr && opts.max_serve_allocs > 0;
  bool alloc_pass =
      !alloc_applicable || (serve_allocs >= 0 && serve_allocs <= opts.max_serve_allocs);
  bool pass = speedup_pass && wal_pass && ka_pass && alloc_pass;
  if (ka_applicable) {
    std::cout << "\nkeep-alive >= " << fmt_speedup(opts.min_keepalive_speedup)
              << " close-per-request: " << (ka_pass ? "PASS" : "FAIL") << " ("
              << fmt_speedup(ka_speedup) << ")\n";
  } else if (opts.enforce && opts.http_sweep) {
    std::cout << "\nkeep-alive gate skipped ("
              << (kSanitized ? "sanitizer build" : "single-core machine") << ")\n";
  }
  if (alloc_applicable) {
    std::cout << "serve allocs/request <= "
              << fixed_digits(opts.max_serve_allocs, 1) << ": "
              << (alloc_pass ? "PASS" : "FAIL") << " ("
              << (serve_allocs >= 0 ? fixed_digits(serve_allocs, 1)
                                    : std::string("probe failed"))
              << ")\n";
  } else if (opts.enforce && opts.http_sweep && opts.max_serve_allocs > 0) {
    std::cout << "serve alloc gate skipped ("
              << (kSanitized ? "sanitizer build" : "no allocation hook in this binary")
              << ")\n";
  }
  if (gate_applicable) {
    std::cout << "\nsharded >= " << fmt_speedup(opts.min_speedup)
              << " serialized at c" << gate_conc << ": "
              << (speedup_pass ? "PASS" : "FAIL") << " ("
              << fmt_speedup(gate_speedup) << ")\n";
    std::cout << "wal overhead <= " << fmt_speedup(opts.max_wal_overhead)
              << " at c" << gate_conc << ": " << (wal_pass ? "PASS" : "FAIL")
              << " (" << fmt_speedup(gate_wal_overhead) << ")\n";
  } else if (opts.enforce) {
    std::cout << "\nspeedup gate skipped ("
              << (hw < 2 ? "single-core machine" : "no sweep point >= 4")
              << ")\n";
  }

  if (!opts.json_path.empty()) {
    Value::Map root;
    root["bench"] = Value(std::string("serve_throughput"));
    root["quick"] = Value(opts.quick);
    root["hardware_workers"] = Value(static_cast<std::int64_t>(hw));
    root["ops_per_run"] = Value(static_cast<std::int64_t>(ops));
    Value::List closed_rows;
    for (const auto& p : closed) closed_rows.push_back(point_value(p, 0));
    root["closed_loop"] = Value(std::move(closed_rows));
    Value::List open_rows;
    for (const auto& p : open) open_rows.push_back(point_value(p, rate));
    root["open_loop"] = Value(std::move(open_rows));
    Value::List http_rows;
    for (const auto& p : http_points) {
      http_rows.push_back(
          point_value(p, p.config == "http_keepalive_open" ? http_rate : 0));
    }
    root["http_front_end"] = Value(std::move(http_rows));
    root["keepalive_speedup"] = Value(fmt_speedup(ka_speedup));
    // Allocation counts ride as x10 integers (Value is integer-only) —
    // same convention as the interpreter bench's alloc_per_op_x10.
    if (serve_allocs >= 0) {
      root["serve_alloc_per_req_x10"] =
          Value(static_cast<std::int64_t>(serve_allocs * 10 + 0.5));
    }
    root["io_threads"] = Value(static_cast<std::int64_t>(http_io_threads));
    root["speedup_at_gate"] = Value(fmt_speedup(gate_speedup));
    root["wal_overhead"] = Value(fmt_speedup(gate_wal_overhead));
    root["wal_sync"] = Value(std::string(opts.wal_sync_batch ? "batch" : "none"));
    root["gate_concurrency"] = Value(static_cast<std::int64_t>(gate_conc));
    // Mirror every self-skipped gate into the artifact with its reason —
    // a consumer reading only the JSON must be able to tell "measured and
    // passed" from "could not be measured on this runner".
    Value::Map gate_skips;
    if (opts.enforce && !gate_applicable) {
      gate_skips["sharded_speedup_and_wal"] = Value(std::string(
          hw < 2 ? "single-core machine" : "no sweep point >= 4"));
    }
    if (opts.enforce && opts.http_sweep && !ka_applicable) {
      gate_skips["keepalive"] = Value(
          std::string(kSanitized ? "sanitizer build" : "single-core machine"));
    }
    if (opts.enforce && opts.http_sweep && opts.max_serve_allocs > 0 &&
        !alloc_applicable) {
      gate_skips["serve_alloc"] =
          Value(std::string(kSanitized ? "sanitizer build"
                                       : "no allocation hook in this binary"));
    }
    if (!gate_skips.empty()) {
      root["gate_skips"] = Value(std::move(gate_skips));
    }
    root["pass"] = Value(pass);
    std::ofstream out(opts.json_path);
    if (!out) {
      std::cerr << "cannot write " << opts.json_path << "\n";
      return 1;
    }
    out << server::to_json(Value(std::move(root))) << "\n";
    std::cout << "wrote " << opts.json_path << "\n";
  }

  return pass ? 0 : 1;
}

}  // namespace lce::bench
