// `lce` — the learned-cloud-emulator command line.
//
//   lce docs [provider] [resource]   print documentation pages
//   lce spec [provider]              print the learned SM specification
//   lce run <script> [provider]      run a trace script on the emulator
//   lce diff <script> [provider]     run on emulator AND reference cloud,
//                                    flagging divergences per call
//   lce align [provider] [--workers N] [--rounds N] [--metrics]
//                                    run the §4.3 alignment loop, print
//                                    the repair report; --workers shards
//                                    generation and the differential pass
//                                    over N threads
//                                    (0 = auto, 1 = serial; the report is
//                                    identical for every worker count);
//                                    --metrics prints per-API call counts
//   lce serve [provider] [port] [--metrics|--no-metrics] [--fault-seed N]
//             [--record DIR | --data-dir DIR [--snapshot-every N]]
//             [--wal-sync none|batch] [--no-stdin]
//                                    serve the emulator over HTTP
//                                    (LocalStack-style; Ctrl-D to stop)
//                                    through the lce::stack layer chain:
//                                    GET /metrics for counters, --fault-seed
//                                    for deterministic throttle/error chaos;
//                                    --data-dir makes the store durable:
//                                    recover on boot, journal every write,
//                                    snapshot + truncate the log every N
//                                    records; --record DIR is a data dir
//                                    that journals reads too and never
//                                    snapshots, so DIR/wal-00000001.lcw
//                                    holds the whole session as it runs
//   lce snapshot [port]              ask a running durable endpoint to
//                                    snapshot now (POST /admin/snapshot)
//   lce replay <dir|file.lcw> [provider]
//                                    deterministic replay verifier: rerun
//                                    a data dir (or a standalone record
//                                    file) against fresh interpreters and
//                                    assert byte-identical canonical dumps
//   lce trace export <script> <out.lcw> [provider]
//   lce trace import <in.lcw> <out-script>
//                                    convert between trace scripts and the
//                                    binary WAL/trace record format
//   lce coverage                     Table-1 style coverage report
//
// provider: aws (default) | azure. Scripts: see src/core/trace_script.h.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>

#include "align/engine.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "server/http.h"
#include "server/json.h"
#include "server/service.h"
#include "stack/config.h"
#include "baselines/moto_like.h"
#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "core/trace_script.h"
#include "docs/corpus.h"
#include "docs/render.h"
#include "interp/timers.h"
#include "spec/parser.h"
#include "spec/printer.h"

using namespace lce;

namespace {

docs::CloudCatalog catalog_for(const std::string& provider) {
  return provider == "azure" ? docs::build_azure_catalog() : docs::build_aws_catalog();
}

constexpr int kMaxPort = 65535;

/// A whole number >= `min` (and within int); false for anything else, so
/// a typo is refused rather than read as 0.
bool parse_count(std::string_view text, int min, int& out) {
  std::int64_t v = 0;
  if (text.size() > 10 || !parse_int(text, v) || v < min ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// A whole number >= 0 within int64, for the 64-bit settings (fault seed,
/// snapshot cadence); false for anything else, so "-1" is not read as 2^64-1.
bool parse_u64(std::string_view text, std::uint64_t& out) {
  std::int64_t v = 0;
  if (!parse_int(text, v) || v < 0) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

int usage() {
  std::cerr << "usage: lce <docs|spec|run|diff|align|serve|snapshot|replay|trace|coverage> [args]\n"
               "  lce docs [aws|azure] [Resource]\n"
               "  lce spec [aws|azure]\n"
               "  lce run <script-file> [aws|azure]\n"
               "  lce diff <script-file> [aws|azure]\n"
               "  lce align [aws|azure] [--workers N] [--rounds N] [--metrics]\n"
               "            [--no-plan]\n"
               "      --workers N  trace-generation and differential-pass\n"
               "                   threads (0 = auto-detect hardware concurrency,\n"
               "                   1 = serial; any value yields the identical\n"
               "                   alignment report)\n"
               "      --rounds N   max alignment rounds, >= 1 (default 6)\n"
               "      --metrics    print per-API call counts per round\n"
               "  lce serve [aws|azure] [port] [options]\n"
               "      --metrics / --no-metrics   install the metrics layer and\n"
               "                   GET /metrics endpoint (default on)\n"
               "      --fault-seed N  inject deterministic RequestLimitExceeded /\n"
               "                   InternalError faults seeded with N\n"
               "      --record DIR    a data dir that also journals reads and never\n"
               "                   snapshots (not with --data-dir/--snapshot-every);\n"
               "                   script it: lce trace import DIR/wal-00000001.lcw\n"
               "      --data-dir DIR  durable store: recover on boot, write-ahead\n"
               "                   log every write, replay the tail after a crash\n"
               "      --snapshot-every N  snapshot + truncate the log once the\n"
               "                   WAL holds N records (default 10000; 0 = only\n"
               "                   on demand via POST /admin/snapshot)\n"
               "      --wal-sync none|batch  durability of the log: none = page\n"
               "                   cache (survives kill -9; default), batch =\n"
               "                   fdatasync per group-commit batch (survives OS\n"
               "                   crash)\n"
               "      --virtual-time  run the deterministic virtual clock: the\n"
               "                   store's timers advance only via POST /admin/tick\n"
               "                   ({\"Ticks\": N}, default 1), journaled like any\n"
               "                   other write\n"
               "      --tick-ms N  real-time pacing: advance the virtual clock by\n"
               "                   one tick every N wall-clock ms (implies\n"
               "                   --virtual-time; /admin/tick still works)\n"
               "      --spec FILE  serve a hand-written Fig. 1 spec file instead\n"
               "                   of the learned-from-docs specification\n"
               "      --no-stdin   don't wait for EOF on stdin (for running\n"
               "                   detached / under a supervisor)\n"
               "      --no-plan    serve through the tree-walking reference\n"
               "                   interpreter instead of the compiled execution\n"
               "                   plan (debugging / A-B comparison)\n"
               "      --io-threads N  epoll event-loop threads for the serving\n"
               "                   front end (default: one per core, max 8)\n"
               "      --idle-timeout-ms N  reap a connection when no request\n"
               "                   completes on it for N ms (default 30000;\n"
               "                   0 = never; also the slow-loris guard)\n"
               "      --max-requests-per-conn N  close a keep-alive connection\n"
               "                   after N requests (default 0 = unlimited)\n"
               "  lce snapshot [port]\n"
               "      POST /admin/snapshot on a running durable endpoint\n"
               "  lce replay <dir|file.lcw> [aws|azure] [--spec FILE]\n"
               "      rerun a data dir or record file on fresh interpreters and\n"
               "      verify byte-identical canonical dumps + logged responses\n"
               "      (--spec FILE: replay against a hand-written spec instead of\n"
               "      the learned one — must match the serving spec)\n"
               "  lce trace export <script> <out.lcw> [aws|azure]\n"
               "  lce trace import <in.lcw> <out-script>\n"
               "      convert between trace scripts and binary record files\n"
               "  lce coverage\n";
  return 2;
}

bool is_record_file(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".lcw";
}

std::optional<Trace> load_script(const std::string& path) {
  if (is_record_file(path)) {
    persist::WalScan scan = persist::read_wal(path);
    if (!scan.header_ok) {
      std::cerr << "lce: " << path << " is not a record file\n";
      return std::nullopt;
    }
    Trace trace = persist::trace_from_records(scan.records, path);
    return trace;
  }
  // ifstream on a directory "opens" but reads nothing, which would look
  // like a valid empty script.
  std::ifstream in(path);
  if (!in || std::filesystem::is_directory(path)) {
    std::cerr << "lce: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  core::ScriptError err;
  auto trace = core::parse_trace_script(ss.str(), &err);
  if (!trace) {
    std::cerr << "lce: " << err.to_text() << "\n";
    return std::nullopt;
  }
  trace->label = path;
  return trace;
}

std::optional<spec::SpecSet> load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in || std::filesystem::is_directory(path)) {
    std::cerr << "lce: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  spec::ParseError err;
  auto spec = spec::parse_spec(ss.str(), &err);
  if (!spec) {
    std::cerr << "lce: " << path << ": " << err.to_text() << "\n";
    return std::nullopt;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage();
    return 0;
  }

  if (cmd == "docs") {
    std::string provider = argc > 2 ? argv[2] : "aws";
    std::string resource = argc > 3 ? argv[3] : "";
    auto corpus = docs::render_corpus(catalog_for(provider));
    for (const auto& page : corpus.pages) {
      if (!resource.empty() && page.resource != resource) continue;
      std::cout << page.text << "\n";
    }
    return 0;
  }
  if (cmd == "spec") {
    std::string provider = argc > 2 ? argv[2] : "aws";
    auto emulator =
        core::LearnedEmulator::from_docs(docs::render_corpus(catalog_for(provider)));
    std::cout << spec::print_spec(emulator.backend().spec());
    return 0;
  }
  if (cmd == "run" || cmd == "diff") {
    if (argc < 3) return usage();
    std::string provider = argc > 3 ? argv[3] : "aws";
    auto trace = load_script(argv[2]);
    if (!trace) return 1;
    auto emulator =
        core::LearnedEmulator::from_docs(docs::render_corpus(catalog_for(provider)));
    if (cmd == "run") {
      std::cout << core::run_trace_script(emulator.backend(), *trace);
      return 0;
    }
    cloud::ReferenceCloud cloud(catalog_for(provider));
    auto emu_resp = run_trace(emulator.backend(), *trace);
    auto cloud_resp = run_trace(cloud, *trace);
    int divergences = 0;
    for (std::size_t i = 0; i < trace->calls.size(); ++i) {
      bool aligned = cloud_resp[i].aligned_with(emu_resp[i]);
      std::cout << "[" << i << "] " << trace->calls[i].api << "  "
                << (aligned ? "aligned" : "DIVERGED") << "\n";
      if (!aligned) {
        ++divergences;
        std::cout << "      cloud:    " << cloud_resp[i].to_text() << "\n";
        std::cout << "      emulator: " << emu_resp[i].to_text() << "\n";
      }
    }
    std::cout << divergences << " divergence(s)\n";
    return divergences == 0 ? 0 : 1;
  }
  if (cmd == "align") {
    std::string provider = "aws";
    align::AlignmentOptions aopts;
    core::PipelineOptions popts;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "aws" || arg == "azure") {
        provider = arg;
      } else if (arg == "--workers" && i + 1 < argc) {
        if (!parse_count(argv[++i], 0, aopts.workers)) return usage();
      } else if (arg == "--rounds" && i + 1 < argc) {
        if (!parse_count(argv[++i], 1, aopts.max_rounds)) return usage();
      } else if (arg == "--metrics") {
        aopts.collect_metrics = true;
      } else if (arg == "--no-plan") {
        popts.use_plan = false;
      } else {
        return usage();
      }
    }
    auto emulator = core::LearnedEmulator::from_docs(
        docs::render_corpus(catalog_for(provider)), popts);
    cloud::ReferenceCloud cloud(catalog_for(provider));
    auto report = emulator.align_against(cloud, aopts);
    for (const auto& line : report.log) std::cout << line << "\n";
    std::cout << "converged=" << (report.converged ? "yes" : "no") << " repairs="
              << report.repairs.size() << " unrepaired=" << report.unrepaired.size()
              << "\n";
    for (const auto& r : report.repairs) std::cout << "  " << r.to_text() << "\n";
    for (std::size_t i = 0; i < report.rounds.size(); ++i) {
      const auto& r = report.rounds[i];
      std::cout << "round " << i + 1 << " timing: generation " << fixed(r.gen_wall_ms, 1)
                << " ms, diff " << fixed(r.diff_wall_ms, 1) << " ms, repair "
                << fixed(r.repair_wall_ms, 1) << " ms, replayed " << r.traces_replayed
                << " of " << r.traces << " traces, " << static_cast<long>(r.traces_per_sec)
                << " traces/s, " << r.workers << " worker(s)\n";
      if (aopts.collect_metrics && r.metrics.is_map()) {
        for (const char* side : {"cloud", "emulator"}) {
          const Value* total = r.metrics.get(side) ? r.metrics.get(side)->get("total")
                                                   : nullptr;
          if (total == nullptr) continue;
          std::cout << "  " << side << ": " << total->get_or("calls", Value(0)).as_int()
                    << " calls, " << total->get_or("errors", Value(0)).as_int()
                    << " errors\n";
        }
      }
    }
    return report.converged ? 0 : 1;
  }
  if (cmd == "serve") {
    std::string provider = "aws";
    int port = 0;
    stack::StackConfig config;
    std::string record_dir;
    bool durable_flag = false;  // --data-dir or --snapshot-every given
    core::PipelineOptions pipeline;
    persist::PersistOptions popts;
    popts.snapshot_every = 10000;
    server::HttpServerOptions hopts;
    bool wait_stdin = true;
    bool virtual_time = false;
    int tick_ms = 0;
    std::string spec_path;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "aws" || arg == "azure") {
        provider = arg;
      } else if (arg == "--metrics") {
        config.metrics = true;
      } else if (arg == "--no-metrics") {
        config.metrics = false;
      } else if (arg == "--fault-seed" && i + 1 < argc) {
        std::uint64_t seed = 0;
        if (!parse_u64(argv[++i], seed)) return usage();
        config.fault_seed = seed;
      } else if (arg == "--record" && i + 1 < argc) {
        record_dir = argv[++i];
      } else if (arg == "--data-dir" && i + 1 < argc) {
        popts.data_dir = argv[++i];
        durable_flag = true;
      } else if (arg == "--snapshot-every" && i + 1 < argc) {
        if (!parse_u64(argv[++i], popts.snapshot_every)) return usage();
        durable_flag = true;
      } else if (arg == "--wal-sync" && i + 1 < argc) {
        std::string mode = argv[++i];
        if (mode == "none") {
          popts.sync = persist::WalSync::kNone;
        } else if (mode == "batch") {
          popts.sync = persist::WalSync::kBatch;
        } else {
          std::cerr << "lce: unknown --wal-sync mode " << mode << "\n";
          return usage();
        }
      } else if (arg == "--virtual-time") {
        virtual_time = true;
      } else if (arg == "--tick-ms" && i + 1 < argc) {
        if (!parse_count(argv[++i], 0, tick_ms)) return usage();
        virtual_time = true;
      } else if (arg == "--spec" && i + 1 < argc) {
        spec_path = argv[++i];
      } else if (arg == "--no-stdin") {
        wait_stdin = false;
      } else if (arg == "--no-plan") {
        pipeline.use_plan = false;
      } else if (arg == "--io-threads" && i + 1 < argc) {
        if (!parse_count(argv[++i], 0, hopts.io_threads)) return usage();
      } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
        if (!parse_count(argv[++i], 0, hopts.idle_timeout_ms)) return usage();
      } else if (arg == "--max-requests-per-conn" && i + 1 < argc) {
        if (!parse_count(argv[++i], 0, hopts.max_requests_per_conn)) return usage();
      } else if (!arg.empty() && arg[0] != '-') {
        if (!parse_count(arg, 0, port) || port > kMaxPort) return usage();
      } else {
        return usage();
      }
    }
    if (!record_dir.empty()) {
      // A recording replays from reset, so it neither recovers a data dir
      // nor snapshots away the epoch that holds the session's start.
      if (durable_flag) return usage();
      popts.data_dir = record_dir;
      popts.log_reads = true;
      popts.snapshot_every = 0;
    }
    // --spec serves a hand-written spec on a standalone interpreter;
    // otherwise the full learned pipeline runs.
    std::optional<core::LearnedEmulator> emulator;
    std::unique_ptr<interp::Interpreter> spec_backend;
    if (!spec_path.empty()) {
      auto parsed = load_spec_file(spec_path);
      if (!parsed) return 1;
      interp::InterpreterOptions iopts;
      iopts.use_plan = pipeline.use_plan;
      spec_backend =
          std::make_unique<interp::Interpreter>(std::move(*parsed), iopts);
    } else {
      emulator = core::LearnedEmulator::from_docs(
          docs::render_corpus(catalog_for(provider)), pipeline);
    }
    interp::Interpreter& backend =
        spec_backend != nullptr ? *spec_backend : emulator->backend();
    std::unique_ptr<persist::PersistManager> persist_mgr;
    if (!popts.data_dir.empty()) {
      std::string error;
      persist::RecoveryResult recovery;
      persist_mgr = persist::PersistManager::open(backend, popts, &error, &recovery);
      if (persist_mgr == nullptr) {
        std::cerr << "lce: cannot open data dir: " << error << "\n";
        return 1;
      }
      std::cout << "recovered epoch " << recovery.epoch << ": snapshot "
                << (recovery.snapshot_loaded ? "loaded" : "none") << ", "
                << recovery.wal_records << " log record(s) replayed"
                << (recovery.torn_tail ? ", torn tail discarded" : "") << "\n";
      if (recovery.mismatches != 0) {
        std::cerr << "lce: WARNING: " << recovery.mismatches
                  << " replayed call(s) diverged from the log ("
                  << recovery.first_mismatch << ")\n";
      }
    }
    server::EmulatorEndpoint endpoint(backend, config, persist_mgr.get(), hopts,
                                      virtual_time);
    std::uint16_t bound = endpoint.start(static_cast<std::uint16_t>(port));
    if (bound == 0) {
      std::cerr << "lce: failed to bind port " << port << "\n";
      return 1;
    }
    std::cout << "learned " << provider << " emulator serving on http://127.0.0.1:"
              << bound << " (" << endpoint.io_threads() << " io thread(s), keep-alive)\n"
              << "  POST /invoke  {\"Action\": \"CreateVpc\", \"Params\": {...}}\n"
              << "  GET  /health  |  GET /metrics  |  GET /snapshot  |  POST /reset\n";
    if (persist_mgr != nullptr) {
      std::cout << "  POST /admin/snapshot  |  GET /admin/persist  (data dir: "
                << popts.data_dir << ")\n";
    }
    if (virtual_time) {
      std::cout << "  POST /admin/tick  {\"Ticks\": N}  (virtual time";
      if (tick_ms > 0) std::cout << ", paced every " << tick_ms << " ms";
      std::cout << ")\n";
    }
    std::cout << "  layers: ";
    auto names = endpoint.stack().layer_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::cout << (i ? " -> " : "") << names[i];
    }
    std::cout << (names.empty() ? "(none)" : "") << " -> " << backend.name()
              << "\n";
    // Supervisors parse the port announcement from a pipe or log file, so
    // it must leave the stdio buffer before the serve loop blocks.
    std::cout.flush();
    // Real-time pacing: one _AdvanceClock tick per interval, pushed through
    // the stack so it is journaled exactly like a POST /admin/tick.
    std::atomic<bool> pacer_stop{false};
    std::thread pacer;
    if (tick_ms > 0) {
      pacer = std::thread([&endpoint, &pacer_stop, tick_ms] {
        while (!pacer_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
          if (pacer_stop.load(std::memory_order_relaxed)) break;
          ApiRequest tick;
          tick.api = std::string(interp::timers::kAdvanceClockApi);
          tick.args["ticks"] = Value(static_cast<std::int64_t>(1));
          endpoint.stack().invoke(tick);
        }
      });
    }
    if (wait_stdin) {
      std::cout << "press Ctrl-D (EOF) to stop\n";
      std::string line;
      while (std::getline(std::cin, line)) {
      }
    } else {
      // Detached mode (supervisors, the crash-torture harness): serve until
      // killed. The torture suite SIGKILLs this process mid-write on purpose.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
    pacer_stop.store(true, std::memory_order_relaxed);
    if (pacer.joinable()) pacer.join();
    endpoint.stop();
    return 0;
  }
  if (cmd == "snapshot") {
    int port = 0;
    if (argc > 2 && (!parse_count(argv[2], 0, port) || port > kMaxPort)) return usage();
    if (port == 0) {
      std::cerr << "lce: snapshot needs the port of a running endpoint\n";
      return 2;
    }
    auto resp = server::http_request(static_cast<std::uint16_t>(port), "POST",
                                     "/admin/snapshot", "");
    if (!resp) {
      std::cerr << "lce: no response from http://127.0.0.1:" << port << "\n";
      return 1;
    }
    std::cout << resp->body << "\n";
    return resp->status == 200 ? 0 : 1;
  }
  if (cmd == "replay") {
    if (argc < 3) return usage();
    std::string path = argv[2];
    std::string provider = "aws";
    std::string spec_path;
    for (int i = 3; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "aws" || arg == "azure") {
        provider = arg;
      } else if (arg == "--spec" && i + 1 < argc) {
        spec_path = argv[++i];
      } else {
        return usage();
      }
    }
    bool is_dir = std::filesystem::is_directory(path);
    // Replay needs fresh interpreters serving the same spec the log was
    // written against: hand-written via --spec, learned otherwise.
    std::unique_ptr<interp::Interpreter> interp_a;
    std::unique_ptr<interp::Interpreter> interp_b;
    std::optional<core::LearnedEmulator> emu_a;
    std::optional<core::LearnedEmulator> emu_b;
    if (!spec_path.empty()) {
      auto parsed = load_spec_file(spec_path);
      if (!parsed) return 1;
      if (is_dir) {
        interp_b = std::make_unique<interp::Interpreter>(parsed->clone());
      }
      interp_a = std::make_unique<interp::Interpreter>(std::move(*parsed));
    } else {
      auto corpus = docs::render_corpus(catalog_for(provider));
      emu_a = core::LearnedEmulator::from_docs(corpus);
      if (is_dir) emu_b = core::LearnedEmulator::from_docs(corpus);
    }
    interp::Interpreter* a = interp_a != nullptr ? interp_a.get() : &emu_a->backend();
    persist::ReplayReport report;
    if (is_dir) {
      interp::Interpreter* b = interp_b != nullptr ? interp_b.get() : &emu_b->backend();
      report = persist::replay_dir(path, a, b);
    } else {
      report = persist::replay_file(path, a);
    }
    std::cout << "replayed " << report.recovery.wal_records << " record(s)"
              << (report.recovery.torn_tail ? " (torn tail discarded)" : "")
              << ", canonical dump " << report.canonical_dump.size() << " byte(s), "
              << (report.dumps_identical ? "dumps identical" : "DUMPS DIFFER") << ", "
              << report.mismatches << " response mismatch(es)\n";
    if (!report.ok) {
      std::cerr << "lce: replay FAILED: " << report.error << "\n";
      return 1;
    }
    std::cout << "replay OK\n";
    return 0;
  }
  if (cmd == "trace") {
    if (argc < 5 || (std::string(argv[2]) != "export" && std::string(argv[2]) != "import")) {
      return usage();
    }
    std::string sub = argv[2];
    std::string in_path = argv[3];
    std::string out_path = argv[4];
    if (sub == "export") {
      auto trace = load_script(in_path);
      if (!trace) return 1;
      std::string error;
      if (!persist::write_wal_file(out_path, persist::records_from_trace(*trace),
                                   &error)) {
        std::cerr << "lce: " << error << "\n";
        return 1;
      }
      std::cout << "exported " << trace->calls.size() << " call(s) to " << out_path
                << "\n";
      return 0;
    }
    persist::WalScan scan = persist::read_wal(in_path);
    if (!scan.header_ok) {
      std::cerr << "lce: " << in_path << " is not a record file\n";
      return 1;
    }
    if (scan.torn_tail) {
      std::cerr << "lce: warning: torn tail discarded after "
                << scan.records.size() << " record(s)\n";
    }
    Trace trace = persist::trace_from_records(scan.records, out_path);
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "lce: cannot write " << out_path << "\n";
      return 1;
    }
    out << core::print_trace_script(trace);
    // Every record is a call or a reset; the trace starts after the last reset.
    std::cout << "imported " << trace.calls.size() << " call(s) to " << out_path
              << ", left out " << scan.records.size() - trace.calls.size()
              << " record(s) up to the last reset\n";
    return 0;
  }
  if (cmd == "coverage") {
    auto catalog = docs::build_aws_catalog();
    baselines::MotoLike moto(catalog);
    auto learned = core::LearnedEmulator::from_docs(docs::render_corpus(catalog));
    for (const auto& service : catalog.services) {
      std::size_t total = 0;
      std::size_t moto_n = 0;
      std::size_t learned_n = 0;
      for (const auto& r : service.resources) {
        for (const auto& a : r.apis) {
          ++total;
          if (moto.supports(a.name)) ++moto_n;
          if (learned.backend().supports(a.name)) ++learned_n;
        }
      }
      std::cout << service.name << ": " << total << " APIs, manual " << moto_n
                << ", learned " << learned_n << "\n";
    }
    return 0;
  }
  return usage();
}
