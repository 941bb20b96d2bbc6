#include "server/service.h"

#include <utility>

#include "common/arena.h"
#include "common/strings.h"
#include "interp/timers.h"
#include "persist/journal.h"
#include "server/json.h"
#include "stack/layer.h"
#include "stack/layers.h"

namespace lce::server {

namespace {

/// Route-core result: every emulator route answers a status plus a JSON
/// Value. Rendering happens in the caller — the heap path serializes into
/// an HttpResponse, the wire path appends straight into the connection's
/// output buffer — so both paths share one routing brain and stay
/// byte-identical by construction.
struct RouteReply {
  int status = 200;
  Value body;
};

RouteReply error_reply(int status, std::string_view code, std::string_view message) {
  Value err = Value::empty_map();
  err.set("Code", Value(code));
  err.set("Message", Value(message));
  Value body = Value::empty_map();
  body.set("Error", std::move(err));
  return RouteReply{status, std::move(body)};
}

Value server_stats_value(const HttpServerStats& s) {
  // write_calls is deliberately absent: kernel read chunking makes it
  // nondeterministic run to run, and /metrics bodies are compared verbatim
  // by the differential suites.
  Value m = Value::empty_map();
  m.set("connections_accepted", Value(static_cast<std::int64_t>(s.connections_accepted)));
  m.set("connections_closed", Value(static_cast<std::int64_t>(s.connections_closed)));
  m.set("requests_served", Value(static_cast<std::int64_t>(s.requests_served)));
  m.set("keepalive_reuses", Value(static_cast<std::int64_t>(s.keepalive_reuses)));
  m.set("idle_reaped", Value(static_cast<std::int64_t>(s.idle_reaped)));
  m.set("rejected_400", Value(static_cast<std::int64_t>(s.rejected_400)));
  m.set("rejected_413", Value(static_cast<std::int64_t>(s.rejected_413)));
  m.set("rejected_431", Value(static_cast<std::int64_t>(s.rejected_431)));
  return m;
}

/// The routing brain behind both handler forms. `fast_decode` selects the
/// arena/direct JSON decoder (the serving path) vs the historical builder
/// (the --no-wire-fastpath reference); both accept the same texts with the
/// same errors. Backend and persist calls run under ArenaPause so any
/// Value a layer retains (trace records, read-cache entries, store writes)
/// lands on the heap even when the wire path has a request arena active —
/// the request's own scratch (decoded doc, response body) stays
/// arena-backed and dies with the returned RouteReply.
RouteReply route_emulator_request(CloudBackend& backend, std::string_view method,
                                  std::string_view path, std::string_view body,
                                  persist::PersistManager* persist,
                                  const HttpServer* server, bool virtual_time,
                                  bool fast_decode) {
  auto parse_body = [&](JsonError* jerr) {
    return fast_decode ? parse_json(body, jerr) : parse_json_reference(body, jerr);
  };
  auto* layered = dynamic_cast<stack::LayerStack*>(&backend);
  if (path == "/admin/tick") {
    if (!virtual_time) {
      return error_reply(404, "VirtualTimeDisabled",
                         "endpoint is not running with --virtual-time");
    }
    if (method != "POST") {
      return error_reply(405, "MethodNotAllowed",
                         strf(method, " not supported on ", path));
    }
    // Tick count from the body ({"Ticks": N}); default 1.
    std::int64_t ticks = 1;
    if (!body.empty()) {
      JsonError jerr;
      auto doc = parse_body(&jerr);
      if (!doc || !doc->is_map()) {
        return error_reply(400, "MalformedRequest",
                           doc ? "request body must be a JSON object" : jerr.to_text());
      }
      if (const Value* t = doc->get("Ticks")) {
        if (!t->is_int() || t->as_int() < 1) {
          return error_reply(400, "MalformedRequest",
                             "\"Ticks\" must be a positive integer");
        }
        ticks = t->as_int();
      }
    }
    // Through the stack, not a direct clock poke: the journal layer logs
    // the advance as an ordinary call record, so recovery and replay
    // re-fire the same timer sequence.
    ApiRequest api_req;
    api_req.api = std::string(interp::timers::kAdvanceClockApi);
    api_req.args["ticks"] = Value(ticks);
    ApiResponse result;
    {
      ArenaPause pause;
      result = backend.invoke(api_req);
    }
    if (result.ok) {
      Value reply = Value::empty_map();
      reply.set("Data", std::move(result.data));
      return RouteReply{200, std::move(reply)};
    }
    int status = result.code == "InternalError" ? 500 : 400;
    return error_reply(status, result.code, result.message);
  }
  if (path == "/admin/snapshot" || path == "/admin/persist") {
    if (persist == nullptr) {
      return error_reply(404, "PersistenceUnavailable",
                         "endpoint is not running with a data dir");
    }
    if (method == "POST" && path == "/admin/snapshot") {
      std::string error;
      bool ok;
      {
        ArenaPause pause;
        ok = persist->take_snapshot(&error);
      }
      if (!ok) return error_reply(500, "SnapshotFailed", error);
      persist::PersistStatus st = persist->status();
      Value reply = Value::empty_map();
      reply.set("status", Value("snapshotted"));
      reply.set("epoch", Value(static_cast<std::int64_t>(st.epoch)));
      return RouteReply{200, std::move(reply)};
    }
    if (method == "GET" && path == "/admin/persist") {
      persist::PersistStatus st = persist->status();
      Value reply = Value::empty_map();
      reply.set("data_dir", Value(persist->options().data_dir));
      reply.set("epoch", Value(static_cast<std::int64_t>(st.epoch)));
      reply.set("wal_records", Value(static_cast<std::int64_t>(st.wal_records)));
      reply.set("wal_bytes", Value(static_cast<std::int64_t>(st.wal_bytes)));
      reply.set("snapshots_taken", Value(static_cast<std::int64_t>(st.snapshots_taken)));
      reply.set("failed", Value(st.failed));
      return RouteReply{200, std::move(reply)};
    }
    return error_reply(405, "MethodNotAllowed",
                       strf(method, " not supported on ", path));
  }
  if (method == "GET" && path == "/health") {
    Value health = Value::empty_map();
    health.set("status", Value("ok"));
    health.set("backend", Value(backend.name()));
    if (layered != nullptr) {
      Value layers = Value::empty_list();
      for (const auto& l : layered->layer_names()) layers.append(Value(l));
      health.set("layers", std::move(layers));
    }
    return RouteReply{200, std::move(health)};
  }
  if (method == "GET" && path == "/metrics") {
    auto* metrics =
        layered != nullptr ? layered->find<stack::MetricsLayer>() : nullptr;
    if (metrics == nullptr) {
      return error_reply(404, "MetricsUnavailable",
                         "no metrics layer installed on this endpoint");
    }
    Value reply = metrics->metrics();
    if (server != nullptr) reply.set("server", server_stats_value(server->stats()));
    return RouteReply{200, std::move(reply)};
  }
  if (method == "GET" && path == "/snapshot") {
    Value snap;
    {
      ArenaPause pause;
      snap = backend.snapshot();
    }
    return RouteReply{200, std::move(snap)};
  }
  if (method == "POST" && path == "/reset") {
    bool failed_wal = false;
    {
      ArenaPause pause;
      backend.reset();
      failed_wal = persist != nullptr && persist->status().failed;
    }
    if (failed_wal) {
      // The reset happened in memory but its marker never reached the WAL
      // (the failure is sticky), so recovery would resurrect the pre-reset
      // state — don't ack it, matching the invoke path's no-unlogged-ack
      // rule.
      return error_reply(500, "InternalError",
                         "write-ahead log append failed; reset is not durable");
    }
    Value reply = Value::empty_map();
    reply.set("status", Value("reset"));
    return RouteReply{200, std::move(reply)};
  }
  if (method == "POST" && path == "/invoke") {
    JsonError jerr;
    auto doc = parse_body(&jerr);
    if (!doc || !doc->is_map()) {
      return error_reply(400, "MalformedRequest",
                         doc ? "request body must be a JSON object" : jerr.to_text());
    }
    const Value* action = doc->get("Action");
    if (action == nullptr || !action->is_str() || action->as_str().empty()) {
      return error_reply(400, "MalformedRequest", "missing \"Action\"");
    }
    ApiRequest api_req;
    api_req.api = action->as_str();
    if (const Value* params = doc->get("Params")) {
      if (!params->is_map()) {
        return error_reply(400, "MalformedRequest", "\"Params\" must be an object");
      }
      // Id re-tagging happens in the stack's validate layer, not here.
      api_req.args = params->as_map();
    }
    ApiResponse result;
    {
      ArenaPause pause;
      result = backend.invoke(api_req);
    }
    if (result.ok) {
      Value reply = Value::empty_map();
      reply.set("Data", std::move(result.data));
      return RouteReply{200, std::move(reply)};
    }
    int status = result.code == "RequestLimitExceeded" ? 429
                 : result.code == "InternalError"      ? 500
                                                       : 400;
    return error_reply(status, result.code, result.message);
  }
  if (path == "/invoke" || path == "/reset" || path == "/health" ||
      path == "/snapshot" || path == "/metrics") {
    return error_reply(405, "MethodNotAllowed",
                       strf(method, " not supported on ", path));
  }
  return error_reply(404, "NoSuchEndpoint", strf("unknown path ", path));
}

}  // namespace

HttpResponse handle_emulator_request(CloudBackend& backend, const HttpRequest& req,
                                     persist::PersistManager* persist,
                                     const HttpServer* server, bool virtual_time) {
  RouteReply reply =
      route_emulator_request(backend, req.method, req.path, req.body, persist, server,
                             virtual_time, /*fast_decode=*/false);
  HttpResponse resp;
  resp.status = reply.status;
  resp.headers["content-type"] = "application/json";
  resp.body = to_json(reply.body);
  return resp;
}

namespace {

stack::StackConfig with_journal(stack::StackConfig config,
                                persist::PersistManager* persist) {
  if (persist != nullptr) {
    config.journal = [persist] {
      return std::make_unique<persist::JournalLayer>(persist);
    };
  }
  return config;
}

}  // namespace

EmulatorEndpoint::EmulatorEndpoint(CloudBackend& backend, stack::StackConfig config,
                                   persist::PersistManager* persist,
                                   HttpServerOptions http, bool virtual_time)
    : stack_(stack::build_stack(backend, with_journal(std::move(config), persist))),
      persist_(persist),
      virtual_time_(virtual_time),
      server_(
          [this](const HttpRequest& req) {
            return handle_emulator_request(stack_, req, persist_, &server_,
                                           virtual_time_);
          },
          http) {
  // Zero-copy serving path (gated at runtime by http.wire_fastpath): route
  // under a per-io-thread request arena, render head + JSON body straight
  // into the connection's output buffer. The RouteReply must die before
  // the arena rewinds — hence the inner scope.
  server_.set_wire_handler(
      [this](const RequestView& req, bool keep_alive, ResponseWriter& writer) {
        static thread_local Arena arena;
        {
          ArenaScope scope(arena);
          RouteReply reply =
              route_emulator_request(stack_, req.method, req.path, req.body, persist_,
                                     &server_, virtual_time_, /*fast_decode=*/true);
          writer.begin(reply.status, keep_alive, /*json_body=*/true);
          append_json(reply.body, writer.body());
          writer.finish();
        }
        arena.reset();
      });
}

std::uint16_t EmulatorEndpoint::start(std::uint16_t port) { return server_.start(port); }

void EmulatorEndpoint::stop() { server_.stop(); }

namespace {

ApiResponse decode_invoke_response(const HttpResponse& resp) {
  JsonError jerr;
  auto body = parse_json(resp.body, &jerr);
  if (!body || !body->is_map()) {
    return ApiResponse::failure("TransportError", jerr.to_text());
  }
  if (const Value* data = body->get("Data")) {
    // Re-tag ids so client-side alignment comparisons keep working.
    Value tagged = [&] {
      Value::Map out;
      for (const auto& [k, v] : data->as_map()) {
        out.emplace(k, v.is_str() && looks_like_resource_id(v.as_str())
                           ? Value::ref(v.as_str())
                           : v);
      }
      return Value(std::move(out));
    }();
    return ApiResponse::success(std::move(tagged));
  }
  if (const Value* err = body->get("Error")) {
    return ApiResponse::failure(
        std::string(err->get_or("Code", Value("UnknownError")).as_str()),
        std::string(err->get_or("Message", Value("")).as_str()));
  }
  return ApiResponse::failure("TransportError", "response had neither Data nor Error");
}

std::string invoke_request_body(const std::string& action, const Value::Map& params) {
  Value::Map doc;
  doc["Action"] = Value(action);
  doc["Params"] = Value(params);
  return to_json(Value(std::move(doc)));
}

}  // namespace

ApiResponse invoke_over_client(HttpClient& client, const std::string& action,
                               const Value::Map& params, bool keep_alive) {
  auto resp = client.request("POST", "/invoke", invoke_request_body(action, params),
                             keep_alive);
  if (!resp) return ApiResponse::failure("TransportError", "no response from endpoint");
  return decode_invoke_response(*resp);
}

bool send_invoke(HttpClient& client, const std::string& action,
                 const Value::Map& params, bool keep_alive) {
  return client.send_request("POST", "/invoke", invoke_request_body(action, params),
                             keep_alive);
}

ApiResponse read_invoke_response(HttpClient& client) {
  auto resp = client.read_response();
  if (!resp) return ApiResponse::failure("TransportError", "no response from endpoint");
  return decode_invoke_response(*resp);
}

ApiResponse invoke_over_http(std::uint16_t port, const std::string& action,
                             const Value::Map& params) {
  HttpClient client(port);
  return invoke_over_client(client, action, params, /*keep_alive=*/false);
}

}  // namespace lce::server
