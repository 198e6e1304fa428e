#include "service/wire.hpp"

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "experiments/emitter.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace dlsched::service {

// ------------------------------------------------------------ primitives --

void put_double(std::ostream& out, double value) {
  out << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec;
}

double get_double(std::istream& in) {
  std::uint64_t bits = 0;
  in >> std::hex >> bits >> std::dec;
  return std::bit_cast<double>(bits);
}

void put_blob(std::ostream& out, const std::string& label,
              const std::string& text) {
  out << label << ' ' << text.size() << '\n' << text << '\n';
}

/// The size and bytes of a blob whose label was already read.
std::string get_blob_text(std::istream& in, const std::string& label) {
  std::size_t size = 0;
  in >> size;
  DLSCHED_EXPECT(in.good(), "wire body: expected '" + label + "' blob");
  in.ignore(1);  // the newline after the size
  std::string text(size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(size));
  in.ignore(1);
  DLSCHED_EXPECT(in.good(), "wire body: truncated '" + label + "' blob");
  return text;
}

std::string get_blob(std::istream& in, const std::string& label) {
  std::string seen;
  in >> seen;
  DLSCHED_EXPECT(seen == label && in.good(),
                 "wire body: expected '" + label + "' blob");
  return get_blob_text(in, label);
}

/// Reads a body's optional trailing blobs up to its end marker.  An
/// optional section is on the wire only when non-empty, so a body
/// without it keeps its exact bytes; `sections` names each label's
/// destination.
void get_optional_blobs(
    std::istream& in, const char* what,
    std::initializer_list<std::pair<const char*, std::string*>> sections) {
  for (;;) {
    std::string label;
    in >> label;
    DLSCHED_EXPECT(!in.fail(), std::string("wire body: missing ") + what +
                                   " end marker");
    if (label == "end") return;
    const auto section =
        std::find_if(sections.begin(), sections.end(),
                     [&label](const auto& entry) {
                       return label == entry.first;
                     });
    DLSCHED_EXPECT(section != sections.end(),
                   std::string("wire body: missing ") + what +
                       " end marker");
    *section->second = get_blob_text(in, label);
  }
}

void put_indices(std::ostream& out, const std::string& label,
                 const std::vector<std::size_t>& values) {
  out << label << ' ' << values.size();
  for (const std::size_t v : values) out << ' ' << v;
  out << '\n';
}

std::vector<std::size_t> get_indices(std::istream& in,
                                     const std::string& label) {
  std::string seen;
  std::size_t count = 0;
  in >> seen >> count;
  DLSCHED_EXPECT(seen == label && in.good(),
                 "wire body: expected '" + label + "' list");
  std::vector<std::size_t> values(count);
  for (std::size_t& v : values) in >> v;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated '" + label + "' list");
  return values;
}

void put_doubles(std::ostream& out, const std::string& label,
                 const std::vector<double>& values) {
  out << label << ' ' << values.size();
  for (const double v : values) {
    out << ' ';
    put_double(out, v);
  }
  out << '\n';
}

std::vector<double> get_doubles(std::istream& in, const std::string& label) {
  std::string seen;
  std::size_t count = 0;
  in >> seen >> count;
  DLSCHED_EXPECT(seen == label && in.good(),
                 "wire body: expected '" + label + "' list");
  std::vector<double> values(count);
  for (double& v : values) v = get_double(in);
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated '" + label + "' list");
  return values;
}

namespace {

/// Shared header check for the versioned text bodies.
void expect_body_header(std::istream& in, const std::string& magic,
                        int version) {
  std::string seen;
  int seen_version = 0;
  in >> seen >> seen_version;
  DLSCHED_EXPECT(seen == magic && seen_version == version && in.good(),
                 "wire body: expected '" + magic + " " +
                     std::to_string(version) + "' header");
  in.ignore(1);
}

std::string expect_label(std::istream& in, const std::string& label,
                         const char* what) {
  std::string seen;
  in >> seen;
  DLSCHED_EXPECT(seen == label && in.good(),
                 std::string("wire body: expected ") + what);
  return seen;
}

}  // namespace

// ------------------------------------------------------------ the record --

SolveRecord record_from_outcome(const BatchOutcome& outcome) {
  SolveRecord record;
  record.solver = outcome.solver;
  record.solved = outcome.solved;
  record.validated = outcome.ok;
  record.error = outcome.error;
  record.validate_seconds = outcome.validate_seconds;
  if (!outcome.solved) return record;
  const SolveResult& result = outcome.result;
  record.throughput = result.throughput();
  record.alpha = result.solution.alpha_double();
  record.send_order = result.solution.scenario.send_order;
  record.return_order = result.solution.scenario.return_order;
  record.workers_used = result.solution.enrolled().size();
  record.provably_optimal = result.provably_optimal;
  record.mirrored = result.mirrored;
  record.used_two_port = result.used_two_port;
  record.exact = result.exact;
  record.budget_exhausted = result.budget_exhausted;
  record.has_alt = result.alt_throughput.has_value();
  if (record.has_alt) {
    record.alt_throughput = result.alt_throughput->to_double();
  }
  record.scenarios_tried = result.scenarios_tried;
  record.lp_evaluations = result.lp_evaluations;
  record.best_rounds = result.best_rounds;
  record.lp_pivots = result.solution.lp_pivots;
  record.lp_fallbacks = result.lp_fallbacks;
  record.subsets_pruned = result.subsets_pruned;
  record.subsets_screened = result.subsets_screened;
  record.arena_acquires = result.arena_acquires;
  record.arena_pool_hits = result.arena_pool_hits;
  record.wall_seconds = result.wall_seconds;
  record.participants = result.participants;
  record.replayed = result.replayed;
  record.replay_makespan = result.replay_makespan;
  record.replay_rel_error = result.replay_rel_error;
  return record;
}

void append_result_fields(experiments::JsonObject& row,
                          const SolveRecord& s) {
  DLSCHED_EXPECT(s.solved, "append_result_fields wants a solved record");
  // The canonical field order.  The grid baselines were emitted with this
  // sequence; keep appends at the end so committed artifacts stay
  // comparable across PRs.
  row.add("throughput", s.throughput)
      .add("workers_used", s.workers_used)
      .add("validated", s.validated)
      .add("provably_optimal", s.provably_optimal)
      .add("exact", s.exact)
      .add("scenarios_tried", s.scenarios_tried)
      .add("lp_evaluations", s.lp_evaluations)
      .add("lp_pivots", s.lp_pivots)
      .add("lp_fallbacks", s.lp_fallbacks)
      .add("subsets_pruned", s.subsets_pruned)
      .add("subsets_screened", s.subsets_screened)
      .add("arena_acquires", static_cast<std::size_t>(s.arena_acquires))
      .add("arena_pool_hits", static_cast<std::size_t>(s.arena_pool_hits));
  if (!s.participants.empty()) {
    row.add_raw("participants",
                experiments::json_index_array(s.participants));
  }
  if (s.replayed) {
    row.add("replay_makespan", s.replay_makespan)
        .add("replay_rel_error", s.replay_rel_error);
  }
  if (s.has_alt) row.add("alt_throughput", s.alt_throughput);
  row.add("wall_seconds", s.wall_seconds)
      .add("validate_seconds", s.validate_seconds);
}

// ----------------------------------------------------------- result body --

namespace {
constexpr const char* kResultMagic = "dlsched-wire-result";
// Version 2 dropped the two warm-start counters and the request's warm hint.
constexpr int kResultVersion = 2;
constexpr const char* kRequestMagic = "dlsched-wire-request";
constexpr int kRequestVersion = 2;
constexpr const char* kRejectMagic = "dlsched-wire-reject";
constexpr int kRejectVersion = 1;
}  // namespace

std::string encode_result_body(const SolveRecord& s) {
  std::ostringstream out;
  out << kResultMagic << ' ' << kResultVersion << '\n';
  put_blob(out, "solver", s.solver);
  put_blob(out, "error", s.error);
  out << "flags " << s.solved << ' ' << s.validated << ' '
      << s.provably_optimal << ' ' << s.mirrored << ' ' << s.used_two_port
      << ' ' << s.exact << ' ' << s.budget_exhausted << ' ' << s.has_alt
      << ' ' << s.replayed << '\n';
  out << "counts " << s.workers_used << ' ' << s.scenarios_tried << ' '
      << s.lp_evaluations << ' ' << s.best_rounds << ' ' << s.lp_pivots
      << ' ' << s.lp_fallbacks << ' ' << s.subsets_pruned << ' '
      << s.subsets_screened << ' ' << s.arena_acquires << ' '
      << s.arena_pool_hits << '\n';
  out << "scalars ";
  put_double(out, s.throughput);
  out << ' ';
  put_double(out, s.alt_throughput);
  out << ' ';
  put_double(out, s.wall_seconds);
  out << ' ';
  put_double(out, s.validate_seconds);
  out << ' ';
  put_double(out, s.replay_makespan);
  out << ' ';
  put_double(out, s.replay_rel_error);
  out << '\n';
  put_doubles(out, "alpha", s.alpha);
  put_indices(out, "send", s.send_order);
  put_indices(out, "ret", s.return_order);
  put_indices(out, "part", s.participants);
  out << "end\n";
  return out.str();
}

SolveRecord decode_result_body(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kResultMagic, kResultVersion);
  SolveRecord s;
  s.solver = get_blob(in, "solver");
  s.error = get_blob(in, "error");
  expect_label(in, "flags", "flags");
  in >> s.solved >> s.validated >> s.provably_optimal >> s.mirrored >>
      s.used_two_port >> s.exact >> s.budget_exhausted >> s.has_alt >>
      s.replayed;
  expect_label(in, "counts", "counts");
  in >> s.workers_used >> s.scenarios_tried >> s.lp_evaluations >>
      s.best_rounds >> s.lp_pivots >> s.lp_fallbacks >> s.subsets_pruned >>
      s.subsets_screened >>
      s.arena_acquires >> s.arena_pool_hits;
  expect_label(in, "scalars", "scalars");
  s.throughput = get_double(in);
  s.alt_throughput = get_double(in);
  s.wall_seconds = get_double(in);
  s.validate_seconds = get_double(in);
  s.replay_makespan = get_double(in);
  s.replay_rel_error = get_double(in);
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated result scalars");
  s.alpha = get_doubles(in, "alpha");
  s.send_order = get_indices(in, "send");
  s.return_order = get_indices(in, "ret");
  s.participants = get_indices(in, "part");
  std::string label;
  in >> label;
  DLSCHED_EXPECT(label == "end" && !in.fail(),
                 "wire body: missing result end marker");
  return s;
}

// ---------------------------------------------------------- request body --

std::string encode_request_body(const std::string& solver,
                                const SolveRequest& r) {
  std::ostringstream out;
  out << kRequestMagic << ' ' << kRequestVersion << '\n';
  put_blob(out, "solver", solver);
  out << "workers " << r.platform.size() << '\n';
  for (const Worker& w : r.platform.workers()) {
    put_blob(out, "name", w.name);
    out << "cwd ";
    put_double(out, w.c);
    out << ' ';
    put_double(out, w.w);
    out << ' ';
    put_double(out, w.d);
    out << '\n';
  }
  out << "scenario " << r.scenario.has_value() << '\n';
  if (r.scenario) {
    put_indices(out, "send", r.scenario->send_order);
    put_indices(out, "ret", r.scenario->return_order);
  }
  put_indices(out, "participants", r.participants);
  out << "two_port " << r.two_port << '\n';
  out << "precision " << (r.precision == Precision::Exact ? 'e' : 'f')
      << '\n';
  out << "costs ";
  put_double(out, r.costs.send_latency);
  out << ' ';
  put_double(out, r.costs.compute_latency);
  out << ' ';
  put_double(out, r.costs.return_latency);
  out << '\n';
  put_doubles(out, "send_lat_pw", r.costs.send_latency_per_worker);
  put_doubles(out, "ret_lat_pw", r.costs.return_latency_per_worker);
  out << "scalars ";
  put_double(out, r.horizon);
  out << ' ';
  put_double(out, r.time_budget_seconds);
  out << ' ' << r.seed << '\n';
  out << "guards " << r.max_workers_brute << ' ' << r.max_workers_subset
      << ' ' << r.local_search_restarts << ' ' << r.local_search_max_steps
      << ' ' << r.max_rounds << '\n';
  out << "end\n";
  return out.str();
}

WireRequest decode_request_body(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kRequestMagic, kRequestVersion);
  WireRequest wire;
  wire.solver = get_blob(in, "solver");
  SolveRequest& r = wire.request;
  std::size_t worker_count = 0;
  expect_label(in, "workers", "worker count");
  in >> worker_count;
  DLSCHED_EXPECT(in.good() && worker_count <= 1u << 20,
                 "wire body: implausible worker count");
  in.ignore(1);
  std::vector<Worker> workers;
  workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    Worker w;
    w.name = get_blob(in, "name");
    expect_label(in, "cwd", "worker costs");
    w.c = get_double(in);
    w.w = get_double(in);
    w.d = get_double(in);
    DLSCHED_EXPECT(!in.fail(), "wire body: truncated worker costs");
    workers.push_back(std::move(w));
  }
  // The StarPlatform constructor re-validates (c > 0, w > 0, d >= 0), so a
  // malformed request fails here, not deep inside a solver.
  r.platform = StarPlatform(std::move(workers));
  bool has_scenario = false;
  expect_label(in, "scenario", "scenario presence");
  in >> has_scenario;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated scenario flag");
  if (has_scenario) {
    const std::vector<std::size_t> send = get_indices(in, "send");
    const std::vector<std::size_t> ret = get_indices(in, "ret");
    r.scenario = Scenario::general(send, ret);
  }
  r.participants = get_indices(in, "participants");
  expect_label(in, "two_port", "two_port");
  in >> r.two_port;
  char precision = 'e';
  expect_label(in, "precision", "precision");
  in >> precision;
  DLSCHED_EXPECT(precision == 'e' || precision == 'f',
                 "wire body: precision must be 'e' or 'f'");
  r.precision = precision == 'e' ? Precision::Exact : Precision::Fast;
  expect_label(in, "costs", "costs");
  r.costs.send_latency = get_double(in);
  r.costs.compute_latency = get_double(in);
  r.costs.return_latency = get_double(in);
  r.costs.send_latency_per_worker = get_doubles(in, "send_lat_pw");
  r.costs.return_latency_per_worker = get_doubles(in, "ret_lat_pw");
  expect_label(in, "scalars", "request scalars");
  r.horizon = get_double(in);
  r.time_budget_seconds = get_double(in);
  in >> r.seed;
  expect_label(in, "guards", "guards");
  in >> r.max_workers_brute >> r.max_workers_subset >>
      r.local_search_restarts >> r.local_search_max_steps >> r.max_rounds;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated guards");
  std::string label;
  in >> label;
  DLSCHED_EXPECT(label == "end" && !in.fail(),
                 "wire body: missing request end marker");
  return wire;
}

// ----------------------------------------------------------- reject body --

std::string encode_reject_body(const RejectInfo& info) {
  std::ostringstream out;
  out << kRejectMagic << ' ' << kRejectVersion << '\n';
  out << "retry_after_ms ";
  put_double(out, info.retry_after_ms);
  out << '\n';
  put_blob(out, "reason", info.reason);
  out << "end\n";
  return out.str();
}

RejectInfo decode_reject_body(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kRejectMagic, kRejectVersion);
  RejectInfo info;
  expect_label(in, "retry_after_ms", "retry_after_ms");
  info.retry_after_ms = get_double(in);
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated reject");
  info.reason = get_blob(in, "reason");
  std::string label;
  in >> label;
  DLSCHED_EXPECT(label == "end" && !in.fail(),
                 "wire body: missing reject end marker");
  return info;
}

// --------------------------------------------------- cluster lease bodies --

namespace {
constexpr const char* kLeaseRequestMagic = "dlsched-wire-lease-req";
// v2: kind, worker, shard, id, then the optional token (v1 had a flag
// line between worker and shard).
constexpr int kLeaseRequestVersion = 2;
constexpr const char* kLeaseGrantMagic = "dlsched-wire-lease-grant";
constexpr int kLeaseGrantVersion = 1;
constexpr const char* kFragmentMagic = "dlsched-wire-fragment";
constexpr int kFragmentVersion = 1;
constexpr const char* kAckMagic = "dlsched-wire-ack";
constexpr int kAckVersion = 1;

void put_entries(std::ostream& out,
                 const std::vector<WireCacheEntry>& entries) {
  out << "records " << entries.size() << '\n';
  for (const WireCacheEntry& entry : entries) {
    put_blob(out, "hash", entry.hash);
    put_blob(out, "key", entry.key);
    put_blob(out, "body", entry.body);
  }
}

std::vector<WireCacheEntry> get_entries(std::istream& in) {
  std::size_t count = 0;
  expect_label(in, "records", "record count");
  in >> count;
  DLSCHED_EXPECT(in.good() && count <= 1u << 24,
                 "wire body: implausible record count");
  in.ignore(1);
  std::vector<WireCacheEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    WireCacheEntry entry;
    entry.hash = get_blob(in, "hash");
    entry.key = get_blob(in, "key");
    entry.body = get_blob(in, "body");
    entries.push_back(std::move(entry));
  }
  return entries;
}

void expect_end(std::istream& in, const char* what) {
  std::string label;
  in >> label;
  DLSCHED_EXPECT(label == "end" && !in.fail(),
                 std::string("wire body: missing ") + what + " end marker");
}

}  // namespace

std::string encode_lease_request(const LeaseRequestBody& body) {
  std::ostringstream out;
  out << kLeaseRequestMagic << ' ' << kLeaseRequestVersion << '\n';
  out << "kind " << (body.kind == LeaseRequestBody::Kind::Acquire ? 'a' : 'r')
      << '\n';
  put_blob(out, "worker", body.worker_id);
  out << "shard " << body.shard_index << '\n';
  put_blob(out, "id", body.shard_id);
  if (!body.fleet_token.empty()) put_blob(out, "token", body.fleet_token);
  out << "end\n";
  return out.str();
}

LeaseRequestBody decode_lease_request(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kLeaseRequestMagic, kLeaseRequestVersion);
  LeaseRequestBody request;
  char kind = 'a';
  expect_label(in, "kind", "lease-request kind");
  in >> kind;
  DLSCHED_EXPECT(kind == 'a' || kind == 'r',
                 "wire body: lease-request kind must be 'a' or 'r'");
  request.kind = kind == 'a' ? LeaseRequestBody::Kind::Acquire
                             : LeaseRequestBody::Kind::Renew;
  in.ignore(1);
  request.worker_id = get_blob(in, "worker");
  expect_label(in, "shard", "shard index");
  in >> request.shard_index;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated lease request");
  in.ignore(1);
  request.shard_id = get_blob(in, "id");
  get_optional_blobs(in, "lease-request",
                     {{"token", &request.fleet_token}});
  return request;
}

std::string encode_lease_grant(const LeaseGrantBody& body) {
  std::ostringstream out;
  out << kLeaseGrantMagic << ' ' << kLeaseGrantVersion << '\n';
  char kind = 'w';
  switch (body.kind) {
    case LeaseGrantBody::Kind::Work: kind = 'w'; break;
    case LeaseGrantBody::Kind::Wait: kind = 'p'; break;  // "pause"
    case LeaseGrantBody::Kind::Done: kind = 'd'; break;
  }
  out << "kind " << kind << '\n';
  out << "retry_after_ms ";
  put_double(out, body.retry_after_ms);
  out << '\n';
  out << "shard " << body.shard_index << '\n';
  put_blob(out, "id", body.shard_id);
  put_blob(out, "fingerprint", body.plan_fingerprint);
  out << "ttl ";
  put_double(out, body.lease_ttl_seconds);
  out << '\n';
  out << "traced " << body.traced << '\n';
  put_blob(out, "spec", body.spec_toml);
  put_entries(out, body.records);
  out << "end\n";
  return out.str();
}

LeaseGrantBody decode_lease_grant(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kLeaseGrantMagic, kLeaseGrantVersion);
  LeaseGrantBody grant;
  char kind = 'p';
  expect_label(in, "kind", "lease-grant kind");
  in >> kind;
  switch (kind) {
    case 'w': grant.kind = LeaseGrantBody::Kind::Work; break;
    case 'p': grant.kind = LeaseGrantBody::Kind::Wait; break;
    case 'd': grant.kind = LeaseGrantBody::Kind::Done; break;
    default:
      DLSCHED_FAIL("wire body: unknown lease-grant kind '" +
                   std::string(1, kind) + "'");
  }
  expect_label(in, "retry_after_ms", "retry_after_ms");
  grant.retry_after_ms = get_double(in);
  expect_label(in, "shard", "shard index");
  in >> grant.shard_index;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated lease grant");
  in.ignore(1);
  grant.shard_id = get_blob(in, "id");
  grant.plan_fingerprint = get_blob(in, "fingerprint");
  expect_label(in, "ttl", "lease ttl");
  grant.lease_ttl_seconds = get_double(in);
  expect_label(in, "traced", "traced flag");
  in >> grant.traced;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated lease grant");
  in.ignore(1);
  grant.spec_toml = get_blob(in, "spec");
  grant.records = get_entries(in);
  expect_end(in, "lease-grant");
  return grant;
}

std::string encode_fragment_push(const FragmentPushBody& body) {
  std::ostringstream out;
  out << kFragmentMagic << ' ' << kFragmentVersion << '\n';
  put_blob(out, "worker", body.worker_id);
  out << "shard " << body.shard_index << '\n';
  put_blob(out, "id", body.shard_id);
  put_blob(out, "fingerprint", body.plan_fingerprint);
  put_blob(out, "fragment", body.fragment);
  put_entries(out, body.records);
  if (!body.fleet_token.empty()) put_blob(out, "token", body.fleet_token);
  if (!body.trace.empty()) put_blob(out, "trace", body.trace);
  out << "end\n";
  return out.str();
}

FragmentPushBody decode_fragment_push(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kFragmentMagic, kFragmentVersion);
  FragmentPushBody push;
  push.worker_id = get_blob(in, "worker");
  expect_label(in, "shard", "shard index");
  in >> push.shard_index;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated fragment push");
  in.ignore(1);
  push.shard_id = get_blob(in, "id");
  push.plan_fingerprint = get_blob(in, "fingerprint");
  push.fragment = get_blob(in, "fragment");
  push.records = get_entries(in);
  get_optional_blobs(in, "fragment-push",
                     {{"token", &push.fleet_token}, {"trace", &push.trace}});
  return push;
}

std::string encode_ack(const AckBody& body) {
  std::ostringstream out;
  out << kAckMagic << ' ' << kAckVersion << '\n';
  out << "ok " << body.ok << '\n';
  put_blob(out, "message", body.message);
  out << "end\n";
  return out.str();
}

AckBody decode_ack(std::string_view body) {
  std::istringstream in{std::string(body)};
  expect_body_header(in, kAckMagic, kAckVersion);
  AckBody ack;
  expect_label(in, "ok", "ack flag");
  in >> ack.ok;
  DLSCHED_EXPECT(!in.fail(), "wire body: truncated ack");
  in.ignore(1);
  ack.message = get_blob(in, "message");
  expect_end(in, "ack");
  return ack;
}

// ----------------------------------------------------------------- frames --

namespace {

constexpr std::size_t kHeaderBytes = 4 + 1 + 4;

void put_u32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[at])) |
         static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[at + 1]))
             << 8 |
         static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[at + 2]))
             << 16 |
         static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[at + 3]))
             << 24;
}

bool known_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::SolveRequest) &&
         type <= static_cast<std::uint8_t>(FrameType::Drain);
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  obs::ObsSpan span("wire", "encode_frame");
  DLSCHED_EXPECT(payload.size() <= kMaxFramePayload,
                 "frame payload exceeds kMaxFramePayload");
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  put_u32(out, kWireMagic);
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

FrameDecode try_decode_frame(std::string_view bytes) {
  obs::ObsSpan span("wire", "decode_frame");
  FrameDecode decode;
  if (bytes.size() < kHeaderBytes) {
    decode.status = DecodeStatus::NeedMore;
    return decode;
  }
  const std::uint32_t magic = get_u32(bytes, 0);
  if ((magic & ~0xffu) != kWireMagicBase) {
    decode.status = DecodeStatus::BadMagic;
    decode.error = "not a dlsched-serve frame (bad magic)";
    return decode;
  }
  decode.version = magic & 0xffu;
  if (decode.version != kWireVersion) {
    decode.status = DecodeStatus::BadVersion;
    decode.error = "wire version mismatch: peer speaks v" +
                   std::to_string(decode.version) + ", this build speaks v" +
                   std::to_string(kWireVersion);
    return decode;
  }
  const std::uint8_t type = static_cast<unsigned char>(bytes[4]);
  if (!known_type(type)) {
    decode.status = DecodeStatus::BadType;
    decode.error = "unknown frame type " + std::to_string(type);
    return decode;
  }
  const std::uint32_t length = get_u32(bytes, 5);
  if (length > kMaxFramePayload) {
    decode.status = DecodeStatus::Oversized;
    decode.error = "frame payload length " + std::to_string(length) +
                   " exceeds the " + std::to_string(kMaxFramePayload) +
                   "-byte bound";
    return decode;
  }
  if (bytes.size() < kHeaderBytes + length) {
    decode.status = DecodeStatus::NeedMore;
    return decode;
  }
  decode.status = DecodeStatus::Ok;
  decode.frame.type = static_cast<FrameType>(type);
  decode.frame.payload = std::string(bytes.substr(kHeaderBytes, length));
  decode.consumed = kHeaderBytes + length;
  return decode;
}

}  // namespace dlsched::service
