// Tests of the observability layer (src/obs/): span recording and
// cross-thread merge determinism, log2-histogram quantile bounds, the
// Chrome trace_event JSON export (validated with a hand-rolled JSON
// parser -- the artifact must parse, not just look plausible), the trace
// codec's round-trip through the FragmentPush wire section, and the
// disabled leg's zero-allocation guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/generators.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace dlsched {
namespace {

// --------------------------------------------------- minimal JSON parser --
// Just enough of RFC 8259 to *validate* the trace artifact and count /
// inspect its events: objects, arrays, strings with escapes, numbers,
// true/false/null.  Throws std::runtime_error on any malformation.

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void expect_document() {
    skip_ws();
    value();
    skip_ws();
    if (at_ != text_.size()) fail("trailing bytes after document");
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json at byte " + std::to_string(at_) + ": " +
                             why);
  }
  void skip_ws() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\n' || text_[at_] == '\r' ||
            text_[at_] == '\t')) {
      ++at_;
    }
  }
  char peek() const {
    if (at_ >= text_.size())
      throw std::runtime_error("json: unexpected end of input");
    return text_[at_];
  }
  void literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (at_ >= text_.size() || text_[at_] != *c) fail("bad literal");
      ++at_;
    }
  }
  void string() {
    if (peek() != '"') fail("expected string");
    ++at_;
    for (;;) {
      const char c = peek();
      ++at_;
      if (c == '"') return;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte");
      if (c != '\\') continue;
      const char esc = peek();
      ++at_;
      switch (esc) {
        case '"': case '\\': case '/': case 'b': case 'f':
        case 'n': case 'r': case 't':
          break;
        case 'u':
          for (int i = 0; i < 4; ++i) {
            if (std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
              fail("bad \\u escape");
            }
            ++at_;
          }
          break;
        default:
          fail("bad escape");
      }
    }
  }
  void number() {
    if (peek() == '-') ++at_;
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      fail("expected digit");
    }
    while (at_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[at_])) != 0) {
      ++at_;
    }
    if (at_ < text_.size() && text_[at_] == '.') {
      ++at_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        fail("expected fraction digit");
      }
      while (at_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[at_])) != 0) {
        ++at_;
      }
    }
    if (at_ < text_.size() && (text_[at_] == 'e' || text_[at_] == 'E')) {
      ++at_;
      if (text_[at_] == '+' || text_[at_] == '-') ++at_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        fail("expected exponent digit");
      }
      while (at_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[at_])) != 0) {
        ++at_;
      }
    }
  }
  void value() {
    switch (peek()) {
      case '{': {
        ++at_;
        skip_ws();
        if (peek() == '}') { ++at_; return; }
        for (;;) {
          skip_ws();
          string();
          skip_ws();
          if (peek() != ':') fail("expected ':'");
          ++at_;
          skip_ws();
          value();
          skip_ws();
          if (peek() == ',') { ++at_; continue; }
          if (peek() == '}') { ++at_; return; }
          fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++at_;
        skip_ws();
        if (peek() == ']') { ++at_; return; }
        for (;;) {
          skip_ws();
          value();
          skip_ws();
          if (peek() == ',') { ++at_; continue; }
          if (peek() == ']') { ++at_; return; }
          fail("expected ',' or ']'");
        }
      }
      case '"': string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

void expect_valid_json(const std::string& text) {
  JsonCursor(text).expect_document();
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// -------------------------------------------------------------- fixtures --

/// Every tracer test runs against the process singleton, so each starts
/// from a fresh enable() (clears buffers, restamps the epoch) and leaves
/// the tracer disabled and drained behind itself.
class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::instance().disable();
    (void)obs::Tracer::instance().drain();
  }
};

// ----------------------------------------------------------------- spans --

TEST_F(TracerTest, NestedSpansStayContained) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable("test");
  {
    obs::ObsSpan outer("solve", "outer");
    ASSERT_TRUE(outer.active());
    { const obs::ObsSpan inner("solve", "inner"); }
    { const obs::ObsSpan inner("solve", "inner2"); }
  }
  const obs::ProcessTrace trace = tracer.drain();
  EXPECT_EQ(trace.process, "test");
  ASSERT_EQ(trace.spans.size(), 3u);
  // Inner spans close (and therefore record) first; the enclosing span
  // still brackets them on the timeline.
  const auto outer = std::find_if(
      trace.spans.begin(), trace.spans.end(),
      [](const obs::SpanRecord& s) { return s.name == "outer"; });
  ASSERT_NE(outer, trace.spans.end());
  for (const obs::SpanRecord& span : trace.spans) {
    EXPECT_GE(span.start_us, outer->start_us);
    EXPECT_LE(span.end_us, outer->end_us);
    EXPECT_EQ(span.category, "solve");
  }
}

TEST_F(TracerTest, DrainOrdersEnclosingSpansFirstOnTies) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable("ties");
  // Recorded inner-first (how RAII guards close), same start: drain must
  // put the longer (enclosing) span first.
  tracer.record("solve", "inner", 10, 50);
  tracer.record("solve", "outer", 10, 100);
  const obs::ProcessTrace trace = tracer.drain();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "outer");
  EXPECT_EQ(trace.spans[1].name, "inner");
}

TEST_F(TracerTest, DisabledSpansAreInactiveAndFreeOfAllocations) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  const std::uint64_t before = tracer.spans_recorded();

  {
    obs::ObsSpan outer("solve", "outer");
    EXPECT_FALSE(outer.active());
    outer.rename("never stored");  // harmless no-op while inactive
    const obs::ObsSpan inner("validate", "inner");
    EXPECT_FALSE(inner.active());
  }

  // A full instrumented solve (registry span, validate span, metrics)
  // must record nothing while tracing is off.
  SolveRequest request;
  request.platform = StarPlatform::bus(0.25, 0.125, {0.5, 1.0, 2.0});
  const SolveResult result =
      SolverRegistry::instance().run("fifo_optimal", request);
  EXPECT_EQ(result.solver, "fifo_optimal");
  EXPECT_EQ(tracer.spans_recorded(), before);
}

TEST_F(TracerTest, ThreadMergeIsDeterministicAndComplete) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable("threads");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 8;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        const std::uint64_t start = t * 100 + i * 10;
        obs::Tracer::instance().record(
            "work",
            std::string("t").append(std::to_string(t)).append(":").append(
                std::to_string(i)),
            start, start + 5);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  const obs::ProcessTrace trace = tracer.drain();
  ASSERT_EQ(trace.spans.size(), kThreads * kSpansPerThread);
  // Merged order is by start time regardless of which thread finished
  // first -- the timestamps were chosen unique, so the order is total.
  for (std::size_t i = 1; i < trace.spans.size(); ++i) {
    EXPECT_LT(trace.spans[i - 1].start_us, trace.spans[i].start_us);
  }
  // Each thread's spans share one lane, and distinct threads got
  // distinct lanes.
  std::vector<std::uint32_t> lane_of_thread(kThreads, 0);
  for (const obs::SpanRecord& span : trace.spans) {
    const std::size_t t = static_cast<std::size_t>(span.name[1] - '0');
    ASSERT_LT(t, kThreads);
    if (span.name.substr(3) == "0") lane_of_thread[t] = span.lane;
  }
  for (const obs::SpanRecord& span : trace.spans) {
    const std::size_t t = static_cast<std::size_t>(span.name[1] - '0');
    EXPECT_EQ(span.lane, lane_of_thread[t]);
  }
  std::sort(lane_of_thread.begin(), lane_of_thread.end());
  EXPECT_EQ(std::unique(lane_of_thread.begin(), lane_of_thread.end()),
            lane_of_thread.end());

  // Draining again yields nothing: the buffers were moved out.
  EXPECT_TRUE(tracer.drain().spans.empty());
}

TEST_F(TracerTest, EnableRestartsTheRun) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable("first");
  tracer.record("a", "stale", 0, 1);
  tracer.enable("second");
  tracer.record("a", "fresh", 2, 3);
  const obs::ProcessTrace trace = tracer.drain();
  EXPECT_EQ(trace.process, "second");
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans.front().name, "fresh");
}

// ------------------------------------------------------------- histogram --

TEST(Log2Histogram, QuantileUpperBoundsTheSamples) {
  obs::Log2Histogram h;
  EXPECT_EQ(h.quantile_upper(0.5), 0.0);  // empty

  const std::vector<double> samples = {0.0,    5e-7,   1e-6,  3e-6,
                                       17e-6,  100e-6, 1e-3,  1.5e-3,
                                       250e-3, 2.0};
  for (const double s : samples) h.add(s);
  EXPECT_EQ(h.total(), samples.size());

  // Every sample sits at or below the bucketed upper bound of its own
  // quantile, and the bound is within 2x of the true value.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double q =
        static_cast<double>(i + 1) / static_cast<double>(sorted.size());
    const double upper = h.quantile_upper(q);
    EXPECT_LE(sorted[i], upper);
    EXPECT_LE(upper, std::max(sorted[i] * 2.0, 2e-6));
  }

  // NaN and negative samples clamp into the first bucket, never throw.
  // (1e-6 also lands there: bucket 0 covers [0us, 2us).)
  h.add(-1.0);
  h.add(std::nan(""));
  EXPECT_EQ(h.buckets()[0], 5u);  // 0.0, 5e-7, 1e-6, -1.0, NaN

  // JSON rendering is the raw bucket list and valid JSON.
  const std::string json = h.render_buckets_json();
  expect_valid_json(json);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(count_occurrences(json, ",") + 1, obs::Log2Histogram::kBuckets);
}

TEST(Log2Histogram, MergeAddsCounts) {
  obs::Log2Histogram a;
  obs::Log2Histogram b;
  a.add(1e-6);
  b.add(1e-6);
  b.add(1e-3);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.quantile_upper(1.0), b.quantile_upper(1.0));
}

TEST(MetricsRegistry, CountersGaugesHistogramsAndUptime) {
  obs::MetricsRegistry registry;
  registry.add("cache.hits");
  registry.add("cache.hits", 4);
  registry.set_gauge("board.backlog", 7);
  registry.set_gauge("board.backlog", 3);
  registry.observe("solve.latency", 1e-3);
  EXPECT_EQ(registry.counter("cache.hits"), 5u);
  EXPECT_EQ(registry.counter("never.touched"), 0u);
  EXPECT_EQ(registry.gauge("board.backlog"), 3);
  EXPECT_EQ(registry.histogram("solve.latency").total(), 1u);
  EXPECT_GE(registry.uptime_seconds(), 0.0);
  ASSERT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.counters().front().first, "cache.hits");
}

// ----------------------------------------------------------- JSON export --

TEST(TraceJson, RendersValidTraceEventJson) {
  std::vector<obs::ProcessTrace> processes(2);
  processes[0].process = "bench \"quoted\"\nname";  // must be escaped
  processes[0].spans.push_back({0, 10, 0, "run", "run:smoke"});
  processes[0].spans.push_back({2, 5, 1, "solve", "solve\twith\ttabs"});
  processes[1].process = "worker-1";
  processes[1].spans.push_back({1, 4, 0, "lease", "claim"});

  const std::string json = obs::render_trace_json(processes);
  expect_valid_json(json);
  // Two process_name metadata events plus three complete events.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 3u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);  // tabs were escaped
}

TEST(TraceJson, EmptyTraceIsStillValid) {
  const std::string json = obs::render_trace_json({});
  expect_valid_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceJson, AttributesPhasesByCategory) {
  std::vector<obs::ProcessTrace> processes(2);
  processes[0].spans.push_back({0, 10, 0, "solve", "a"});
  processes[0].spans.push_back({0, 30, 0, "lease", "b"});
  processes[1].spans.push_back({5, 25, 0, "solve", "c"});
  const std::vector<obs::PhaseAttribution> phases =
      obs::attribute_phases(processes);
  ASSERT_EQ(phases.size(), 2u);  // name-ordered: lease, solve
  EXPECT_EQ(phases[0].category, "lease");
  EXPECT_EQ(phases[0].spans, 1u);
  EXPECT_NEAR(phases[0].seconds, 30e-6, 1e-12);
  EXPECT_EQ(phases[1].category, "solve");
  EXPECT_EQ(phases[1].spans, 2u);
  EXPECT_NEAR(phases[1].seconds, 30e-6, 1e-12);
}

// ----------------------------------------------------------------- codec --

obs::ProcessTrace sample_trace() {
  obs::ProcessTrace trace;
  trace.process = "worker-7";
  trace.spans.push_back({0, 12, 0, "lease", "acquire:shard-0"});
  trace.spans.push_back({3, 9, 1, "solve", "name with spaces"});
  trace.spans.push_back({15, 15, 0, "wire", "encode_frame"});
  return trace;
}

void expect_same_trace(const obs::ProcessTrace& a,
                       const obs::ProcessTrace& b) {
  EXPECT_EQ(a.process, b.process);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].start_us, b.spans[i].start_us);
    EXPECT_EQ(a.spans[i].end_us, b.spans[i].end_us);
    EXPECT_EQ(a.spans[i].lane, b.spans[i].lane);
    EXPECT_EQ(a.spans[i].category, b.spans[i].category);
    EXPECT_EQ(a.spans[i].name, b.spans[i].name);
  }
}

TEST(TraceCodec, RoundTripsSpansExactly) {
  const obs::ProcessTrace trace = sample_trace();
  expect_same_trace(obs::decode_trace(obs::encode_trace(trace)), trace);
}

TEST(TraceCodec, RejectsCorruptBodies) {
  EXPECT_THROW((void)obs::decode_trace(""), Error);
  EXPECT_THROW((void)obs::decode_trace("not-a-trace 1\n"), Error);
  const std::string good = obs::encode_trace(sample_trace());
  EXPECT_THROW((void)obs::decode_trace(good.substr(0, good.size() / 2)),
               Error);
  std::string wrong_version = good;
  wrong_version.replace(wrong_version.find(" 1\n"), 3, " 9\n");
  EXPECT_THROW((void)obs::decode_trace(wrong_version), Error);
}

TEST(TraceCodec, MergeFoldsByProcessLabel) {
  std::vector<obs::ProcessTrace> merged;
  obs::ProcessTrace first;
  first.process = "worker-1";
  first.spans.push_back({10, 20, 0, "lease", "later"});
  obs::ProcessTrace second;
  second.process = "worker-1";
  second.spans.push_back({0, 5, 0, "lease", "earlier"});
  obs::ProcessTrace other;
  other.process = "worker-2";
  other.spans.push_back({1, 2, 0, "lease", "elsewhere"});
  obs::merge_process_trace(merged, first);
  obs::merge_process_trace(merged, other);
  obs::merge_process_trace(merged, second);
  ASSERT_EQ(merged.size(), 2u);
  ASSERT_EQ(merged[0].spans.size(), 2u);
  EXPECT_EQ(merged[0].spans[0].name, "earlier");  // re-sorted on merge
  EXPECT_EQ(merged[1].process, "worker-2");
}

// ------------------------------------------------------ wire round trip --

TEST(TraceWire, FragmentPushCarriesTheTraceSection) {
  service::FragmentPushBody push;
  push.worker_id = "worker-7";
  push.shard_index = 3;
  push.shard_id = "shard-3";
  push.plan_fingerprint = "fp";
  push.fragment = "fragment-bytes\nwith newline";
  push.trace = obs::encode_trace(sample_trace());

  const service::FragmentPushBody decoded =
      service::decode_fragment_push(service::encode_fragment_push(push));
  EXPECT_EQ(decoded.worker_id, push.worker_id);
  EXPECT_EQ(decoded.fragment, push.fragment);
  ASSERT_FALSE(decoded.trace.empty());
  expect_same_trace(obs::decode_trace(decoded.trace), sample_trace());
}

TEST(TraceWire, AbsentTraceSectionDecodesEmpty) {
  service::FragmentPushBody push;
  push.worker_id = "worker-7";
  push.shard_index = 0;
  push.shard_id = "shard-0";
  push.plan_fingerprint = "fp";
  push.fragment = "bytes";
  const std::string encoded = service::encode_fragment_push(push);
  EXPECT_EQ(encoded.find("trace "), std::string::npos);
  EXPECT_TRUE(service::decode_fragment_push(encoded).trace.empty());
}

}  // namespace
}  // namespace dlsched
