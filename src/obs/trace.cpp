#include "obs/trace.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/error.hpp"

namespace dlsched::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escape: quotes, backslashes and control bytes.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Deterministic span order: by start, longer (enclosing) spans first
/// on ties, then lane / category / name as final tie-breaks.
void sort_spans(std::vector<SpanRecord>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return std::make_tuple(a.start_us, b.end_us, a.lane,
                                     std::cref(a.category),
                                     std::cref(a.name)) <
                     std::make_tuple(b.start_us, a.end_us, b.lane,
                                     std::cref(b.category),
                                     std::cref(b.name));
            });
}

}  // namespace

// ------------------------------------------------------------------ Tracer --

Tracer& Tracer::instance() {
  static Tracer* tracer = [] {
    auto* created = new Tracer();
    // Held across fork() like util/fork_safety.hpp's mutexes, but as one
    // handler: `relabel_after_fork` takes the registry and every buffer
    // mutex, and they lock in the one order every other path uses --
    // registry, then buffers.
    const auto lock = [] {
      Tracer& self = instance();
      self.registry_mutex_.lock();
      for (const std::shared_ptr<ThreadBuffer>& buffer : self.buffers_) {
        buffer->mutex.lock();
      }
    };
    const auto unlock = [] {
      Tracer& self = instance();
      for (const std::shared_ptr<ThreadBuffer>& buffer : self.buffers_) {
        buffer->mutex.unlock();
      }
      self.registry_mutex_.unlock();
    };
    ::pthread_atfork(lock, unlock, unlock);
    return created;
  }();
  return *tracer;
}

namespace {
// Built before main (see util/fork_safety.hpp).
[[maybe_unused]] const Tracer& g_tracer = Tracer::instance();
}  // namespace

void Tracer::enable(std::string process_label) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->spans.clear();
  }
  process_label_ = std::move(process_label);
  spans_recorded_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() {
  enabled_.store(false, std::memory_order_release);
}

void Tracer::relabel_after_fork(std::string process_label) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->spans.clear();
  }
  process_label_ = std::move(process_label);
  spans_recorded_.store(0, std::memory_order_relaxed);
}

std::string Tracer::process_label() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return process_label_;
}

std::uint64_t Tracer::now_us() const noexcept {
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  const std::int64_t delta = steady_ns() - epoch;
  return delta > 0 ? static_cast<std::uint64_t>(delta) / 1000u : 0u;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    buffer->lane = next_lane_++;
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::record(const char* category, std::string name,
                    std::uint64_t start_us, std::uint64_t end_us) {
  if (end_us < start_us) end_us = start_us;
  ThreadBuffer& buffer = local_buffer();
  {
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    SpanRecord span;
    span.start_us = start_us;
    span.end_us = end_us;
    span.lane = buffer.lane;
    span.category = category;
    span.name = std::move(name);
    buffer.spans.push_back(std::move(span));
  }
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
}

ProcessTrace Tracer::drain() {
  ProcessTrace trace;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  trace.process = process_label_;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (SpanRecord& span : buffer->spans) {
      trace.spans.push_back(std::move(span));
    }
    buffer->spans.clear();
  }
  sort_spans(trace.spans);
  return trace;
}

// ----------------------------------------------------------------- ObsSpan --

void ObsSpan::finish() noexcept {
  if (!active_) return;
  active_ = false;
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  try {
    tracer.record(category_,
                  dynamic_.empty() ? std::string(literal_)
                                   : std::move(dynamic_),
                  start_us_, tracer.now_us());
  } catch (...) {
    // Tracing must never take the run down; a lost span is acceptable.
  }
}

// ------------------------------------------------------------ JSON export --

std::string render_trace_json(const std::vector<ProcessTrace>& processes) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out << ',';
    first = false;
    out << '\n' << event;
  };
  for (std::size_t p = 0; p < processes.size(); ++p) {
    std::ostringstream meta;
    meta << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << (p + 1)
         << ",\"tid\":0,\"args\":{\"name\":"
         << json_escape(processes[p].process) << "}}";
    emit(meta.str());
  }
  for (std::size_t p = 0; p < processes.size(); ++p) {
    for (const SpanRecord& span : processes[p].spans) {
      std::ostringstream event;
      event << "{\"name\":" << json_escape(span.name)
            << ",\"cat\":" << json_escape(span.category)
            << ",\"ph\":\"X\",\"pid\":" << (p + 1)
            << ",\"tid\":" << span.lane << ",\"ts\":" << span.start_us
            << ",\"dur\":" << (span.end_us - span.start_us) << "}";
      emit(event.str());
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

// ----------------------------------------------------------------- codec --

namespace {
constexpr const char* kTraceMagic = "dlsched-obs-trace";
constexpr int kTraceVersion = 1;
constexpr std::size_t kMaxTraceSpans = std::size_t{1} << 22;

std::string get_sized(std::istream& in, const char* what) {
  std::size_t length = 0;
  in >> length;
  DLSCHED_EXPECT(in.good() && length <= (std::size_t{1} << 20),
                 std::string("obs trace: implausible ") + what + " length");
  in.ignore(1);
  std::string text(length, '\0');
  in.read(text.data(), static_cast<std::streamsize>(length));
  DLSCHED_EXPECT(in.good(),
                 std::string("obs trace: truncated ") + what);
  return text;
}
}  // namespace

std::string encode_trace(const ProcessTrace& trace) {
  std::ostringstream out;
  out << kTraceMagic << ' ' << kTraceVersion << '\n';
  out << "process " << trace.process.size() << ' ' << trace.process << '\n';
  out << "spans " << trace.spans.size() << '\n';
  for (const SpanRecord& span : trace.spans) {
    out << span.start_us << ' ' << span.end_us << ' ' << span.lane << ' '
        << span.category << ' ' << span.name.size() << ' ' << span.name
        << '\n';
  }
  out << "end\n";
  return out.str();
}

ProcessTrace decode_trace(const std::string& body) {
  std::istringstream in(body);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  DLSCHED_EXPECT(magic == kTraceMagic && version == kTraceVersion &&
                     in.good(),
                 "obs trace: bad header");
  in.ignore(1);
  std::string label;
  in >> label;
  DLSCHED_EXPECT(label == "process" && in.good(),
                 "obs trace: expected process label");
  ProcessTrace trace;
  trace.process = get_sized(in, "process label");
  in >> label;
  DLSCHED_EXPECT(label == "spans" && in.good(),
                 "obs trace: expected span count");
  std::size_t count = 0;
  in >> count;
  DLSCHED_EXPECT(in.good() && count <= kMaxTraceSpans,
                 "obs trace: implausible span count");
  in.ignore(1);
  trace.spans.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SpanRecord span;
    in >> span.start_us >> span.end_us >> span.lane >> span.category;
    DLSCHED_EXPECT(in.good(), "obs trace: truncated span");
    span.name = get_sized(in, "span name");
    trace.spans.push_back(std::move(span));
  }
  in >> label;
  DLSCHED_EXPECT(label == "end" && !in.fail(),
                 "obs trace: missing end marker");
  return trace;
}

void merge_process_trace(std::vector<ProcessTrace>& traces,
                         ProcessTrace incoming) {
  for (ProcessTrace& existing : traces) {
    if (existing.process != incoming.process) continue;
    for (SpanRecord& span : incoming.spans) {
      existing.spans.push_back(std::move(span));
    }
    sort_spans(existing.spans);
    return;
  }
  sort_spans(incoming.spans);
  traces.push_back(std::move(incoming));
}

// ----------------------------------------------------------- attribution --

std::vector<PhaseAttribution> attribute_phases(
    const std::vector<ProcessTrace>& processes) {
  std::map<std::string, PhaseAttribution> by_category;
  for (const ProcessTrace& process : processes) {
    for (const SpanRecord& span : process.spans) {
      PhaseAttribution& phase = by_category[span.category];
      phase.category = span.category;
      ++phase.spans;
      phase.seconds +=
          static_cast<double>(span.end_us - span.start_us) * 1e-6;
    }
  }
  std::vector<PhaseAttribution> phases;
  phases.reserve(by_category.size());
  for (auto& [category, phase] : by_category) phases.push_back(phase);
  return phases;
}

}  // namespace dlsched::obs
