// Tracing half of the observability layer (src/obs/): RAII spans into
// per-thread buffers, merged across threads and processes into one
// Chrome trace_event JSON timeline (loadable in Perfetto / about:tracing).
//
// Design points:
//  - Disabled is the default and costs one relaxed atomic load per
//    `ObsSpan`; no span record is allocated (tests assert
//    `spans_recorded()` stays 0 through a full solve).
//  - Timestamps are microseconds on the monotonic clock *relative to the
//    run epoch* (`Tracer::enable` stamps it), so artifacts are small,
//    deterministic in shape, and -- because fork() copies the epoch --
//    directly comparable between the bench process and the local worker
//    fleet it spawns.
//  - Each thread appends to its own buffer under its own (uncontended)
//    mutex; the only global lock is taken on first record per thread and
//    on drain.  Buffers outlive their threads so pool workers' spans
//    survive the join.
//  - Remote processes ship their buffers as an encoded trace body (the
//    optional `trace` section of FragmentPush, or a `.trace` sidecar
//    next to a `--shard` fragment); the engine merges every
//    `ProcessTrace` into one timeline with one pid per process label.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dlsched::obs {

/// One closed span.  `category` is a short spaceless token ("solve",
/// "lease", "wire", ...) -- the per-phase attribution key; `name` is
/// free-form display text.
struct SpanRecord {
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::uint32_t lane = 0;  ///< thread lane within the recording process
  std::string category;
  std::string name;
};

/// Every span one process recorded, tagged with its display label
/// (the bench binary, "coordinator", a TCP worker id, ...).
struct ProcessTrace {
  std::string process;
  std::vector<SpanRecord> spans;
};

/// The per-process span sink.  One instance per process; `enable()`
/// turns recording on and stamps the run epoch.
class Tracer {
 public:
  static Tracer& instance();

  /// Starts recording: clears buffers, stamps the epoch, labels the
  /// process.  Idempotent re-enable restarts the run.
  void enable(std::string process_label);
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// After fork(): the child inherits the parent's buffers (and would
  /// re-ship the parent's spans).  Drops inherited spans, keeps the
  /// epoch so child timestamps stay on the parent's timeline.
  void relabel_after_fork(std::string process_label);

  [[nodiscard]] std::string process_label() const;

  /// Microseconds since the epoch (0 when never enabled).
  [[nodiscard]] std::uint64_t now_us() const noexcept;

  /// Appends a closed span to the calling thread's buffer.
  void record(const char* category, std::string name, std::uint64_t start_us,
              std::uint64_t end_us);

  /// Cumulative spans recorded since enable(); stays 0 while disabled.
  [[nodiscard]] std::uint64_t spans_recorded() const noexcept {
    return spans_recorded_.load(std::memory_order_relaxed);
  }

  /// Moves every buffered span out (deterministically ordered by
  /// (start, end, lane, category, name)) and clears the buffers;
  /// recording stays on.
  [[nodiscard]] ProcessTrace drain();

 private:
  struct ThreadBuffer {
    std::mutex mutex;
    std::uint32_t lane = 0;
    std::vector<SpanRecord> spans;
  };

  Tracer() = default;
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> spans_recorded_{0};
  std::atomic<std::int64_t> epoch_ns_{0};  ///< steady_clock since-epoch ns

  mutable std::mutex registry_mutex_;
  std::string process_label_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_lane_ = 0;
};

/// RAII span guard.  Construction with string literals allocates
/// nothing when tracing is off; call `rename()` for a dynamic name only
/// behind `active()`.
class ObsSpan {
 public:
  ObsSpan(const char* category, const char* name) noexcept
      : category_(category), literal_(name) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    active_ = true;
    start_us_ = tracer.now_us();
  }
  ~ObsSpan() { finish(); }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Replaces the display name (e.g. with the shard id); only
  /// meaningful while active, harmless otherwise.
  void rename(std::string name) {
    if (active_) dynamic_ = std::move(name);
  }

  /// Closes the span early (the destructor then does nothing).
  void finish() noexcept;

 private:
  const char* category_;
  const char* literal_;
  std::string dynamic_;
  std::uint64_t start_us_ = 0;
  bool active_ = false;
};

/// Merges per-process traces into one Chrome trace_event JSON document:
/// `{"traceEvents":[...]}` with one pid per process (named through
/// `process_name` metadata events), complete ("ph":"X") events in
/// microseconds.  Loadable in Perfetto and chrome://tracing.
[[nodiscard]] std::string render_trace_json(
    const std::vector<ProcessTrace>& processes);

/// Text codec for shipping one process's trace across the wire or as a
/// fragment sidecar file.  `decode_trace` throws on corrupt input.
[[nodiscard]] std::string encode_trace(const ProcessTrace& trace);
[[nodiscard]] ProcessTrace decode_trace(const std::string& body);

/// Folds `incoming` into `traces`, keeping one entry per process label
/// (a TCP worker ships one trace section per FragmentPush; they all
/// belong to one timeline row).  Spans are re-sorted on merge.
void merge_process_trace(std::vector<ProcessTrace>& traces,
                         ProcessTrace incoming);

/// Per-category attribution over a merged trace: span count and total
/// span seconds, name-ordered.  The bench "phase table".
struct PhaseAttribution {
  std::string category;
  std::uint64_t spans = 0;
  double seconds = 0.0;
};
[[nodiscard]] std::vector<PhaseAttribution> attribute_phases(
    const std::vector<ProcessTrace>& processes);

}  // namespace dlsched::obs
