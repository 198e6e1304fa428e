// The fragment directory behind `--shard i/k` and `--join`.
//
// A `--shard` slice executes its static share of the plan in one pass and
// publishes each shard as a fragment file in a board directory under the
// shared `ResultCache` directory; `--join` later loads every fragment and
// assembles the artifacts.  Fragments are written temp + rename, so a
// reader only ever sees a whole file.  A traced slice publishes its spans
// as one `.trace` sidecar next to its last fragment.
//
// Process fleets (`--workers N`, `--coordinator`) lease their shards from
// the TCP board in service/coordinator.hpp.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "experiments/shard.hpp"

namespace dlsched::experiments {

/// The fragment files of one shard plan.
class ShardBoard {
 public:
  /// Opens (creating if needed) the board directory.
  explicit ShardBoard(std::string directory);

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

  /// Publishes a serialized result as the shard's fragment (temp +
  /// rename).
  void publish(const CompiledShard& shard, const std::string& serialized,
               const std::string& worker_id);

  /// Loads and parses the shard's fragment; nullopt when absent or torn.
  [[nodiscard]] std::optional<ShardResult> load(
      const CompiledShard& shard) const;

  /// Publishes an encoded `obs` trace as the shard's sidecar file
  /// (`<id>.part.trace`, temp + rename).  Best effort: tracing never
  /// fails a run, so write errors are swallowed.
  void publish_trace(const CompiledShard& shard, const std::string& encoded,
                     const std::string& worker_id) const;

  /// Reads the shard's trace sidecar; nullopt when absent (the normal
  /// case for untraced runs).
  [[nodiscard]] std::optional<std::string> load_trace(
      const CompiledShard& shard) const;

 private:
  [[nodiscard]] std::string fragment_path(const CompiledShard& shard) const;

  std::string directory_;
};

/// The board directory a plan lives under: inside the shared cache
/// directory, named by spec and plan fingerprint so different specs, axes
/// or `--quick` states never mix fragments.
[[nodiscard]] std::string board_directory(
    const std::string& cache_dir, const ExperimentSpec& spec,
    const std::vector<CompiledShard>& shards);

}  // namespace dlsched::experiments
