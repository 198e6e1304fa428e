#include "experiments/scheduler.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace dlsched::experiments {

namespace fs = std::filesystem;

ShardBoard::ShardBoard(std::string directory)
    : directory_(std::move(directory)) {
  DLSCHED_EXPECT(!directory_.empty(), "empty shard board directory");
  std::error_code ec;
  fs::create_directories(directory_, ec);
  DLSCHED_EXPECT(!ec,
                 "cannot create shard board directory '" + directory_ + "'");
}

std::string ShardBoard::fragment_path(const CompiledShard& shard) const {
  return (fs::path(directory_) / (shard.id + ".part")).string();
}

void ShardBoard::publish(const CompiledShard& shard,
                         const std::string& serialized,
                         const std::string& worker_id) {
  const fs::path target = fragment_path(shard);
  const fs::path tmp = target.string() + ".tmp." + worker_id;
  {
    std::ofstream out(tmp, std::ios::binary);
    DLSCHED_EXPECT(out.good(), "cannot write shard fragment under '" +
                                   directory_ + "'");
    out << serialized;
    // A truncated fragment renamed into place would only surface later
    // as a missing shard at --join time -- fail loudly here instead.
    out.flush();
    DLSCHED_EXPECT(out.good(), "short write publishing shard fragment '" +
                                   target.string() + "'");
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  DLSCHED_EXPECT(!ec, "cannot publish shard fragment '" + target.string() +
                          "'");
}

std::optional<ShardResult> ShardBoard::load(
    const CompiledShard& shard) const {
  std::ifstream in(fragment_path(shard), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_shard_result(text.str());
}

void ShardBoard::publish_trace(const CompiledShard& shard,
                               const std::string& encoded,
                               const std::string& worker_id) const {
  const fs::path target = fragment_path(shard) + ".trace";
  const fs::path tmp = target.string() + ".tmp." + worker_id;
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out.good()) return;
    out << encoded;
    out.flush();
    if (!out.good()) return;
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
}

std::optional<std::string> ShardBoard::load_trace(
    const CompiledShard& shard) const {
  std::ifstream in(fragment_path(shard) + ".trace", std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string board_directory(const std::string& cache_dir,
                            const ExperimentSpec& spec,
                            const std::vector<CompiledShard>& shards) {
  DLSCHED_EXPECT(!cache_dir.empty(),
                 "distributed execution needs a cache directory (the shard "
                 "board lives inside it)");
  return (fs::path(cache_dir) /
          ("board-" + spec.name + "-" + plan_fingerprint(shards)))
      .string();
}

}  // namespace dlsched::experiments
