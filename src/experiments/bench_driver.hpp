// The dlsched_bench command driver, shared verbatim by the standalone
// binary (bench/dlsched_bench.cpp) and the CLI's `bench` subcommand so
// their options can never drift apart.
#pragma once

#include <string>
#include <vector>

namespace dlsched {
class CliArgs;
}

namespace dlsched::experiments {

/// The value-less options the driver understands; callers must append
/// these to their `CliArgs::parse` flag list.  `bench_main` rejects any
/// option outside its one list (what `--help` prints).
[[nodiscard]] const std::vector<std::string>& bench_flags();

/// Runs one bench invocation from parsed arguments:
///   --help | --list-specs | --list-generators | --all |
///   --spec NAME | --spec-file FILE
///   [--out FILE] [--csv FILE] [--no-json] [--no-csv]
///   [--cache-dir DIR] [--no-cache] [--cache-max-bytes N]
///   [--threads N] [--quick] [--seed N] [--repetitions N]
///   [--workers N|auto[:MAX]] [--coordinator HOST:PORT] [--lease-ttl S]
///   [--shard i/k | --join]
///   | --worker tcp://HOST:PORT [--worker-id ID] [--scratch-dir DIR]
///     [--abandon-after N]
/// Returns a process exit code (0 ok, 1 failures, 2 usage).
[[nodiscard]] int bench_main(const CliArgs& args);

}  // namespace dlsched::experiments
