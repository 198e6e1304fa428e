// dlsched_bench -- the one bench binary: every paper figure, ablation and
// microbenchmark is a named spec run through the experiment engine.
//
//   dlsched_bench --list-specs
//   dlsched_bench --list-generators
//   dlsched_bench --spec fig10 [--out BENCH_fig10.json] [--csv fig10.csv]
//   dlsched_bench --spec-file my_sweep.toml
//   dlsched_bench --all                       # every built-in spec
//   dlsched_bench --cache-stats [--cache-dir DIR]   # result-cache hygiene
//   dlsched_bench --spec smoke --workers 3    # 3 local TCP workers
//   dlsched_bench --spec smoke --shard 0/4    # one slice, fragments only
//   dlsched_bench --spec smoke --join         # merge published fragments
//   dlsched_bench --spec smoke --coordinator 127.0.0.1:7601   # TCP board
//   dlsched_bench --worker tcp://127.0.0.1:7601               # TCP worker
//
// `--workers N` runs the same TCP lease board as `--coordinator`, on an
// ephemeral loopback port, with N forked local workers leasing from it.
//
// `dlsched_bench --help` prints every option; any other option is an
// error.
//
// Replaces the 15 former bench/*.cpp binaries; see README "Running
// experiments" for the spec -> paper figure table.  The driver itself
// lives in src/experiments/bench_driver.cpp and is also embedded in
// dlsched_cli as the `bench` subcommand.
#include <iostream>

#include "experiments/bench_driver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlsched;
  try {
    return experiments::bench_main(
        CliArgs::parse(argc, argv, experiments::bench_flags()));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
