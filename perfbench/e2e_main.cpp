// micco_e2e — one workload of the end-to-end benchmark, in this process.
//
//   micco_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//             --run-dir=DIR [--smoke] [--out=FILE]
//
// Prints a table of every metric with its unit and sample count, then, as
// the last line of standard output, the result as one JSON object with the
// keys correct, attempted, failed and metrics. Exits 0 only when every
// correctness check passed and no timed operation failed; 2 on bad flags.
// run.py (next to this file) builds the binary and is the usual entry.
#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "e2e.hpp"
#include "parallel/parallel.hpp"

namespace {

int usage(const char* problem) {
  std::fprintf(stderr,
               "micco_e2e: %s\n"
               "usage: micco_e2e --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --run-dir=DIR [--smoke] [--out=FILE]\n"
               "workloads: %s %s %s %s\n",
               problem, micco::e2e::kF0d4Workload,
               micco::e2e::kSynthWorkload, micco::e2e::kA1rhopiWorkload,
               micco::e2e::kTinyWorkload);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace micco::e2e;
  const micco::CliArgs args(argc, argv);
  if (args.error()) return usage(args.error()->c_str());
  Options opts;
  opts.workload = args.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.traced = args.get_int("trace", 0) != 0;
  opts.smoke = args.get_bool("smoke", false);
  opts.run_dir = args.get("run-dir", "");
  const std::string out = args.get("out", "");
  if (!args.unused().empty()) return usage("unknown flag");
  if (opts.run_dir.empty()) return usage("--run-dir is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  const bool batch = opts.workload == kF0d4Workload ||
                     opts.workload == kSynthWorkload;
  const bool daemon = opts.workload == kA1rhopiWorkload ||
                      opts.workload == kTinyWorkload;
  if (!batch && !daemon) return usage("unknown workload");

  // One worker thread: the tuner and the daemon run serially, as
  // `micco train --threads=1` and `micco serve` default to.
  micco::parallel::set_threads(1);
  Result result;
  if (batch) {
    run_batch(opts, result);
  } else {
    run_daemon(opts, result);
  }

  if (!out.empty()) {
    std::ofstream file(out);
    file << result.report(opts).dump_pretty() << "\n";
    result.check(file.good(), "report written to " + out);
  }
  result.print(stdout);
  return result.correct() && result.failed() == 0 ? 0 : 1;
}
