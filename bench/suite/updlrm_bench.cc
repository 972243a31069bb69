// updlrm_bench: runs one workload of the repo benchmark per process.
//
//   updlrm_bench --workload=NAME --seed=N [--threads=4] [--seconds=10]
//                [--traced=DIR] [--scale=full|smoke]
//
// Prints "<workload> <name> <value> <unit>" lines: gen_s (input
// generation time, not a metric), one per metric, then sim_digest,
// attempted, failed and correct. Exits 1 when a
// correctness gate fails, 2 on bad flags or a failed API call.
// bench/suite/README.md lists the workloads and metrics.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#ifdef __GLIBC__  // defined by the C++ headers above
#include <malloc.h>
#endif

#include "common/cli.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace {

// Strict flag parsing: a malformed number is an error, never a default.
bool ParseNumber(const std::string& text, auto& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "updlrm_bench: %s\nusage: updlrm_bench --workload=NAME "
               "--seed=N [--threads=N] [--seconds=S] [--traced=DIR] "
               "[--scale=full|smoke]\nworkloads:",
               why.c_str());
  for (const auto& spec : updlrm::suite::Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                 spec.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace updlrm;
#ifdef __GLIBC__
  // glibc's adaptive mmap threshold keeps some freed large blocks in the
  // heap, depending on the order of frees, which moved peak RSS by up to
  // 8% between runs of one workload. With a fixed threshold every block
  // of 1 MiB or more goes back to the OS on free, and the peak tracks
  // live memory.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) return Usage(cl.status().ToString());

  const std::string name = cl->GetString("workload", "");
  const suite::WorkloadSpec* spec = suite::FindWorkload(name);
  if (spec == nullptr) return Usage("unknown workload '" + name + "'");

  suite::RunOptions options;
  if (!cl->Has("seed") ||
      !ParseNumber(cl->GetString("seed", ""), options.seed)) {
    return Usage("--seed must be a non-negative integer");
  }
  if (cl->Has("threads") &&
      !ParseNumber(cl->GetString("threads", ""), options.threads)) {
    return Usage("--threads must be a positive integer");
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (options.threads == 0 || options.threads > cores) {
    return Usage("--threads must be in [1, " + std::to_string(cores) + "]");
  }
  if (cl->Has("seconds") &&
      (!ParseNumber(cl->GetString("seconds", ""), options.seconds) ||
       options.seconds < 0.0)) {
    return Usage("--seconds must be a non-negative number");
  }
  options.traced_dir = cl->GetString("traced", "");
  const std::string scale = cl->GetString("scale", "full");
  if (scale != "full" && scale != "smoke") {
    return Usage("--scale must be full or smoke");
  }
  options.smoke = scale == "smoke";
  if (const auto unused = cl->UnusedFlags(); !unused.empty()) {
    return Usage("unknown flag --" + unused.front());
  }
  ThreadPool::SetDefaultThreads(options.threads);

  auto run = suite::RunWorkload(*spec, options);
  if (!run.ok()) {
    std::fprintf(stderr, "updlrm_bench: %s: %s\n", name.c_str(),
                 run.status().ToString().c_str());
    return 2;
  }
  std::printf("%s gen_s %.6f s\n", name.c_str(), run->gen_s);
  for (const suite::Metric& m : run->metrics) {
    std::printf("%s %s %.17g %s\n", name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s sim_digest %016llx hex\n", name.c_str(),
              static_cast<unsigned long long>(run->sim_digest));
  std::printf("%s attempted %llu count\n", name.c_str(),
              static_cast<unsigned long long>(run->attempted));
  std::printf("%s failed %llu count\n", name.c_str(),
              static_cast<unsigned long long>(run->failed));
  for (const std::string& failure : run->failures) {
    std::fprintf(stderr, "updlrm_bench: %s: FAILED %s\n", name.c_str(),
                 failure.c_str());
  }
  std::printf("%s correct %d bool\n", name.c_str(),
              run->failures.empty() ? 1 : 0);
  return run->failures.empty() ? 0 : 1;
}
