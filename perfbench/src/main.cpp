// muffin_perfbench — the repository benchmark.
//
//   muffin_perfbench --workload search|serve_zipf|serve_rpc_cold
//                    --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Inputs are generated from --seed; the program under test receives only
// the generated records. With --trace 0 the run measures the end-to-end
// metrics with tracing off; with --trace 1 it records spans around every
// call into a layer, reports the per-layer metrics, and writes the spans
// as Chrome trace_event JSON to DIR/trace_<workload>_<seed>.json. The
// last line of standard output is the JSON result. A failed correctness
// check prints the reason on standard error, reports no metrics and exits
// with status 1.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: muffin_perfbench --workload search|serve_zipf|"
               "serve_rpc_cold --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();

  perfbench::Report report;
  perfbench::Tracer tracer(options.trace);
  std::cout << "muffin_perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << options.trace << "\nhost: "
            << perfbench::host_facts() << "\n";
  try {
    if (options.workload == "search") {
      perfbench::run_search(options, report, tracer);
    } else if (options.workload == "serve_zipf") {
      perfbench::run_serve(options, false, report, tracer);
    } else if (options.workload == "serve_rpc_cold") {
      perfbench::run_serve(options, true, report, tracer);
    } else {
      return usage();
    }
    if (options.trace) {
      perfbench::span_metrics(tracer, report);
      std::cout << "\n--- spans (mean duration / mean self time, us) ---\n";
      for (const perfbench::SpanStats& s : tracer.stats()) {
        std::printf("  %-28s n=%-8zu %12.3f %12.3f\n", s.name.c_str(), s.count,
                    s.mean_us, s.mean_self_us);
      }
      const std::string path = options.out_dir + "/trace_" + options.workload +
                               "_" + std::to_string(options.seed) + ".json";
      if (tracer.write_chrome(path)) {
        std::cout << "wrote " << tracer.size() << " spans (" << tracer.dropped()
                  << " dropped) to " << path << "\n";
      }
    }
    report.print(options.trace ? perfbench::per_layer_metrics()
                               : perfbench::end_to_end_metrics(),
                 options.trace ? "metrics (traced run)" : "metrics");
  } catch (const perfbench::CheckFailure& failure) {
    std::cout.flush();
    std::cerr << "CHECK FAILED: " << failure.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cout.flush();
    std::cerr << "ERROR: " << error.what() << "\n";
    return 3;
  }
  return 0;
}
