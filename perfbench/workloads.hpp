// The benchmark's workloads.
#ifndef SLUGGER_PERFBENCH_WORKLOADS_HPP_
#define SLUGGER_PERFBENCH_WORKLOADS_HPP_

#include "harness.hpp"

namespace perfbench {

/// Runs one workload. Returns false, with the reason on stderr, when the
/// workload could not be set up (nothing was measured).
bool RunWorkload(const RunConfig& config, Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // SLUGGER_PERFBENCH_WORKLOADS_HPP_
