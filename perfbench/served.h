// served_mix: the paper shape with cache and WAL on, served by an
// in-process ObjServer (2 workers) on loopback and driven open-loop.
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include "util/status.h"
#include "workloads.h"

namespace objrep {
namespace perfbench {

Status RunServedMix(const RunArgs& args, Report* report);

}  // namespace perfbench
}  // namespace objrep

#endif  // PERFBENCH_SERVED_H_
