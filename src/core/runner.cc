#include "core/runner.h"

#include "exec/executor.h"

namespace objrep {

Status RunWorkload(Strategy* strategy, ComplexDatabase* db,
                   const std::vector<Query>& queries, RunResult* out) {
  *out = RunResult{};
  Executor exec(db);
  RunWindow window(&exec);
  for (const Query& q : queries) {
    IoCounters before = db->disk->counters();
    OBJREP_RETURN_NOT_OK(RunQuery(&exec, strategy, q, out));
    uint64_t& io = q.kind == Query::Kind::kRetrieve ? out->retrieve_io
                                                    : out->update_io;
    io += (db->disk->counters() - before).total();
  }
  return window.Close(out);
}

}  // namespace objrep
