#include "check/dataflow_audit.h"

#include <string>

namespace updlrm::check {

void AuditDataFlowShape(const DataFlowShape& shape, CheckReport* report) {
  if (shape.depth == 0 || shape.depth > kMaxPipelineDepth) {
    report->AddViolation(
        Rule::kDataFlowShape,
        "plan depth " + std::to_string(shape.depth) + " outside [1, " +
            std::to_string(kMaxPipelineDepth) + "]");
  }
  if (shape.bottom_overlap_layers > shape.bottom_layers) {
    report->AddViolation(
        Rule::kDataFlowShape,
        "bottom overlap split " +
            std::to_string(shape.bottom_overlap_layers) + " beyond the " +
            std::to_string(shape.bottom_layers) + "-layer bottom stack");
  }
  if (!shape.gpu_available && (shape.bottom_on_gpu || shape.top_on_gpu)) {
    report->AddViolation(Rule::kDataFlowShape,
                         std::string("plan places the ") +
                             (shape.bottom_on_gpu ? "bottom" : "top") +
                             " stage on a GPU the config does not "
                             "provision");
  }
}

void AuditDataFlowCapacity(const DataFlowCapacity& cap, CheckReport* report) {
  const std::uint64_t depth = cap.depth == 0 ? 1 : cap.depth;
  const std::uint64_t index_need = depth * cap.max_index_bytes;
  if (index_need > cap.index_region_bytes) {
    report->AddViolation(
        Rule::kDataFlowCapacity,
        "depth " + std::to_string(cap.depth) + " x " +
            std::to_string(cap.max_index_bytes) +
            " B in-flight index buffers need " + std::to_string(index_need) +
            " B, index region holds " +
            std::to_string(cap.index_region_bytes) + " B");
  }
  const std::uint64_t output_need = depth * cap.max_output_bytes;
  if (output_need > cap.output_region_bytes) {
    report->AddViolation(
        Rule::kDataFlowCapacity,
        "depth " + std::to_string(cap.depth) + " x " +
            std::to_string(cap.max_output_bytes) +
            " B in-flight output buffers need " +
            std::to_string(output_need) + " B, output region holds " +
            std::to_string(cap.output_region_bytes) + " B");
  }
}

namespace {

// t_after must not precede t_before by more than `slack`.
void CheckEdge(std::size_t batch, const char* edge, double before,
               double after, double slack, CheckReport* report) {
  if (after + slack < before) {
    report->AddViolation(Rule::kStageOrdering,
                         "batch " + std::to_string(batch) + ": " + edge +
                             " (" + std::to_string(after) + " ns < " +
                             std::to_string(before) + " ns)");
  }
}

}  // namespace

void AuditStageOrdering(std::size_t batch, const StageInstants& t,
                        CheckReport* report, double slack) {
  // Everything starts at or after the batch cut; stage 1's bus push
  // follows its fabric hop.
  CheckEdge(batch, "fabric hop starts before the cut", t.cut_ns,
            t.fabric_start_ns, slack, report);
  CheckEdge(batch, "fabric hop ends before it starts", t.fabric_start_ns,
            t.fabric_end_ns, slack, report);
  CheckEdge(batch, "s1 starts before the fabric hop ends", t.fabric_end_ns,
            t.s1_start_ns, slack, report);
  CheckEdge(batch, "bottom mlp starts before the cut", t.cut_ns,
            t.bpre_start_ns, slack, report);
  // Each stage spans forward in time.
  CheckEdge(batch, "s1 ends before it starts", t.s1_start_ns, t.s1_end_ns,
            slack, report);
  CheckEdge(batch, "s2 ends before it starts", t.s2_start_ns, t.s2_end_ns,
            slack, report);
  CheckEdge(batch, "s3 pull ends before it starts", t.s3_start_ns,
            t.pull_end_ns, slack, report);
  CheckEdge(batch, "s3 ends before its pull ends", t.pull_end_ns,
            t.s3_end_ns, slack, report);
  CheckEdge(batch, "bottom prefix ends before it starts", t.bpre_start_ns,
            t.bpre_end_ns, slack, report);
  CheckEdge(batch, "top ends before it starts", t.top_start_ns,
            t.top_end_ns, slack, report);
  // Dependency order: S1 -> S2 -> S3 -> top; bottom prefix -> bottom
  // done -> top.
  CheckEdge(batch, "s2 starts before s1 ends", t.s1_end_ns, t.s2_start_ns,
            slack, report);
  CheckEdge(batch, "s3 starts before s2 ends", t.s2_end_ns, t.s3_start_ns,
            slack, report);
  CheckEdge(batch, "top starts before s3 ends", t.s3_end_ns, t.top_start_ns,
            slack, report);
  CheckEdge(batch, "bottom done before its prefix ends", t.bpre_end_ns,
            t.bottom_done_ns, slack, report);
  CheckEdge(batch, "top starts before bottom mlp is done", t.bottom_done_ns,
            t.top_start_ns, slack, report);
}

void AuditStageOrdering(std::span<const StageInstants> schedule,
                        std::uint32_t depth, CheckReport* report,
                        double slack) {
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const StageInstants& t = schedule[b];
    AuditStageOrdering(b, t, report, slack);
    if (depth == 0 || b < depth) continue;
    const StageInstants& prev = schedule[b - depth];
    CheckEdge(b, "s1 starts before its index slot's stage 2 ends",
              prev.s2_end_ns, t.s1_start_ns, slack, report);
    CheckEdge(b, "s2 starts before its output slot's pull ends",
              prev.pull_end_ns, t.s2_start_ns, slack, report);
  }
}

}  // namespace updlrm::check
