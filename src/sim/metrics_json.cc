#include "sim/metrics_json.h"

namespace gammadb::sim {

JsonValue CountersToJson(const Counters& counters) {
  // bench_diff flags candidate-only keys, so a baseline recorded with a
  // group engaged keeps gating that group's keys.
  JsonValue out = JsonValue::MakeObject();
  for (const CounterField& field : kCounterFields) {
    if (field.group == CounterGroup::kCore || counters.Engaged(field.group)) {
      out.Set(field.name, counters.*field.member);
    }
  }
  out.Set("short_circuit_fraction", counters.ShortCircuitFraction());
  return out;
}

namespace {

/// Nonzero cost categories of `usage`, keyed by CostCategoryName.
JsonValue AttributionToJson(const NodeUsage& usage) {
  JsonValue out = JsonValue::MakeObject();
  for (size_t c = 0; c < kNumCostCategories; ++c) {
    if (usage.by_category[c] != 0) {
      out.Set(CostCategoryName(static_cast<CostCategory>(c)),
              usage.by_category[c]);
    }
  }
  return out;
}

}  // namespace

JsonValue PhaseRecordToJson(const PhaseRecord& phase,
                            bool include_attribution) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("label", phase.label);
  out.Set("sched_seconds", phase.sched_seconds);
  out.Set("ring_seconds", phase.ring_seconds);
  out.Set("elapsed_seconds", phase.elapsed_seconds);
  if (include_attribution) {
    JsonValue ring = JsonValue::MakeObject();
    ring.Set("payload_seconds", phase.ring.payload_seconds);
    ring.Set("retransmit_seconds", phase.ring.retransmit_seconds);
    ring.Set("duplicate_seconds", phase.ring.duplicate_seconds);
    out.Set("ring", std::move(ring));
  }
  JsonValue nodes = JsonValue::MakeArray();
  for (const NodeUsage& usage : phase.usage) {
    JsonValue node = JsonValue::MakeObject();
    node.Set("cpu_seconds", usage.cpu_seconds);
    node.Set("disk_seconds", usage.disk_seconds);
    if (include_attribution) {
      node.Set("attribution", AttributionToJson(usage));
    }
    nodes.Append(std::move(node));
  }
  out.Set("nodes", std::move(nodes));
  return out;
}

JsonValue RunMetricsToJson(const RunMetrics& metrics,
                           bool include_attribution) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("response_seconds", metrics.response_seconds);
  if (metrics.counters.Engaged(CounterGroup::kFault)) {
    out.Set("recovery_seconds", metrics.recovery_seconds);
  }
  out.Set("total_cpu_seconds", metrics.TotalCpuSeconds());
  out.Set("total_disk_seconds", metrics.TotalDiskSeconds());
  if (include_attribution) {
    NodeUsage totals;
    for (const PhaseRecord& phase : metrics.phases) {
      for (const NodeUsage& usage : phase.usage) {
        for (size_t c = 0; c < kNumCostCategories; ++c) {
          totals.by_category[c] += usage.by_category[c];
        }
      }
    }
    out.Set("attribution_totals", AttributionToJson(totals));
  }
  out.Set("counters", CountersToJson(metrics.counters));
  JsonValue phases = JsonValue::MakeArray();
  for (const PhaseRecord& phase : metrics.phases) {
    phases.Append(PhaseRecordToJson(phase, include_attribution));
  }
  out.Set("phases", std::move(phases));
  return out;
}

}  // namespace gammadb::sim
