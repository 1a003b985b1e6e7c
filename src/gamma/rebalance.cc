#include "gamma/rebalance.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "gamma/bucket_analyzer.h"
#include "gamma/split_table.h"

namespace gammadb::db {

namespace {

/// Modeled join cost of a bin holding `count` residents against a
/// uniform share of `uniform`: linear work for everyone, plus a
/// quadratic duplicate-key penalty once the bin is past the heavy
/// threshold (build duplicates multiply probe duplicates, so probe
/// compares grow with the square of the excess).
double BinLoad(double count, double uniform, double heavy_factor) {
  if (count <= heavy_factor * std::max(1.0, uniform)) return count;
  const double excess = count - uniform;
  return count + excess * excess / std::max(1.0, uniform);
}

}  // namespace

void RebalancePlan::Install(size_t num_producers) {
  cursors.resize(num_producers);
  for (size_t p = 0; p < num_producers; ++p) {
    cursors[p].assign(num_bins, static_cast<uint32_t>(p));
  }
}

uint64_t RebalancePlan::SerializedBytes() const {
  uint64_t entries = 0;
  for (const std::vector<int>& d : destinations) entries += d.size();
  return SplitTable::SerializedBytesFor(entries);
}

RebalancePlan ComputeRebalancePlan(
    const std::vector<std::vector<uint64_t>>& process_bin_counts,
    uint64_t bytes_per_tuple, uint64_t capacity_bytes_per_process,
    const RebalanceOptions& options) {
  RebalancePlan plan;
  const size_t num_processes = process_bin_counts.size();
  if (num_processes < 2) return plan;

  const uint32_t bins = static_cast<uint32_t>(process_bin_counts[0].size());
  GAMMA_CHECK(bins > 0 && (bins & (bins - 1)) == 0)
      << "bin count must be a power of two: " << bins;
  plan.num_bins = bins;
  plan.shift = 64;
  for (uint32_t b = bins; b > 1; b >>= 1) --plan.shift;
  plan.destinations.assign(bins, {});

  std::vector<uint64_t> global(bins, 0);
  uint64_t total = 0;
  for (const std::vector<uint64_t>& row : process_bin_counts) {
    GAMMA_CHECK_EQ(row.size(), static_cast<size_t>(bins));
    for (uint32_t b = 0; b < bins; ++b) {
      global[b] += row[b];
      total += row[b];
    }
  }
  if (total == 0) return plan;

  const double uniform_global =
      static_cast<double>(total) / static_cast<double>(bins);
  const double uniform_pb =
      uniform_global / static_cast<double>(num_processes);

  std::vector<uint32_t> heavy;
  for (uint32_t b = 0; b < bins; ++b) {
    if (static_cast<double>(global[b]) >
        options.heavy_bin_factor * std::max(1.0, uniform_global)) {
      heavy.push_back(b);
    }
  }
  if (heavy.empty()) return plan;

  // Static per-process load; bail out unless the imbalance is worth a
  // migration phase.
  std::vector<double> static_load(num_processes, 0);
  for (size_t p = 0; p < num_processes; ++p) {
    for (uint32_t b = 0; b < bins; ++b) {
      static_load[p] +=
          BinLoad(static_cast<double>(process_bin_counts[p][b]), uniform_pb,
                  options.heavy_bin_factor);
    }
  }
  const double static_max =
      *std::max_element(static_load.begin(), static_load.end());
  if (LoadImbalance(static_load) < options.imbalance_threshold) return plan;

  // Heavy-bin residents are assumed to migrate away for the LOAD model
  // (restored below if a bin finds no home). Capacity bookkeeping in
  // resident_bytes is stricter: a bin's source bytes leave only when the
  // bin is actually placed, because an unplaced heavy bin stays resident
  // at its static home — freeing its bytes up front once let migrated
  // bins fill the space and the returning static bin overflow the table.
  std::vector<double> planned = static_load;
  std::vector<uint64_t> resident_bytes(num_processes, 0);
  for (size_t p = 0; p < num_processes; ++p) {
    uint64_t tuples = 0;
    for (uint32_t b = 0; b < bins; ++b) tuples += process_bin_counts[p][b];
    resident_bytes[p] = tuples * bytes_per_tuple;
  }
  for (uint32_t b : heavy) {
    for (size_t p = 0; p < num_processes; ++p) {
      planned[p] -=
          BinLoad(static_cast<double>(process_bin_counts[p][b]), uniform_pb,
                  options.heavy_bin_factor);
    }
  }

  // A destination holds the WHOLE bin, so its modeled cost is the bin
  // fully concentrated at one process — same per-process units as
  // static_load, so consolidation never looks cheaper than it is.
  const auto full_bin_cost = [&](uint32_t b) {
    return BinLoad(static_cast<double>(global[b]), uniform_pb,
                   options.heavy_bin_factor);
  };

  // Costliest bins choose destinations first (ties: lower bin first).
  std::sort(heavy.begin(), heavy.end(), [&](uint32_t a, uint32_t b) {
    const double ca = full_bin_cost(a);
    const double cb = full_bin_cost(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });

  double ideal = 0;
  for (double l : static_load) ideal += l;
  ideal /= static_cast<double>(num_processes);

  const size_t max_replicas =
      options.max_replicas > 0
          ? std::min(static_cast<size_t>(options.max_replicas), num_processes)
          : num_processes;

  for (uint32_t b : heavy) {
    const double cost = full_bin_cost(b);
    // Replicas split the probe stream, so the duplicate-key quadratic
    // term divides by the replica count; the linear build term does not
    // (every replica holds every resident of the bin).
    const double quadratic = cost - static_cast<double>(global[b]);
    size_t want = static_cast<size_t>(
        std::ceil(quadratic / std::max(ideal, 1.0)));
    want = std::min(std::max<size_t>(want, 1), max_replicas);

    // Every replica holds the whole bin, so feasibility is exact byte
    // math: fixed-width tuples make count * bytes_per_tuple the true
    // resident growth. A candidate's own copy of THIS bin is extracted
    // at migration time, so it is credited back in the check; copies of
    // other still-unplaced heavy bins stay counted (conservative: they
    // only leave if those bins are placed later).
    const uint64_t bin_bytes = global[b] * bytes_per_tuple;
    std::vector<int> dests;
    std::vector<bool> taken(num_processes, false);
    for (size_t k = 0; k < want; ++k) {
      int best = -1;
      for (size_t p = 0; p < num_processes; ++p) {
        if (taken[p]) continue;
        const uint64_t own_bin_bytes = process_bin_counts[p][b] * bytes_per_tuple;
        if (resident_bytes[p] - own_bin_bytes + bin_bytes >
            capacity_bytes_per_process) {
          continue;
        }
        if (best < 0 || planned[p] < planned[static_cast<size_t>(best)]) {
          best = static_cast<int>(p);
        }
      }
      if (best < 0) break;
      taken[static_cast<size_t>(best)] = true;
      dests.push_back(best);
    }
    if (dests.empty()) {
      // Nobody can absorb the bin: put its modeled load back and leave
      // it on the static route (its bytes never left resident_bytes).
      for (size_t p = 0; p < num_processes; ++p) {
        planned[p] +=
            BinLoad(static_cast<double>(process_bin_counts[p][b]), uniform_pb,
                    options.heavy_bin_factor);
      }
      continue;
    }
    const double share =
        static_cast<double>(global[b]) +
        quadratic / static_cast<double>(dests.size());
    // The bin's residents leave every static home now that it is placed.
    for (size_t p = 0; p < num_processes; ++p) {
      resident_bytes[p] -= process_bin_counts[p][b] * bytes_per_tuple;
    }
    for (int p : dests) {
      planned[static_cast<size_t>(p)] += share;
      resident_bytes[static_cast<size_t>(p)] += bin_bytes;
    }
    std::sort(dests.begin(), dests.end());
    plan.destinations[b] = std::move(dests);
    ++plan.overridden_bins;
    if (plan.destinations[b].size() > 1) ++plan.replicated_bins;
  }

  if (plan.overridden_bins == 0) return plan;
  const double planned_max =
      *std::max_element(planned.begin(), planned.end());
  if (planned_max >= static_max) {
    plan.destinations.assign(bins, {});
    plan.overridden_bins = 0;
    plan.replicated_bins = 0;
    return plan;
  }
  plan.active = true;
  return plan;
}

std::vector<std::vector<uint64_t>> GatherBinCounts(
    sim::Machine& machine, const std::vector<int>& process_nodes,
    const std::function<const HashHistogram&(size_t)>& histogram) {
  std::vector<int> sites = process_nodes;
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  std::vector<std::vector<uint64_t>> counts(process_nodes.size());
  machine.RunOnNodes(sites, [&](sim::Node& n) {
    for (size_t p = 0; p < process_nodes.size(); ++p) {
      if (process_nodes[p] != n.id()) continue;
      const HashHistogram& h = histogram(p);
      counts[p].resize(h.num_bins());
      for (uint32_t b = 0; b < h.num_bins(); ++b) {
        counts[p][b] = h.bin_count(b);
      }
      n.ChargeCpu(
          static_cast<double>(h.num_bins()) * n.cost().cpu_compare_seconds,
          sim::CostCategory::kCompare);
    }
  });
  return counts;
}

namespace {

/// Charges the scheduler work of one rebalance exchange. Must be called
/// inside an open machine phase.
void ChargeRebalance(sim::Machine& machine, int num_join_sites,
                     int num_producers, uint64_t plan_bytes) {
  const sim::CostModel& cost = machine.cost();
  // One statistics packet gathered from each join site, then the
  // decision (override table, or the empty keep-static verdict) goes
  // back to every join site and producing site — in pieces when the
  // table exceeds one packet, like any split-table broadcast.
  const int packets = std::max(1, cost.SplitTablePackets(plan_bytes));
  const int64_t messages =
      num_join_sites +
      static_cast<int64_t>(num_join_sites + num_producers) * packets;
  machine.ChargeScheduler(
      static_cast<double>(messages) * cost.sched_control_message_seconds,
      messages);
}

}  // namespace

RebalancePlan PlanRebalance(
    sim::Machine& machine, const std::vector<int>& process_nodes,
    const std::function<const HashHistogram&(size_t)>& histogram,
    uint64_t bytes_per_tuple, uint64_t capacity_bytes_per_process,
    size_t num_producers, bool keep_static) {
  const std::vector<std::vector<uint64_t>> counts =
      GatherBinCounts(machine, process_nodes, histogram);
  RebalancePlan plan;
  if (!keep_static) {
    plan = ComputeRebalancePlan(counts, bytes_per_tuple,
                                capacity_bytes_per_process, RebalanceOptions{});
  }
  ChargeRebalance(machine, static_cast<int>(process_nodes.size()),
                  static_cast<int>(num_producers), plan.SerializedBytes());
  if (plan.active) {
    ++machine.node(process_nodes[0]).counters().rebalance_plans;
    plan.Install(num_producers);
  }
  return plan;
}

}  // namespace gammadb::db
