// Custom workload: the library on a user-defined schema instead of the
// Wisconsin benchmark — a one-to-many customers/orders join with a
// selection predicate, executed on diskless join processors (the UN
// case the paper calls "very common ... re-establishing one-to-many
// relationships").
//
//   $ ./build/examples/custom_workload
#include <cstdio>

#include "common/random.h"
#include "gamma/catalog.h"
#include "gamma/loader.h"
#include "gamma/predicate.h"
#include "join/driver.h"
#include "sim/machine.h"

using namespace gammadb;

int main() {
  // A remote-style machine: 4 disk nodes + 4 diskless join processors.
  sim::MachineConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  sim::Machine machine(config);
  db::Catalog catalog;

  // Schemas: customers(cust_id, region, name), orders(order_id,
  // cust_id, amount, note).
  storage::Schema customers_schema({storage::Field::Int32("cust_id"),
                                    storage::Field::Int32("region"),
                                    storage::Field::Char("name", 24)});
  storage::Schema orders_schema({storage::Field::Int32("order_id"),
                                 storage::Field::Int32("cust_id"),
                                 storage::Field::Int32("amount"),
                                 storage::Field::Char("note", 20)});

  Rng rng(2026);
  std::vector<storage::Tuple> customers;
  for (int32_t id = 0; id < 5000; ++id) {
    storage::Tuple t(customers_schema.tuple_bytes());
    t.SetInt32(customers_schema, 0, id);
    t.SetInt32(customers_schema, 1, static_cast<int32_t>(rng.Uniform(10)));
    t.SetChars(customers_schema, 2, "customer-" + std::to_string(id));
    customers.push_back(std::move(t));
  }
  std::vector<storage::Tuple> orders;
  for (int32_t id = 0; id < 50000; ++id) {
    storage::Tuple t(orders_schema.tuple_bytes());
    t.SetInt32(orders_schema, 0, id);
    // Skewed one-to-many: popular customers get more orders.
    const int32_t cust = static_cast<int32_t>(
        rng.Uniform(rng.Uniform(2) == 0 ? 5000 : 500));
    t.SetInt32(orders_schema, 1, cust);
    t.SetInt32(orders_schema, 2, static_cast<int32_t>(rng.Uniform(1000)));
    t.SetChars(orders_schema, 3, "order");
    orders.push_back(std::move(t));
  }

  auto customers_rel = catalog.Create(machine, "customers", customers_schema);
  auto orders_rel = catalog.Create(machine, "orders", orders_schema);
  if (!customers_rel.ok() || !orders_rel.ok()) return 1;
  db::LoadOptions load;
  load.strategy = db::PartitionStrategy::kHashed;
  load.partition_field = 0;  // customers by cust_id, orders by order_id
  if (!db::LoadRelation(*customers_rel, customers, load).ok()) return 1;
  if (!db::LoadRelation(*orders_rel, orders, load).ok()) return 1;

  // Join: customers (inner, one side) with orders over $500 (outer,
  // many side) on cust_id, executed on the diskless processors.
  join::JoinSpec spec;
  spec.inner_relation = "customers";
  spec.outer_relation = "orders";
  spec.inner_field = 0;  // customers.cust_id
  spec.outer_field = 1;  // orders.cust_id
  spec.algorithm = join::Algorithm::kHybridHash;
  spec.memory_ratio = 0.5;
  spec.use_bit_filters = true;
  spec.join_nodes = machine.DisklessNodeIds();
  spec.outer_predicate = {
      db::Predicate{2, db::Predicate::Op::kGe, 500}};  // amount >= 500

  auto output = join::ExecuteJoin(machine, catalog, spec);
  if (!output.ok()) {
    std::fprintf(stderr, "%s\n", output.status().ToString().c_str());
    return 1;
  }
  std::printf("customers x orders(amount>=500) on cust_id\n");
  std::printf("  result tuples:   %zu\n", output->stats.result_tuples);
  std::printf("  response:        %.2f simulated seconds\n",
              output->response_seconds());
  std::printf("  buckets:         %d (after the Appendix A bucket "
              "analyzer)\n", output->stats.num_buckets);
  std::printf("  filter drops:    %lld\n",
              (long long)output->metrics.counters.filter_drops);
  std::printf("  avg hash chain:  %.2f (skewed one-to-many duplicates)\n",
              output->stats.avg_chain_length);
  return 0;
}
