#include "join/repartition.h"

namespace gammadb::join {

Status StoreResults(sim::Node& node, size_t disk_index,
                    sim::Exchange<storage::Tuple>& store,
                    db::StoredRelation* result,
                    const storage::Schema& inner_schema, int inner_field,
                    std::vector<DigestAccumulator>* capture) {
  Status st;
  store.DrainInboxBlocks(node.id(), [&](std::vector<storage::Tuple>& lane) {
    for (const storage::Tuple& t : lane) {
      if (capture != nullptr) {
        (*capture)[disk_index].AddConcatRecord(inner_schema, inner_field,
                                               t.data(), t.size());
      }
      st.Update(result->fragment(disk_index).Append(t));
    }
  });
  return st;
}

}  // namespace gammadb::join
