// Distance-ranked retrieval over a linked auction-site collection — the
// XXL-style scenario the distance-aware index exists for (paper Sec 5.1):
// a result where the matched elements are close should rank above one
// where the connection meanders across many links.
//
//   $ ./intranet_ranking
#include <iostream>

#include "datagen/xmark.h"
#include "engine/engine.h"
#include "hopi/build.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"

int main() {
  using namespace hopi;

  collection::Collection c;
  datagen::XmarkConfig config;
  config.num_items = 120;
  config.num_people = 80;
  config.num_auctions = 100;
  if (!datagen::GenerateXmarkCollection(config, &c).ok()) return 1;
  std::cout << "auction site: " << c.NumLiveDocuments() << " documents, "
            << c.NumElements() << " elements, " << c.NumInterLinks()
            << " cross-document references\n";

  IndexBuildOptions options;
  options.with_distance = true;  // Sec 5: distance-aware labels
  options.partition.max_connections = 40000;
  auto index = BuildIndex(&c, options);
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }

  engine::QueryEngine engine = engine::QueryEngine::ForIndex(*index);

  // "Find auctions connected to an item description" — ranked by how
  // direct the connection is (itemref link vs longer bidder->person->watch
  // chains).
  const char* query_text = "//open_auction//description";
  auto matches =
      engine.Query({.expression = query_text, .max_matches = 10});
  if (!matches.ok()) return 1;
  std::cout << "\n//open_auction//description, ranked by distance:\n";
  for (const auto& m : matches->matches) {
    std::cout << "  auction-elem #" << m.bindings[0] << " -> desc #"
              << m.bindings[1] << "  hops=" << m.total_distance
              << "  score=" << m.score << "\n";
  }

  // Limited-length query: only near matches (Sec 5.1's "limited-length
  // paths between nodes with certain tags").
  auto near = engine.Query(
      {.expression = query_text, .max_matches = 10, .max_step_distance = 3});
  if (near.ok()) {
    std::cout << "with max_step_distance=3: " << near->matches.size()
              << " matches survive\n";
  }

  // Persist the index to the LIN/LOUT store and reopen it (what a search
  // engine restart would do).
  storage::LinLoutStore store =
      storage::LinLoutStore::FromCover(index->cover(), true);
  std::string path = "/tmp/hopi_intranet.idx";
  if (!store.WriteToFile(path).ok()) return 1;
  auto loaded = storage::MappedLinLoutStore::Open(path);
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n";
    return 1;
  }
  std::cout << "\npersisted " << store.NumEntries() << " entries ("
            << store.StorageIntegers() * 4 / 1024
            << " KiB as integers)\n";

  // Serve the same query from the reloaded store: only the backend
  // changes, the facade and the results stay identical.
  engine::QueryEngine restarted =
      engine::QueryEngine::ForMappedStore(c, *loaded);
  auto rematches =
      restarted.Query({.expression = query_text, .max_matches = 10});
  if (!rematches.ok()) return 1;
  bool consistent = rematches->matches.size() == matches->matches.size();
  for (size_t i = 0; consistent && i < rematches->matches.size(); ++i) {
    consistent = rematches->matches[i].bindings == matches->matches[i].bindings;
  }
  std::cout << "after restart from disk (backend: "
            << restarted.backend().Name() << "): "
            << (consistent ? "identical ranked matches" : "MISMATCH") << "\n";
  return 0;
}
