#include "datagen/xmark.h"

#include <memory>

#include "datagen/words.h"

namespace hopi::datagen {

namespace {

std::string ItemDocName(const XmarkConfig& c, size_t item) {
  return "items" + std::to_string(item / c.entities_per_doc) + ".xml";
}
std::string PersonDocName(const XmarkConfig& c, size_t person) {
  return "people" + std::to_string(person / c.entities_per_doc) + ".xml";
}

}  // namespace

std::vector<xml::Document> GenerateXmarkDocuments(const XmarkConfig& config) {
  Rng rng(config.seed);
  std::vector<xml::Document> docs;

  // Item region documents.
  for (size_t base = 0; base < config.num_items;
       base += config.entities_per_doc) {
    auto root = std::make_unique<xml::Element>("region");
    for (size_t i = base;
         i < std::min(base + config.entities_per_doc, config.num_items); ++i) {
      auto* item = root->AddChild(std::make_unique<xml::Element>("item"));
      item->AddAttribute("id", "item" + std::to_string(i));
      item->AddChild(std::make_unique<xml::Element>("name"))
          ->AppendText(RandomWords(&rng, 2));
      auto* desc = item->AddChild(std::make_unique<xml::Element>("description"));
      desc->AddChild(std::make_unique<xml::Element>("text"))
          ->AppendText(RandomWords(&rng, 12));
      item->AddChild(std::make_unique<xml::Element>("quantity"))
          ->AppendText(std::to_string(1 + rng.NextBounded(5)));
    }
    xml::Document d;
    d.name = "items" + std::to_string(base / config.entities_per_doc) + ".xml";
    d.root = std::move(root);
    docs.push_back(std::move(d));
  }

  // People documents; watch lists reference items across documents.
  for (size_t base = 0; base < config.num_people;
       base += config.entities_per_doc) {
    auto root = std::make_unique<xml::Element>("people");
    for (size_t p = base;
         p < std::min(base + config.entities_per_doc, config.num_people);
         ++p) {
      auto* person = root->AddChild(std::make_unique<xml::Element>("person"));
      person->AddAttribute("id", "person" + std::to_string(p));
      person->AddChild(std::make_unique<xml::Element>("name"))
          ->AppendText(RandomAuthorName(&rng));
      person->AddChild(std::make_unique<xml::Element>("emailaddress"))
          ->AppendText(std::string("u").append(std::to_string(p)) +
                      "@example.org");
      size_t watches = rng.NextBounded(4);
      for (size_t w = 0; w < watches; ++w) {
        size_t item = rng.NextBounded(config.num_items);
        auto* watch = person->AddChild(std::make_unique<xml::Element>("watch"));
        watch->AddAttribute("xlink:href", ItemDocName(config, item) + "#item" +
                                              std::to_string(item));
      }
    }
    xml::Document d;
    d.name = "people" + std::to_string(base / config.entities_per_doc) + ".xml";
    d.root = std::move(root);
    docs.push_back(std::move(d));
  }

  // Open-auction documents; each auction references an item and bidders.
  for (size_t base = 0; base < config.num_auctions;
       base += config.entities_per_doc) {
    auto root = std::make_unique<xml::Element>("open_auctions");
    for (size_t a = base;
         a < std::min(base + config.entities_per_doc, config.num_auctions);
         ++a) {
      auto* auction =
          root->AddChild(std::make_unique<xml::Element>("open_auction"));
      auction->AddAttribute("id", "auction" + std::to_string(a));
      size_t item = rng.NextBounded(config.num_items);
      auto* itemref = auction->AddChild(std::make_unique<xml::Element>("itemref"));
      itemref->AddAttribute("xlink:href", ItemDocName(config, item) + "#item" +
                                              std::to_string(item));
      size_t bids = 1 + rng.NextBounded(5);
      for (size_t b = 0; b < bids; ++b) {
        size_t person = rng.NextBounded(config.num_people);
        auto* bidder = auction->AddChild(std::make_unique<xml::Element>("bidder"));
        bidder->AddChild(std::make_unique<xml::Element>("increase"))
            ->AppendText(std::to_string(1 + rng.NextBounded(50)));
        auto* personref =
            bidder->AddChild(std::make_unique<xml::Element>("personref"));
        personref->AddAttribute("xlink:href",
                                PersonDocName(config, person) + "#person" +
                                    std::to_string(person));
      }
      auto* current = auction->AddChild(std::make_unique<xml::Element>("current"));
      current->AppendText(std::to_string(10 + rng.NextBounded(500)));
    }
    xml::Document d;
    d.name =
        "auctions" + std::to_string(base / config.entities_per_doc) + ".xml";
    d.root = std::move(root);
    docs.push_back(std::move(d));
  }
  return docs;
}

Result<collection::IngestReport> GenerateXmarkCollection(
    const XmarkConfig& config, collection::Collection* out) {
  collection::Ingestor ingestor(out);
  for (const xml::Document& d : GenerateXmarkDocuments(config)) {
    auto id = ingestor.Ingest(d);
    if (!id.ok()) return id.status();
  }
  return ingestor.report();
}

}  // namespace hopi::datagen
