#include "datagen/inex.h"

#include <memory>
#include <vector>

#include "datagen/words.h"

namespace hopi::datagen {

xml::Document GenerateInexDocument(const InexConfig& config, size_t index,
                                   Rng* rng) {
  auto root = std::make_unique<xml::Element>("article");
  root->AddAttribute("id", "root");

  auto* front = root->AddChild(std::make_unique<xml::Element>("fm"));
  front->AddChild(std::make_unique<xml::Element>("ti"))
      ->AppendText(RandomWords(rng, 5));
  size_t num_authors = 1 + rng->NextBounded(3);
  auto* authors = front->AddChild(std::make_unique<xml::Element>("au-group"));
  for (size_t a = 0; a < num_authors; ++a) {
    authors->AddChild(std::make_unique<xml::Element>("au"))
        ->AppendText(RandomAuthorName(rng));
  }

  auto* body = root->AddChild(std::make_unique<xml::Element>("bdy"));

  // Grow sections/subsections/paragraphs until the element budget is met.
  // Depth comes from sec > ss1 > ss2 > p nesting, mimicking the INEX
  // (IEEE Computer Society) DTD shape.
  size_t budget = config.mean_elements_per_doc / 2 +
                  rng->NextBounded(config.mean_elements_per_doc + 1);
  size_t made = root->SubtreeSize();
  size_t sec_count = 0;
  size_t fig_count = 0;
  std::vector<std::string> anchor_ids;
  while (made < budget) {
    auto* sec = body->AddChild(std::make_unique<xml::Element>("sec"));
    std::string sec_id = std::string("s").append(std::to_string(sec_count++));
    sec->AddAttribute("id", sec_id);
    anchor_ids.push_back(sec_id);
    sec->AddChild(std::make_unique<xml::Element>("st"))
        ->AppendText(RandomWords(rng, 3));
    made += 2;
    size_t subsections = 1 + rng->NextBounded(3);
    for (size_t ss = 0; ss < subsections && made < budget; ++ss) {
      auto* ss1 = sec->AddChild(std::make_unique<xml::Element>("ss1"));
      ++made;
      size_t paragraphs = 2 + rng->NextBounded(6);
      for (size_t p = 0; p < paragraphs && made < budget; ++p) {
        auto* para = ss1->AddChild(std::make_unique<xml::Element>("p"));
        para->AppendText(RandomWords(rng, 10 + rng->NextBounded(15)));
        ++made;
        if (rng->NextBernoulli(0.1)) {
          auto* fig = para->AddChild(std::make_unique<xml::Element>("fig"));
          std::string fig_id =
              std::string("f").append(std::to_string(fig_count++));
          fig->AddAttribute("id", fig_id);
          anchor_ids.push_back(fig_id);
          ++made;
        }
        if (!anchor_ids.empty() && rng->NextBernoulli(config.intra_ref_prob)) {
          auto* ref = para->AddChild(std::make_unique<xml::Element>("ref"));
          ref->AddAttribute(
              "idref", anchor_ids[rng->NextBounded(anchor_ids.size())]);
          ++made;
        }
      }
    }
  }

  auto* back = root->AddChild(std::make_unique<xml::Element>("bm"));
  auto* bib = back->AddChild(std::make_unique<xml::Element>("bib"));
  size_t num_bibs = 5 + rng->NextBounded(15);
  for (size_t b = 0; b < num_bibs; ++b) {
    // Bibliography entries are plain text here — INEX articles do NOT
    // carry inter-document XLinks (this is the defining property of the
    // dataset in the paper's experiments).
    bib->AddChild(std::make_unique<xml::Element>("bb"))
        ->AppendText(RandomWords(rng, 6));
  }

  xml::Document doc;
  doc.name = "article" + std::to_string(index) + ".xml";
  doc.root = std::move(root);
  return doc;
}

Result<collection::IngestReport> GenerateInexCollection(
    const InexConfig& config, collection::Collection* out) {
  Rng rng(config.seed);
  collection::Ingestor ingestor(out);
  for (size_t i = 0; i < config.num_docs; ++i) {
    xml::Document doc = GenerateInexDocument(config, i, &rng);
    auto id = ingestor.Ingest(doc);
    if (!id.ok()) return id.status();
  }
  return ingestor.report();
}

}  // namespace hopi::datagen
